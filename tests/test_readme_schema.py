"""The README's config key tables list exactly the keys of the parser's tables."""

from pathlib import Path

from soundfield import harness

README = Path(__file__).resolve().parent.parent / "README.md"


def _readme_tables():
    """{key: whether its default is `required`} of each
    `| key | default | range |` table, in README order."""
    tables, rows = [], None
    for line in README.read_text(encoding="utf-8").splitlines():
        if line.startswith("| key | default | range |"):
            rows = {}
            tables.append(rows)
        elif rows is not None and line.startswith("| `"):
            cells = [cell.strip() for cell in line.split("|")]
            rows[cells[1].strip("`")] = cells[2] == "required"
        elif rows is not None and not line.startswith("|---"):
            rows = None
    return tables


def _keys(rows, prefix=""):
    """{key: required} of a parser table, keys prefixed by `prefix`."""
    return {prefix + key: default is harness._REQUIRED for key, default, _ in rows}


def test_readme_tables_list_the_keys_each_parser_reads():
    spherical, explicit, top, synth, anc = _readme_tables()
    assert spherical == _keys(harness._SPHERICAL)
    assert explicit == _keys(harness._EXPLICIT) | _keys(harness._MIC, "mics[i].")
    assert top == _keys(harness._SCENARIO)
    assert synth == _keys(harness._SYNTH)
    assert anc == _keys(harness._ANC)

    # objects with no table of their own are described in the prose
    text = README.read_text(encoding="utf-8")
    for rows in (harness._EVAL_GRID, *harness._FIELDS.values()):
        for key, _, _ in rows:
            assert f"`{key}`" in text
