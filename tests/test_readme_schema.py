"""The README's config key tables list exactly the keys the parsers read."""

import re
from pathlib import Path

from soundfield import harness
from soundfield.harness import ScenarioConfig, anc_experiment, wpm_experiment

README = Path(__file__).resolve().parent.parent / "README.md"

SWEEP_TOP = {
    "estimator": "DM-infinite", "frequencies": [200.0], "c": 343.0, "snr_db": 20.0,
    "seed": 1, "trials": 1, "order": 3, "order_n0": 3, "origin": [0.0, 0.0, 0.0],
    "reg": 1e-3, "directivity_a": 0.5, "eval_grid": {"radius": 0.5, "spacing": 0.25},
}
SPHERICAL = {"type": "spherical", "t": 5, "radius": 1.0, "kind": "first_order",
             "mount": "open"}
EXPLICIT = {"mount": "open", "radius": 1.0, "mics": [
    {"pos": [1.0, 0.0, 0.0], "kind": "first_order", "y": [1.0, 0.0, 0.0], "a": 0.5},
    {"pos": [0.0, 1.0, 0.0]}]}
SYNTH = {"frequencies": [300.0], "c": 343.0, "eta": 1e-3, "reg": 1e-3,
         "direction": [1.0, 0.0, 0.0], "eval_spacing": 0.25, "quad_spacing": 0.25,
         "control_spacing": 0.5}
ANC = {"c": 343.0, "frequency": 300.0, "reg": 1e-3, "iterations": 2,
       "primary_source": [3.0, 0.0, 0.0], "num_error_mics": 4, "outward_shift": 0.03,
       "num_sources": 4, "eval_spacing": 0.25, "mu_scale": 1.0}


def _readme_tables():
    """Key column of each `| key | default | range |` table, in README order."""
    tables, keys = [], None
    for line in README.read_text(encoding="utf-8").splitlines():
        if line.startswith("| key | default | range |"):
            keys = set()
            tables.append(keys)
        elif keys is not None and line.startswith("| `"):
            keys.add(line.split("|")[1].strip().strip("`"))
        elif keys is not None and not line.startswith("|---"):
            keys = None
    return tables


def _reads(monkeypatch, parse, obj):
    """{object path: keys read} over every _ConfigObject closed by parse(obj)."""
    reads = {}
    close = harness._ConfigObject.close

    def recording_close(self):
        reads.setdefault(re.sub(r"\[\d+\]", "[i]", self.path), set()).update(self._read)
        close(self)

    monkeypatch.setattr(harness._ConfigObject, "close", recording_close)
    parse(obj)
    monkeypatch.undo()
    return reads


def test_readme_tables_list_the_keys_each_parser_reads(monkeypatch):
    spherical, explicit, top, synth, anc = _readme_tables()
    sph = _reads(monkeypatch, ScenarioConfig.from_dict, dict(
        SWEEP_TOP, array=SPHERICAL, field={"type": "plane_wave", "direction": [0, 1, 0]}))
    exp = _reads(monkeypatch, ScenarioConfig.from_dict, dict(
        SWEEP_TOP, array=EXPLICIT, field={"type": "point_source", "position": [3, 0, 0]}))

    assert sph[""] == exp[""] == top
    # the spherical form also asks for `mics`, which selects the explicit form
    assert sph["array"] == spherical | {"mics"}
    assert exp["array"] | {f"mics[i].{k}" for k in exp["array.mics[i]"]} == explicit
    assert _reads(monkeypatch, wpm_experiment, SYNTH)[""] == synth
    assert _reads(monkeypatch, anc_experiment, ANC)[""] == anc

    # objects with no table of their own are described in the prose
    assert set(sph) | set(exp) == {"", "array", "array.mics[i]", "eval_grid", "field"}
    text = README.read_text(encoding="utf-8")
    for key in sph["eval_grid"] | sph["field"] | exp["field"]:
        assert f"`{key}`" in text
