#!/usr/bin/env python3
"""Compare the CLI's CSV outputs of two checkouts, column by column.

Usage:
    python scripts/csv_drift.py PARENT_DIR CHANGE_DIR

Every file in CHANGE_DIR/configs is run on both checkouts through each
command that takes it: a sweep config through `sweep`, through `field` at
its first frequency (at the default flags, at a value off its default for
every flag, and with `--truth-only`) and through `forbidden` for its array
radius, its `order` and its highest frequency; `synth.json` through `synth`
and `anc.json` through `anc`.  One more `forbidden` run, at radius 1.3,
`--numax 12` and `--fmax 1500`, has 107 roots, where those of the configs
have 4 to 25.  Each checkout runs all its commands in one child
process, with its own `src` first on the path.  A second child per checkout
makes seeded library calls whose values no command writes: 4 order-12
`translate_coeffs`, 4 `rotate_coeffs`, one `translation_matrix` over 64
displacements at order 7 <- 1, `sph_harm_matrix` to degree 12 at 64
directions, 3 of them next to a pole, a 4,000-sample
`fxlms_weighted_run` on the single-tone geometry of the unit tests (its
final filter and error history), `region_weighting` on `synth`'s default
geometry at the 5 frequencies of `configs/synth.json`, `sph_jn_all` and
`sph_hn_all` with their derivatives at degrees 0-40 and 123 seeded arguments
from 0 to 2000, in one call and again one argument per call (the
one-element path), `radial_response` of each kind at order 7 on a vector
of 64 kR from 0.05 to 2000 (a checkout whose `radial_response` takes one
kR per call gives it column by column), the estimates of a `field` dump of
DM-infinite on first-order mics, which no file of `configs/` runs, a
100-frequency BM-first `sweep_csv(run_sweep(...))`, longer than any sweep
of `configs/`, and `solve_tikhonov` on a seeded complex 12 x 5 system at
reg 0 and 1e-3, its B^H B form, which no DM-finite config reaches (each has
M <= (N0+1)^2), `extract_expansion` of a seeded kernel weight vector on
12 mixed omni, bidirectional and first-order mics at order 7 about an
offset origin, which no command runs, and an 8-frequency DM-finite sweep
about an off-centre origin at a 64 KB `harness.BLOCK_BYTES`, where each
radial table holds one 64-point block at 4 of the frequencies, which no
sweep of `configs/` reaches (each fits its whole grid in one table), and
the final costs and regional powers of `anc_experiment` at `mu_scale` 1.9
(an oscillating fast mode), at 1 iteration and at the 2,097,152 the config
accepts at most, none of which `configs/anc.json` sets.

For each column of each output, and for the values of each of those
functions, one line says `identical` when the text is equal, or else the
largest |change - parent| over the largest |parent| of the column.  The exit
status is 1 when a command fails or the outputs differ in their header or row
count, else 0.
"""

import argparse
import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path

# `field` flags each off its default, so that their plumbing is compared too.
FIELD_FLAGS = ["--plane", "yz", "--extent", "1.5", "--spacing", "0.25", "--offset", "0.1",
               "--trial", "1"]
# Runs each argv through soundfield.cli.main in one process; prints the
# exit statuses as a JSON list.
CHILD = """
import json, sys
sys.path.insert(0, sys.argv[1])
from soundfield.cli import main
print(json.dumps([main(argv) for argv in json.loads(sys.argv[2])]))
"""
# Seeded translate_coeffs, rotate_coeffs, translation_matrix, sph_harm_matrix,
# sph_jn_all and sph_hn_all calls (batched and one argument per call), one
# FxLMS run, synth's region weightings, radial responses on a kR vector, one
# directional DM-infinite field dump, one 100-frequency BM-first sweep, one
# overdetermined Tikhonov solve, one kernel estimate's expansion, one
# DM-finite sweep whose radial tables each hold a block at a chunk of k and
# three ANC experiments; prints the repr of each real and imaginary part of
# their outputs, by function.
LAYER_CHILD = """
import io, json, sys
sys.path.insert(0, sys.argv[1])
import numpy as np
from soundfield import (applications as apps, boundary, discrete, harness, observation,
                        specfun, wavefuncs)
from soundfield.harness import SOUND_SPEED
rng = np.random.default_rng(2025)
n = specfun.num_coeffs(12)
cset = wavefuncs.CoefficientSet(12, np.zeros(3), rng.normal(size=n) + 1j * rng.normal(size=n))
out = {
    "translate": [wavefuncs.translate_coeffs(cset, 0.3 * rng.normal(size=3), 6.0).coeffs
                  for _ in range(4)],
    "rotate": [wavefuncs.rotate_coeffs(cset, specfun.rotation_matrix(rng.normal(size=3), a)).coeffs
               for a in rng.uniform(-np.pi, np.pi, size=4)],
    "translation_matrix": wavefuncs.translation_matrix(0.5 * rng.normal(size=(64, 3)), 6.0, 7, 1),
}
dirs = np.vstack([rng.normal(size=(61, 3)), [[1e-8, 0, -0.4], [1e-7, 2e-7, 0.9], [-3e-6, 0, 1]]])
out["harmonics"] = specfun.sph_harm_matrix(12, dirs / np.linalg.norm(dirs, axis=1)[:, None])
# FxLMS at 700 Hz, 4 kHz sampling; each transfer function a 2-tap FIR filter
# matched to its complex gain at the tone
k, zm1 = 2 * np.pi * 700.0 / 340.65, np.exp(-2j * np.pi * 700.0 / 4000.0)
mics = apps.square_boundary_points(1.0, 8, outward_shift=0.03)
src = apps.square_boundary_points(2.0, 4)
region, cell = apps.square_grid(1.0, 0.1)
A = apps.region_weighting(mics, region, cell, k, 1e-3)
A_taps = apps.weighting_taps(lambda f: A, 64, 4)
def two_tap(c):
    b = c.imag / zm1.imag
    return np.stack([c.real - b * zm1.real, b])
x = np.cos(2 * np.pi * 700.0 / 4000.0 * np.arange(4000))
d_taps = two_tap(wavefuncs.green(mics, np.array([3.0, 0.0, 0.0]), k))
d = np.outer(x, d_taps[0]) + np.outer(np.concatenate([[0.0], x[:-1]]), d_taps[1])
out["fxlms"] = np.concatenate([np.ravel(v) for v in apps.fxlms_weighted_run(
    two_tap(apps.transfer_matrix(src, mics, k)), A_taps, x, d, 5e-2, 2)])
# synth's weightings at its default spacings and reg, at the frequencies of
# configs/synth.json; synth's CSV shows them only through two solves
ctrl, _ = apps.square_grid(1.0, 0.2)
quad, cell = apps.square_grid(1.0, 0.02, midpoint=True)
out["region_weighting"] = [apps.region_weighting(ctrl, quad, cell, 2 * np.pi * f / SOUND_SPEED, 1e-3)
                           for f in (100.0, 300.0, 500.0, 700.0, 900.0)]
# Bessel tables, degrees 0-40, at 0, next to 0, in [0, 60] and up to 2000.  h_n
# and h_n' are divided by their own modulus, so that each (n, x) is compared
# at its own scale and not at that of y_40 next to 0.
x = np.concatenate([[0.0, 1e-9, 1e-5], rng.uniform(0, 60, 60), 10.0 ** rng.uniform(0, 3.3, 60)])
out["sph_jn_all"] = np.concatenate([specfun.sph_jn_all(0, x)[0], specfun.sph_jn_all(40, x).ravel(),
                                    specfun.sph_jn_all(40, x, derivative=True).ravel()])
with np.errstate(invalid="ignore"):
    out["sph_hn_all"] = [h / np.abs(h) for h in (specfun.sph_hn_all(40, x),
                                                 specfun.sph_hn_all(40, x, derivative=True))]
# the same tables one argument per call
out["sph_jn_all_one_by_one"] = np.concatenate([
    np.ravel(v) for xi in x for v in (specfun.sph_jn_all(0, xi), specfun.sph_jn_all(40, xi),
                                      specfun.sph_jn_all(40, xi, derivative=True))])
with np.errstate(invalid="ignore"):
    out["sph_hn_all_one_by_one"] = [
        h / np.abs(h) for xi in x for h in (specfun.sph_hn_all(40, xi),
                                            specfun.sph_hn_all(40, xi, derivative=True))]
# radial responses of each kind on one kR vector; where radial_response takes
# a single kR only (its i^-nu factor does not broadcast), column by column
kR = np.concatenate([np.linspace(0.05, 60.0, 60), [250.0, 1000.0, 1500.0, 2000.0]])
def response(kind):
    try:
        return boundary.radial_response(kind, 7, kR, a=0.37)
    except ValueError:
        return np.stack([boundary.radial_response(kind, 7, v, a=0.37) for v in kR], axis=-1)
out["radial_response"] = [response(kind) for kind in ("omni", "first_order", "rigid")]
# re_est and im_est of a field dump of the kernel estimate on first-order
# mics: its two real basis terms, a j0 and j1 proj
cfg = harness.ScenarioConfig.from_dict({
    "estimator": "DM-infinite", "frequencies": [300.0], "snr_db": 30, "trials": 1, "seed": 0,
    "reg": 0.001, "array": {"type": "spherical", "t": 7, "radius": 1.0, "kind": "first_order"},
    "field": {"type": "point_source", "position": [2.0, 1.0, 0.5]}})
dump = io.StringIO()
harness.dump_field(cfg, 300.0, dump, "xy", 2.0, 0.1, 0.0, True, 0)
out["kernel_first_order_field"] = [complex(float(row[5]), float(row[6])) for row in
                                   (line.split(",") for line in dump.getvalue().splitlines()[1:])]
# a BM-first sweep of 100 frequencies, every number of its CSV
sweep = harness.sweep_csv(harness.run_sweep(harness.ScenarioConfig.from_dict({
    "estimator": "BM-first", "frequencies": np.linspace(50.0, 1000.0, 100).tolist(),
    "trials": 2, "seed": 3, "array": {"type": "spherical", "t": 7, "radius": 1.0},
    "field": {"type": "point_source", "position": [2.0, 1.0, 0.5]},
    "eval_grid": {"radius": 0.5, "spacing": 0.1}})))
out["bm_first_100_frequencies"] = [float(c) for line in sweep.splitlines()[1:]
                                   for c in line.split(",") if c != "BM-first"]
# M > N: the B^H B form of solve_tikhonov, at reg 0 and at the configs' reg
B = rng.normal(size=(12, 5)) + 1j * rng.normal(size=(12, 5))
s = rng.normal(size=12) + 1j * rng.normal(size=12)
out["tikhonov_overdetermined"] = [discrete.solve_tikhonov(B, s, reg) for reg in (0.0, 1e-3)]
# the kernel estimate's coefficients about an offset origin, on mixed mics
mics = observation.Mics(0.4 * rng.normal(size=(12, 3)),
                        ["omni", "bidirectional", "first_order"] * 4,
                        rng.normal(size=(12, 3)), rng.uniform(size=12))
alpha = rng.normal(size=12) + 1j * rng.normal(size=12)
out["extract_expansion"] = discrete.extract_expansion(alpha, mics, [0.1, -0.05, 0.08], 7,
                                                      6.0).coeffs
# a DM-finite sweep about an off-centre origin at a 64 KB budget: blocks of
# 64 points, and radial tables of one block at 4 of the 8 frequencies
budget, harness.BLOCK_BYTES = harness.BLOCK_BYTES, 2**16
sweep = harness.sweep_csv(harness.run_sweep(harness.ScenarioConfig.from_dict({
    "estimator": "DM-finite", "frequencies": np.linspace(100.0, 450.0, 8).tolist(),
    "trials": 3, "seed": 5, "order_n0": 7, "origin": [0.07, -0.03, 0.02],
    "directivity_a": 0.5, "array": {"type": "spherical", "t": 7, "radius": 1.0,
                                    "kind": "first_order"},
    "field": {"type": "plane_wave", "direction": [0.4, -0.3, 0.6]},
    "eval_grid": {"radius": 0.5, "spacing": 0.1}})))
harness.BLOCK_BYTES = budget
out["dm_finite_radial_chunks"] = [float(c) for line in sweep.splitlines()[1:]
                                  for c in line.split(",") if c != "DM-finite"]
# the ANC experiment off configs/anc.json: an oscillating fast mode, one
# update, and the largest iteration count a config may set
anc = [harness.anc_experiment(run)[0]
       for run in ({"mu_scale": 1.9}, {"iterations": 1}, {"iterations": 2097152})]
for key in ("final_cost", "regional_power_db"):
    out[f"anc_{key}"] = [run[w][key] for run in anc for w in ("multipoint", "kernel")]
print(json.dumps({name: [repr(float(x)) for z in np.ravel(v) for x in (z.real, z.imag)]
                  for name, v in out.items()}))
"""


def jobs(config_dir):
    """(output name, argv without -o) of every run of the configs."""
    out = []
    for path in sorted(Path(config_dir).glob("*.json")):
        cfg = json.loads(path.read_text(encoding="utf-8"))
        if path.name in ("synth.json", "anc.json"):
            out.append((path.stem, [path.stem, str(path)]))
            continue
        out.append((f"{path.stem}-sweep", ["sweep", str(path)]))
        field = ["field", str(path), "--freq", repr(float(cfg["frequencies"][0]))]
        out.append((f"{path.stem}-field", field))
        out.append((f"{path.stem}-field-flags", field + FIELD_FLAGS))
        out.append((f"{path.stem}-field-truth", field + ["--truth-only"]))
        out.append((f"{path.stem}-forbidden",
                    ["forbidden", "--radius", repr(float(cfg["array"].get("radius", 1.0))),
                     "--numax", str(cfg.get("order", 7)),
                     "--fmax", repr(float(max(cfg["frequencies"])))]))
    out.append(("forbidden-many-roots",
                ["forbidden", "--radius", "1.3", "--numax", "12", "--fmax", "1500"]))
    return out


def child(checkout, script, *args):
    """Run `script` with `checkout`'s src first on the path; returns its last
    line of output, read as JSON."""
    proc = subprocess.run(
        [sys.executable, "-c", script, str(Path(checkout).resolve() / "src"), *args],
        capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"{checkout}: the child process failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def run(checkout, runs, out_dir):
    """Run every job on `checkout`, writing <name>.csv to `out_dir`."""
    argvs = [argv + ["-o", str(Path(out_dir) / f"{name}.csv")] for name, argv in runs]
    return dict(zip([name for name, _ in runs], child(checkout, CHILD, json.dumps(argvs))))


def _number(cell):
    return math.nan if cell == "" else float(cell)


def column_drift(parent, change):
    """"identical", or the largest relative drift of one column's cells."""
    if parent == change:
        return "identical"
    try:
        a = [_number(c) for c in parent]
        b = [_number(c) for c in change]
    except ValueError:
        return "text differs"
    scale = max((abs(x) for x in a if math.isfinite(x)), default=0.0)
    diffs = [abs(x - y) for x, y in zip(a, b)
             if not (x == y or (math.isnan(x) and math.isnan(y)))]
    worst = max(diffs, default=0.0) if all(math.isfinite(d) for d in diffs) else math.inf
    return f"drift {worst / scale if scale > 0 else worst:.3g}"


def read_columns(path):
    header, *rows = [line.split(",") for line in path.read_text(encoding="utf-8").splitlines()]
    return header, [list(col) for col in zip(*rows)] if rows else [[] for _ in header]


def compare(parent_dir, change_dir, runs):
    """Print one line per column; returns True when every output compared."""
    ok = True
    for name, _ in runs:
        pa, ch = Path(parent_dir) / f"{name}.csv", Path(change_dir) / f"{name}.csv"
        if not (pa.exists() and ch.exists()):
            print(f"{name}: missing output")
            ok = False
            continue
        (h1, c1), (h2, c2) = read_columns(pa), read_columns(ch)
        if h1 != h2 or len(c1[0]) != len(c2[0]):
            print(f"{name}: header or row count differs")
            ok = False
            continue
        for col, a, b in zip(h1, c1, c2):
            print(f"{name} {col}: {column_drift(a, b)}")
    return ok


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", help="checkout whose outputs are the reference")
    p.add_argument("change", help="checkout whose outputs are compared")
    args = p.parse_args(argv)
    runs = jobs(Path(args.change) / "configs")
    with tempfile.TemporaryDirectory() as tmp:
        dirs, layer = {}, {}
        for label, checkout in (("parent", args.parent), ("change", args.change)):
            dirs[label] = Path(tmp) / label
            dirs[label].mkdir()
            statuses = run(checkout, runs, dirs[label])
            failed = [name for name, status in statuses.items() if status != 0]
            if failed:
                print(f"{label}: exit status != 0 for {', '.join(failed)}")
                return 1
            layer[label] = child(checkout, LAYER_CHILD)
        ok = compare(dirs["parent"], dirs["change"], runs)
        for name, values in layer["parent"].items():
            print(f"{name} values: {column_drift(values, layer['change'][name])}")
        return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
