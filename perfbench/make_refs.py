"""Write the reference outputs of every workload variant to refs/<workload>.npz.

Usage (from the repository root):

    python3 perfbench/make_refs.py

The stored references are the outputs of the program at the commit that
added the benchmark.  Regenerating them at a later commit makes the
benchmark compare that commit with itself, so do it only when the program's
outputs are meant to change, and say so.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402


def variant_outputs(workload, v, workdir):
    """{key: array} of one variant's outputs, keyed as in the reference file."""
    ops = workloads.operations(workload, workloads.generate(workload, v), workdir)
    out = {}
    for name, fn in ops:
        for key, value in fn().items():
            out[workloads.ref_key(v, name, key)] = np.asarray(value)
    return out


def main():
    workloads.REF_DIR.mkdir(exist_ok=True)
    for workload in workloads.WORKLOADS:
        arrays = {}
        with tempfile.TemporaryDirectory(dir=HERE) as tmp:
            for v in range(workloads.N_VARIANTS):
                arrays.update(variant_outputs(workload, v, tmp))
                print(f"{workload} variant {v} done", flush=True)
        np.savez_compressed(workloads.ref_path(workload), **arrays)
    return 0


if __name__ == "__main__":
    sys.exit(main())
