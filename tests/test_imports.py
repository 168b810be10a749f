"""The library's import path is numpy-only."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _run(code):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    return out.stdout.strip()


def test_cli_import_loads_no_scipy():
    code = (
        "import sys, soundfield.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    assert _run(code) == "[]"


def test_translation_and_rotation_load_no_numpy_polynomial():
    # the Gauss-Legendre rule comes from numpy.linalg, not numpy.polynomial
    code = (
        "import sys, numpy as np\n"
        "from soundfield import specfun, wavefuncs\n"
        "c = wavefuncs.CoefficientSet(12, np.zeros(3), np.ones(169))\n"
        "wavefuncs.translate_coeffs(c, np.array([0.1, 0.2, -0.3]), 5.0)\n"
        "wavefuncs.translation_matrix(np.array([0.3, 0.0, 0.1]), 5.0, 12, 12)\n"
        "wavefuncs.rotate_coeffs(c, specfun.rotation_matrix([1.0, 2.0, 3.0], 0.7))\n"
        "print(sorted(m for m in sys.modules if m.split('.')[:2] == ['numpy', 'polynomial']))\n"
    )
    assert _run(code) == "[]"
