"""The package loads scipy only on the two paths that integrate with quad.

Importing ``scipy.integrate`` takes about half a second, more than every
other import of a CLI call together, so a fresh interpreter checks that
``import cylmeasure`` and a symbolic subcommand leave scipy unloaded and
that ``kernel --fourier`` still loads it and meets its error bound.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import contextlib, io, json, sys

def scipy_loaded():
    return sorted(k for k in sys.modules if k == "scipy" or k.startswith("scipy."))

def run(*argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cylmeasure.cli.main(list(argv))
    return code, buf.getvalue()

import cylmeasure, cylmeasure.cli
report = {"after_import": scipy_loaded()}
report["shift_admissible"] = run(
    "shift-admissible", "--cov", '{"constant":{"rho":1}}', "--shift", '{"power":{"c":1,"p":1}}'
)
report["after_shift_admissible"] = scipy_loaded()
report["fourier"] = run("kernel", "--fourier", "1", "0.5", "--cutoff", "1e7", "--tol", "1e-6")
report["integrate_loaded"] = "scipy.integrate" in sys.modules
print(json.dumps(report))
"""


def test_scipy_is_loaded_only_by_quadrature():
    proc = subprocess.run(
        [sys.executable, "-c", PROBE],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    report = json.loads(proc.stdout)
    assert report["after_import"] == []
    code, out = report["shift_admissible"]
    assert code == 0 and json.loads(out)["payload"] == {"admissible": True}
    assert report["after_shift_admissible"] == []

    code, out = report["fourier"]
    assert code == 0
    assert report["integrate_loaded"]
    payload = json.loads(out)["payload"]
    exact = math.exp(-0.5) / 2.0  # exp(-m |x|) / (2 m) at m = 1, x = 0.5
    assert abs(payload["value"] - exact) <= payload["error_bound"] <= 1e-6
