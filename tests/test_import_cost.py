"""No path of the package loads scipy.

Importing ``scipy.integrate`` takes about half a second, more than every
other import of a CLI call together, and scipy is only a test dependency.
A fresh interpreter checks that ``import cylmeasure``, a symbolic
subcommand, ``kernel --fourier`` and the quick selftest leave scipy
unloaded, and a second one runs the numeric paths with scipy blocked.
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
report["after_fourier"] = scipy_loaded()
report["selftest"] = run("selftest", "--level", "quick")[0]
report["after_selftest"] = scipy_loaded()
print(json.dumps(report))
"""

BLOCKED = """
import sys
sys.modules["scipy"] = None
from cylmeasure.cli import main
sys.exit(main(sys.argv[1:]))
"""


def _run(code, *argv):
    return subprocess.run(
        [sys.executable, "-c", code, *argv],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_no_path_loads_scipy():
    proc = _run(PROBE)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["after_import"] == []
    code, out = report["shift_admissible"]
    assert code == 0 and json.loads(out)["payload"] == {"admissible": True}
    assert report["after_shift_admissible"] == []

    code, out = report["fourier"]
    assert code == 0
    assert report["after_fourier"] == []
    payload = json.loads(out)["payload"]
    exact = math.exp(-0.5) / 2.0  # exp(-m |x|) / (2 m) at m = 1, x = 0.5
    assert abs(payload["value"] - exact) <= payload["error_bound"] <= 1e-6

    assert report["selftest"] == 0
    assert report["after_selftest"] == []


def test_numeric_paths_run_with_scipy_blocked():
    fourier = _run(BLOCKED, "kernel", "--fourier", "1", "0.5")
    assert fourier.returncode == 0, fourier.stderr
    payload = json.loads(fourier.stdout)["payload"]
    assert abs(payload["value"] - math.exp(-0.5) / 2.0) <= payload["error_bound"] <= 1e-6

    selftest = _run(BLOCKED, "selftest", "--level", "quick")
    assert selftest.returncode == 0, selftest.stdout + selftest.stderr
    assert "kernel-oracle" in selftest.stdout
