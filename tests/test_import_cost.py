"""A CLI call loads only what its subcommand runs, and never scipy.

Importing ``scipy.integrate`` takes about half a second, more than every
other import of a CLI call together, and scipy is only a test dependency.
A fresh interpreter checks that ``import cylmeasure``, a symbolic
subcommand, ``kernel --fourier`` and the quick selftest leave scipy
unloaded, and a second one runs the numeric paths with scipy blocked.

numpy takes about 0.1 s to import and the symbolic subcommands build no
array (``equivalence``, one-point ``rn-density``, closed-form ``support``
and a ``product`` with a geometric or tabulated tail included).  A fresh
interpreter checks that ``import cylmeasure.cli``, those subcommands and
their refusals of a tabulated series leave numpy unloaded and that an
array path (``sample``) loads it, and a second one runs the symbolic
subcommands with numpy blocked.

The package's own modules come next: ``import cylmeasure`` loads none of
them, and a subcommand loads only those of ``bohr``, ``kernels``,
``measure_core`` and ``selftest`` that it runs.  Each call gets its own
fresh interpreter, since loaded modules accumulate.

``jsonio.SCHEMA`` names its constructors, and a kind's first read loads
the module behind them: ``import cylmeasure.jsonio`` loads no model module
and no numpy, every name resolves, and reading leaves ``SCHEMA`` unchanged.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


LOADED = """
import contextlib, io, json, sys
import cylmeasure.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cylmeasure.cli.main(sys.argv[1:])
print(json.dumps([code, sorted(k for k in sys.modules if k.startswith("cylmeasure."))]))
"""

HEAVY = {"bohr", "kernels", "measure_core", "selftest"}
CONST = '{"constant":{"rho":1}}'
POWER = '{"power":{"c":1,"p":1}}'
UNIFORM = '{"identical":{"uniform":{"a":0,"b":1}}}'


@pytest.mark.parametrize(
    "argv, loads",
    [
        (("shift-admissible", "--cov", CONST, "--shift", POWER), set()),
        (("hs-check", "--weights", POWER), set()),
        (("equivalence", "--cov-a", CONST, "--cov-b", '{"constant":{"rho":2}}'), set()),
        (("support", "--cov", CONST, "--weights", POWER, "--mc", "100", "100", "--seed", "1"),
         set()),
        (("kernel", "--spec", '{"massive_free_1d":{"m":1}}', "--at", "0.5"), {"kernels"}),
        (("product", "--spec", UNIFORM, "--tail", '{"constant_factor":{"f":0.5}}'),
         {"measure_core"}),
        (("consistency", "--marginals",
          '[{"indices":[1],"cells":[{"boxes":[[[0,"inf"]]],"p":1}]}]'), {"measure_core"}),
        (("bohr", "--freqs", "1,1.4142135623730951", "--integral", "cos:1,1"), {"bohr"}),
    ],
    ids=["shift-admissible", "hs-check", "equivalence", "support", "kernel", "product",
         "consistency", "bohr"],
)
def test_subcommand_loads_only_the_heavy_modules_it_runs(argv, loads):
    proc = _run(LOADED, *argv)
    assert proc.returncode == 0, proc.stderr
    code, modules = json.loads(proc.stdout)
    assert code == 0
    assert {m.removeprefix("cylmeasure.") for m in modules} & HEAVY == loads


EXPORTS = """
import json, sys
import cylmeasure
loaded = sorted(k for k in sys.modules if k.startswith("cylmeasure."))
star = {}
exec("from cylmeasure import *", star)
print(json.dumps({
    "loaded": loaded,
    "exports": len(cylmeasure.__all__),
    "missing": [n for n in cylmeasure.__all__ if not hasattr(cylmeasure, n)],
    "unlisted": sorted(set(cylmeasure.__all__) - set(dir(cylmeasure))),
    "not_starred": sorted(set(cylmeasure.__all__) - set(star)),
    "submodules": sorted({type(getattr(cylmeasure, m)).__name__ for m in (
        "bohr", "cli", "errors", "gaussian", "jsonio", "kernels", "measure_core", "seeding",
        "selftest", "sequences", "support", "transform")}),
}))
"""


def test_import_loads_no_submodule_and_every_export_resolves():
    proc = _run(EXPORTS)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["loaded"] == []
    assert report["exports"] > 0
    assert report["missing"] == report["unlisted"] == report["not_starred"] == []
    assert report["submodules"] == ["module"]


MARGINALS = '[{"indices":[1],"cells":[{"boxes":[[[0,"inf"]]],"p":1}]}]'
E1 = '{"entries":[[1,1.0]]}'

# the subcommands that build no array, each with its payload
SYMBOLIC = [
    (["shift-admissible", "--cov", CONST, "--shift", POWER], {"admissible": True}),
    (["hs-check", "--weights", POWER], {"hilbert_schmidt": True}),
    (["chi", "--cov", CONST, "--xi", E1], {"chi": math.exp(-0.5), "inner": 1.0}),
    (["moment", "--cov", CONST, "--vectors", f"[{E1},{E1}]"], {"moment": 1.0, "n_vectors": 2}),
    (["consistency", "--marginals", MARGINALS], {"consistent": True, "violation": None}),
    (["equivalence", "--cov-a", CONST, "--cov-b", '{"constant":{"rho":2}}'],
     {"ratio_inf": 2.0, "ratio_sup": 2.0, "reason": "sum (a_n - 1)^2 diverges",
      "series": "diverges", "verdict": "singular"}),
    (["rn-density", "--cov", CONST, "--shift", E1, "--x", "[0.5]"],
     {"density": 1.0, "truncation": 1}),
    (["support", "--cov", CONST, "--weights", POWER],
     {"report": {"partial_sums": None, "series": "converges", "verdict": "supported"}}),
    (["product", "--spec", UNIFORM, "--tail", '{"one_minus_geometric":{"c":1,"q":0.5}}'],
     {"converged": True, "n_factors": 40, "value": 0.2887880950868651, "verdict": "converged"}),
    (["product", "--spec", UNIFORM, "--tail", '{"tabulated":{"factors":[0.5,1,0.5]}}'],
     {"converged": True, "n_factors": 3, "value": 0.25, "verdict": "converged"}),
]
# every series verdict refuses a tabulated factor before any other work
TABLE = '{"tabulated":{"values":[1,0.5,0.25]}}'
REFUSED = [
    ["shift-admissible", "--cov", CONST, "--shift", TABLE],
    ["hs-check", "--weights", TABLE],
    ["support", "--cov", CONST, "--weights", TABLE],
    ["equivalence", "--cov-a", TABLE, "--cov-b", CONST],
]
ARRAY_PATHS = [
    ["sample", "--cov", CONST, "--n", "4", "--seed", "1"],
]

NUMPY_PROBE = """
import contextlib, io, json, sys
block = sys.argv[1] == "block"
if block:
    sys.modules["numpy"] = None
import cylmeasure.cli
report = [["import", None, None, "numpy" in sys.modules]]
for argv in json.loads(sys.argv[2]):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cylmeasure.cli.main(argv)
    payload = json.loads(buf.getvalue())["payload"] if code == 0 else None
    report.append([argv[0], code, payload, "numpy" in sys.modules])
print(json.dumps(report))
"""


def test_symbolic_subcommands_leave_numpy_unloaded():
    argvs = [argv for argv, _ in SYMBOLIC] + REFUSED + ARRAY_PATHS
    proc = _run(NUMPY_PROBE, "probe", json.dumps(argvs))
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report[0] == ["import", None, None, False]
    for (argv, payload), (name, code, got, loaded) in zip(SYMBOLIC, report[1:]):
        assert (name, code, got, loaded) == (argv[0], 0, payload, False)
    arrays = len(SYMBOLIC) + len(REFUSED) + 1
    assert report[len(SYMBOLIC) + 1 : arrays] == [[argv[0], 2, None, False] for argv in REFUSED]
    for argv, (name, code, _, loaded) in zip(ARRAY_PATHS, report[arrays:]):
        assert (name, code, loaded) == (argv[0], 0, True)


def test_symbolic_subcommands_run_with_numpy_blocked():
    proc = _run(NUMPY_PROBE, "block", json.dumps([argv for argv, _ in SYMBOLIC]))
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert [row[:3] for row in report[1:]] == [
        [argv[0], 0, payload] for argv, payload in SYMBOLIC
    ]


# one document of every SCHEMA kind
KIND_DOCS = {
    "decay": {"prefixed": {"prefix": [2.0], "tail": {"power": {"c": 1, "p": 2}}}},
    "component": {"gaussian": {"rho": 1}},
    "measure_rule": {"indexed": {"map": {"2": {"point_mass": {"c": 0}}},
                                 "default": {"uniform": {"a": 0, "b": 1}}}},
    "cylinder": {"base": [{"index": 1, "boxes": [[0, 0.5]]}]},
    "finite_sequence": {"entries": [[1, 1.0]]},
    "kernel": {"white_noise": {"sigma": 1}},
    "grid_function": {"x0": 0, "dx": 0.5, "count": 2, "values": [1, 2]},
    "tail_rule": {"one_minus_geometric": {"c": 1, "q": 0.5}},
    "marginal_tables": json.loads(MARGINALS),
    "numbers": [1.0, -2.5],
    "shift": {"power": {"c": 1, "p": 1}},
}

MODELS = ["kernels", "measure_core", "sequences", "transform"]

SCHEMA_PROBE = """
import copy, json, sys
from cylmeasure import jsonio

def loaded():
    return sorted(k.removeprefix("cylmeasure.") for k in sys.modules
                  if k == "numpy" or k.startswith("cylmeasure."))

report = {"after_import": loaded()}
before = copy.deepcopy(jsonio.SCHEMA)
docs = json.loads(sys.argv[1])
report["kinds"] = sorted(docs) == sorted(jsonio.SCHEMA)
report["decoded"] = [type(jsonio.decode(kind, doc, kind)).__name__ for kind, doc in docs.items()]
report["unchanged"] = jsonio.SCHEMA == before
report["compiled"] = all(callable(jsonio._compile(shape)) for shape in jsonio.SCHEMA.values())
print(json.dumps(report))
"""


def test_schema_is_fixed_and_names_resolve_on_first_read():
    proc = _run(SCHEMA_PROBE, json.dumps(KIND_DOCS))
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    # importing jsonio loads no model module and no numpy
    assert not set(report["after_import"]) & {*MODELS, "numpy"}
    assert report["kinds"]
    assert report["decoded"] == [
        "Prefixed", "Gaussian1D", "ProductMeasureSpec", "CylinderSet", "FiniteSequence",
        "WhiteNoise", "GridFunction", "OneMinusGeometricTail", "tuple", "tuple", "PowerDecay",
    ]
    # reading every kind leaves SCHEMA as it was at import
    assert report["unchanged"]
    # compiling a kind looks up each constructor it names, so a misspelled
    # name would fail here rather than at that kind's first read
    assert report["compiled"]
