"""A CLI call loads only what its subcommand runs, and never scipy.

Importing ``scipy.integrate`` takes about half a second, more than every
other import of a CLI call together, and scipy is only a test dependency.
A fresh interpreter checks that ``import cylmeasure``, a symbolic
subcommand, ``kernel --fourier`` and the quick selftest leave scipy
unloaded, and a second one runs the numeric paths with scipy blocked.

numpy takes about 0.1 s to import and the symbolic subcommands build no
array (``equivalence``, one-point ``rn-density``, closed-form ``support``,
a ``product`` of a cylinder or with a full, constant, geometric or
tabulated tail, and ``kernel --at`` and ``--regularity`` on a closed-form
kernel included).  A fresh interpreter checks that ``import
cylmeasure.cli``, those subcommands and their refusals of a tabulated
series leave numpy unloaded and that an array path (``sample``) loads it,
and a second one runs the symbolic subcommands with numpy blocked.  Every module reads numpy through the
package's lazy handle ``_np``, and a static check finds no other
``import numpy`` in the package.

A call that does build arrays loads numpy's core and nothing more:
beyond the modules of a bare ``import numpy``, each numpy mode (``sample``,
``moment --mc-samples``, ``support --mc`` with a plateau and with a slope,
``kernel --fourier``, ``--bilinear`` and ``--at`` on a table, the four
``bohr`` modes and the quick selftest) adds none, or only
``numpy.random`` when it draws.  ``np.unique`` would add ``numpy.ma`` and
``leggauss`` ``numpy.polynomial``, so the package uses neither.

The package's own modules come next: ``import cylmeasure`` loads none of
them, ``import cylmeasure.cli`` loads ``cli``, ``errors``, ``jsonio`` and
the record base ``_record``,
and each of the twelve payload subcommands adds exactly the model modules
its payload builder calls (``sequences`` and ``transform`` for a shift or
equivalence question, ``gaussian`` for a moment, and so on).  Each call
gets its own fresh interpreter, since loaded modules accumulate.

``dataclasses`` takes about 4 ms to import, most of it ``inspect``, and
the package's records derive from ``_record.Record`` instead.  A fresh
interpreter checks that ``import cylmeasure.cli`` and the symbolic
subcommands leave both unloaded, and a static check finds no
module-level ``import dataclasses`` in the package.

A series verdict on its convergence boundary is decided in integers on
the printed decimals, so no call loads ``decimal`` (about 2.5 ms with its C
module): a static check finds no ``import decimal`` in the package, and a
fresh interpreter runs one boundary call and checks that ``decimal`` stays
unloaded.

``jsonio.SCHEMA`` names its constructors, and a kind's first read loads
the module behind them: ``import cylmeasure.jsonio`` loads no model module
and no numpy, every name resolves, and reading leaves ``SCHEMA`` unchanged.
"""

import ast
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
code, buf = None, io.StringIO()
if len(sys.argv) > 1:  # with no argv, the modules of the import alone
    with contextlib.redirect_stdout(buf):
        code = cylmeasure.cli.main(sys.argv[1:])
print(json.dumps([
    code,
    sorted(k for k in sys.modules if k.startswith("cylmeasure.")),
    sorted(k for k in sys.modules if k == "numpy" or k.startswith("numpy.")),
    buf.getvalue(),
]))
"""

CLI = {"_record", "cli", "errors", "jsonio"}
CONST = '{"constant":{"rho":1}}'
POWER = '{"power":{"c":1,"p":1}}'
UNIFORM = '{"identical":{"uniform":{"a":0,"b":1}}}'
MARGINALS = '[{"indices":[1],"cells":[{"boxes":[[[0,"inf"]]],"p":1}]}]'
E1 = '{"entries":[[1,1.0]]}'
MASSIVE = '{"massive_free_1d":{"m":1}}'
SHIFTS = {"sequences", "transform"}
SUPPORT = {"sequences", "support"}
GAUSSIAN = {"gaussian", "sequences"}

# (id, argv, the modules the call adds to those of `import cylmeasure.cli`)
MODULE_SETS = [
    ("import", (), set()),
    ("sample", ("sample", "--cov", CONST, "--n", "4", "--seed", "1"), GAUSSIAN),
    ("chi", ("chi", "--cov", CONST, "--xi", E1), GAUSSIAN),
    ("moment", ("moment", "--cov", CONST, "--vectors", "e1,e1"), GAUSSIAN),
    ("moment-mc", ("moment", "--cov", CONST, "--vectors", "e1,e1", "--mc-samples", "10",
                   "--seed", "1"), GAUSSIAN),
    ("rn-density", ("rn-density", "--cov", CONST, "--shift", E1, "--x", "[0.5]"), SHIFTS),
    ("shift-admissible", ("shift-admissible", "--cov", CONST, "--shift", POWER), SHIFTS),
    ("equivalence", ("equivalence", "--cov-a", CONST, "--cov-b", '{"constant":{"rho":2}}'),
     SHIFTS),
    ("hs-check", ("hs-check", "--weights", POWER), SUPPORT),
    ("support", ("support", "--cov", CONST, "--weights", POWER), SUPPORT),
    # the tail-growth oracle takes its standard error from gaussian.mc_mean
    ("support-mc", ("support", "--cov", CONST, "--weights", POWER, "--mc", "100", "100",
                    "--seed", "1"), SUPPORT | {"gaussian"}),
    ("kernel-at", ("kernel", "--spec", MASSIVE, "--at", "0.5"), {"kernels"}),
    ("kernel-regularity", ("kernel", "--spec", MASSIVE, "--regularity"), {"kernels"}),
    ("kernel-fourier", ("kernel", "--fourier", "1", "0.5"), {"kernels"}),
    # the quadrature sums its grid in pieces, as numpy's pairwise sum of one vector
    ("bohr", ("bohr", "--freqs", "1,1.4142135623730951", "--integral", "cos:1,1"),
     {"bohr", "_pairwise"}),
    ("product", ("product", "--spec", UNIFORM, "--tail", '{"constant_factor":{"f":0.5}}'),
     {"measure_core"}),
    ("consistency", ("consistency", "--marginals", MARGINALS), {"measure_core"}),
]


@pytest.mark.parametrize("argv, loads", [case[1:] for case in MODULE_SETS],
                         ids=[case[0] for case in MODULE_SETS])
def test_subcommand_loads_only_the_modules_it_runs(argv, loads):
    proc = _run(LOADED, *argv)
    assert proc.returncode == 0, proc.stderr
    code, modules, _, _ = json.loads(proc.stdout)
    assert code == (0 if argv else None)
    assert {m.removeprefix("cylmeasure.") for m in modules} == CLI | loads


BARE_NUMPY = """
import json, sys
import numpy
print(json.dumps(sorted(k for k in sys.modules if k == "numpy" or k.startswith("numpy."))))
"""

TABLE_KERNEL = '{"tabulated":{"grid":[-1,0,1],"values":[0,1,0]}}'
BUMP = '{"x0":-1,"dx":0.5,"count":5,"values":[0,1,1,1,0]}'
FREQS = ("bohr", "--freqs", "1.0,1.4142135623730951")

# (id, argv, whether the mode draws): every mode that builds an array
NUMPY_MODES = [
    ("sample", ("sample", "--cov", CONST, "--n", "4", "--seed", "1"), True),
    ("moment-mc", ("moment", "--cov", CONST, "--vectors", "e1,e1", "--mc-samples", "10",
                   "--seed", "1"), True),
    ("support-mc-plateau", ("support", "--cov", CONST, "--weights", POWER, "--mc", "1000",
                            "100", "--seed", "1"), True),
    # a slope runs np.polyfit on the second half of the checkpoints
    ("support-mc-slope", ("support", "--cov", CONST, "--weights", CONST, "--mc", "1000",
                          "100", "--seed", "1"), True),
    ("kernel-fourier", ("kernel", "--fourier", "1", "0.5"), False),
    ("kernel-bilinear", ("kernel", "--spec", MASSIVE, "--bilinear", BUMP, BUMP), False),
    ("kernel-at-tabulated", ("kernel", "--spec", TABLE_KERNEL, "--at", "0.5"), False),
    ("bohr-check-independence", (*FREQS, "--check-independence", "10"), False),
    ("bohr-sample", (*FREQS, "--sample", "--seed", "1"), True),
    ("bohr-integral", (*FREQS, "--integral", "cos:1,1"), False),
    ("bohr-mc", (*FREQS, "--integral", "cos:1,1", "--mc", "100", "--seed", "1"), True),
    ("selftest-quick", ("selftest", "--level", "quick"), True),
]


@pytest.fixture(scope="module")
def bare_numpy():
    proc = _run(BARE_NUMPY)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout))


@pytest.mark.parametrize("name, argv, draws", NUMPY_MODES, ids=[case[0] for case in NUMPY_MODES])
def test_numpy_mode_loads_only_numpys_core(bare_numpy, name, argv, draws):
    # beyond a bare `import numpy`, a mode loads nothing, or numpy.random
    # when it draws; np.unique would add numpy.ma and leggauss
    # numpy.polynomial
    proc = _run(LOADED, *argv)
    assert proc.returncode == 0, proc.stderr
    code, _, numpy_modules, out = json.loads(proc.stdout)
    assert code == 0, out
    extra = set(numpy_modules) - bare_numpy
    assert {m for m in extra if not m.startswith("numpy.random")} == set()
    assert ("numpy.random" in extra) is draws
    if name.startswith("support-mc-"):
        assert json.loads(out)["payload"]["mc"]["kind"] == name.removeprefix("support-mc-")


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
    (["kernel", "--spec", MASSIVE, "--at", "0.5"], {"value": math.exp(-0.5) / 2.0, "x": 0.5}),
    (["kernel", "--spec", '{"white_noise":{"sigma":1}}', "--regularity"],
     {"regularity": "nowhere-signed-measure"}),
    (["support", "--cov", CONST, "--weights", POWER],
     {"report": {"partial_sums": None, "series": "converges", "verdict": "supported"}}),
    (["product", "--spec", UNIFORM, "--cylinder", '{"base":[{"index":1,"boxes":[[0.0,0.5]]}]}'],
     {"probability": 0.5}),
    (["product", "--spec", UNIFORM, "--tail", '{"full":{}}'],
     {"converged": True, "n_factors": 0, "value": 1.0, "verdict": "converged"}),
    (["product", "--spec", UNIFORM, "--tail", '{"constant_factor":{"f":0.5}}'],
     {"converged": True, "n_factors": 0, "value": 0.0, "verdict": "converged"}),
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


STDLIB_PROBE = """
import contextlib, io, json, sys
import cylmeasure.cli

def loaded():
    return sorted({"dataclasses", "inspect"} & set(sys.modules))

report = [[None, loaded()]]
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        report.append([cylmeasure.cli.main(argv), loaded()])
print(json.dumps(report))
"""


def test_symbolic_subcommands_leave_dataclasses_and_inspect_unloaded():
    # one interpreter for every call: a module loaded by one call stays in
    # sys.modules, so the first call that loads it shows in its row
    proc = _run(STDLIB_PROBE, json.dumps([argv for argv, _ in SYMBOLIC] + REFUSED))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == (
        [[None, []]] + [[0, []]] * len(SYMBOLIC) + [[2, []]] * len(REFUSED)
    )


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


def _imports_of(modules):
    """(file, line) of each absolute import in the package, at any depth, of
    one of ``modules`` or of a submodule of one."""
    imports = []
    for path in sorted((SRC / "cylmeasure").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            if any(name.split(".")[0] in modules for name in names):
                imports.append((path.name, node.lineno))
    return imports


def test_numpy_is_imported_only_by_the_package_handle():
    # every module reads numpy through `from . import _np as np`, so no
    # function can load numpy on a path of its own
    imports = _imports_of({"numpy"})
    assert {name for name, _ in imports} == {"__init__.py"}, imports


def test_only_errors_refuses_a_non_finite_input():
    # a real parameter goes through errors.require_real: no other module raises
    # an input refusal (InputError, jsonio's _Fault or an argparse type error)
    # under a condition that calls isfinite, so a hand-written finiteness check
    # cannot grow back (NumericError on a computed result stays)
    refusals = ("InputError", "_Fault", "ArgumentTypeError")
    checks = []
    for path in sorted((SRC / "cylmeasure").glob("*.py")):
        if path.name == "errors.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, (ast.If, ast.While)):
                continue
            tests_finite = any(isinstance(call, ast.Call)
                               and getattr(call.func, "attr", getattr(call.func, "id", None))
                               == "isfinite" for call in ast.walk(node.test))
            raises_input = any(isinstance(raised, ast.Raise) and raised.exc is not None
                               and any(name in ast.unparse(raised.exc) for name in refusals)
                               for stmt in node.body for raised in ast.walk(stmt))
            if tests_finite and raises_input:
                checks.append((path.name, node.lineno))
    assert checks == []


def _import_time_nodes(node):
    """The nodes that run when the module is imported: all but function bodies."""
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            yield child
            yield from _import_time_nodes(child)


def test_no_module_imports_dataclasses_at_import_time():
    # the record base loads dataclasses only inside the functions that need
    # it: raising FrozenInstanceError and answering dataclasses.fields
    imports = []
    paths = sorted((SRC / "cylmeasure").glob("*.py"))
    assert paths
    for path in paths:
        for node in _import_time_nodes(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            if "dataclasses" in names:
                imports.append((path.name, node.lineno))
    assert imports == []


def test_no_module_imports_decimal():
    assert _imports_of({"decimal", "_decimal"}) == []


DECIMAL_PROBE = """
import contextlib, io, json, sys
import cylmeasure.cli
buf = io.StringIO()
with contextlib.redirect_stdout(buf):
    code = cylmeasure.cli.main(sys.argv[1:])
print(json.dumps([code, buf.getvalue(), sorted({"decimal", "_decimal"} & set(sys.modules))]))
"""


def test_boundary_verdict_leaves_decimal_unloaded():
    # 2 * 1.07 - 1.14 is 1 in decimals: sum 1/n, decided by the exact test
    proc = _run(DECIMAL_PROBE, "shift-admissible", "--cov", '{"power":{"c":1,"p":1.14}}',
                "--shift", '{"power":{"c":1,"p":1.07}}')
    assert proc.returncode == 0, proc.stderr
    code, out, loaded = json.loads(proc.stdout)
    assert code == 0
    assert json.loads(out)["payload"] == {"admissible": False}
    assert loaded == []
