"""One rule for every index and count: ``errors.require_count`` and
``errors.require_indices``; one for every size budget: ``errors.require_budget``;
one for every real parameter: ``errors.require_real``; one for every seed:
``errors.require_seed``; and the public calls that route through them."""

import ast
import importlib
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import cylmeasure as cm
from cylmeasure import cli, jsonio
from cylmeasure.errors import (
    InputError, require_budget, require_count, require_indices, require_real, require_seed,
)
from cylmeasure.measure_core import Interval, normalize_box
from cylmeasure.sequences import FiniteSequence, summable


def re_repr(value):
    return re.escape(repr(value))


class TestRequireCount:
    @pytest.mark.parametrize("value", [0, 3, 10**30])
    def test_accepts_an_int_at_least_its_minimum(self, value):
        require_count(value, "n")

    @pytest.mark.parametrize("value", [True, False, 2.0, 2.5, np.int64(2), "2", None])
    def test_refuses_what_is_not_an_int(self, value):
        with pytest.raises(InputError, match=rf"^n must be an integer, got {re_repr(value)}$"):
            require_count(value, "n", 1)

    def test_refuses_a_value_below_its_minimum(self):
        require_count(2, "n_samples", 2)
        with pytest.raises(InputError, match=r"^n_samples must be >= 2, got 1$"):
            require_count(1, "n_samples", 2)
        with pytest.raises(InputError, match=r"^n_max must be >= 0, got -3$"):
            require_count(-3, "n_max")


class TestRequireIndices:
    def test_accepts_distinct_naturals(self):
        require_indices((), "index")
        require_indices([3, 1, 2], "index")

    @pytest.mark.parametrize("index", [0, -3, True, 1.0, np.int64(1), "1"])
    def test_refuses_what_is_not_a_natural(self, index):
        with pytest.raises(
            InputError, match=rf"^cylinder index must be a natural >= 1, got {re_repr(index)}$"
        ):
            require_indices([2, index], "cylinder index")

    def test_refuses_a_repeated_index(self):
        with pytest.raises(InputError, match=r"^duplicate override index 2$"):
            require_indices([2, 1, 2], "override index")


_BOX = normalize_box((Interval(0.0, 1.0),))


# each index was accepted before the rule held everywhere
@pytest.mark.parametrize("call, message", [
    (lambda: FiniteSequence(((True, 2.0),)), "sequence index must be a natural >= 1, got True"),
    (lambda: cm.CylinderSet(((True, (Interval(0, 1),)),)),
     "cylinder index must be a natural >= 1, got True"),
    (lambda: cm.ProductMeasureSpec(cm.Gaussian1D(1.0), ((True, cm.Uniform1D(0, 1)),)),
     "override index must be a natural >= 1, got True"),
    (lambda: cm.MarginalTable((0,), ()), "marginal table index must be a natural >= 1, got 0"),
    (lambda: cm.MarginalTable((-3, True), (((_BOX, _BOX), 1.0),)),
     "marginal table index must be a natural >= 1, got -3"),
    (lambda: cm.MarginalTable((np.int64(1),), (((_BOX,), 1.0),)),
     f"marginal table index must be a natural >= 1, got {np.int64(1)!r}"),
    (lambda: cm.MarginalTable((), ()), "marginal table needs at least one index"),
], ids=["finite-sequence-bool", "cylinder-bool", "override-bool", "marginal-zero",
        "marginal-negative", "marginal-numpy", "marginal-empty"])
def test_public_indices_follow_one_rule(call, message):
    with pytest.raises(InputError) as info:
        call()
    assert str(info.value) == message


# Python refuses to print an int of more than 4,300 digits: each rule shows one
# of 31 digits or more as a power of ten, as require_budget always did, and
# cuts any other value's text to 60 characters
@pytest.mark.parametrize("call, message", [
    (lambda: require_count(-10**5000, "n"), "n must be >= 0, got about -10^5000"),
    (lambda: require_indices([2, -10**5000], "index"),
     "index must be a natural >= 1, got about -10^5000"),
    (lambda: require_real(10**5000, "x"), "x must be a finite number, got about 10^5000"),
    (lambda: cm.Constant(10**5000),
     "constant class value must be a finite number, got about 10^5000"),
    (lambda: require_seed(10**5000), "seed must be < 2^64, got about 10^5000"),
    (lambda: require_count(-10**30, "n"), "n must be >= 0, got about -10^30"),
    (lambda: require_count(1 - 10**30, "n"),
     "n must be >= 0, got -999999999999999999999999999999"),
    # a JSON array where a number belongs printed its whole text
    (lambda: jsonio.decode_decay({"constant": {"rho": list(range(10**4))}}),
     "cov.constant.rho: value must be a finite number, got "
     "[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16..."),
    (lambda: require_count("x" * 100, "n"), f"n must be an integer, got '{'x' * 56}..."),
], ids=["count", "indices", "real", "constant", "seed", "count-31-digits", "count-30-digits",
        "json-array", "long-string"])
def test_a_value_too_long_to_print_is_shown_short(call, message):
    with pytest.raises(InputError) as info:
        call()
    assert str(info.value) == message


class TestRequireBudget:
    def test_accepts_a_cost_up_to_its_budget(self):
        require_budget(0, 0, "n")
        require_budget(20, 20, "factor count")

    def test_refuses_a_cost_past_its_budget(self):
        with pytest.raises(InputError, match=r"^factor count 21 exceeds the budget of 20$"):
            require_budget(21, 20, "factor count")

    def test_shows_a_cost_too_long_to_print_as_a_power_of_ten(self):
        # str() refuses an int of more than 4,300 digits
        require_budget(10**29, 10**29, "n")
        with pytest.raises(InputError, match=r"^n 100000000000000000000000000001 exceeds "):
            require_budget(10**29 + 1, 10**29, "n")
        with pytest.raises(InputError, match=r"^n about 10\^6000 exceeds the budget of 8$"):
            require_budget(10**6000, 8, "n")


def _moment_envelope(n_samples):
    argv = ["moment", "--cov", '{"constant":{"rho":1}}', "--vectors", "[]",
            "--mc-samples", str(n_samples), "--seed", "1"]
    return cli.build_envelope(cli._build_parser().parse_args(argv))


_FIVE = cm.FrequencySet((1.0, 2.0**0.5, 3.0**0.5, 5.0**0.5, 7.0**0.5))
# 3163^2 = 10,004,569 matrix entries, the least grid count past the budget
_WIDE = cm.GridFunction(0.0, 1.0, 3163, (1.0,) * 3163)


# each size budget one past its limit: the next even label count, the next odd
# search width, the next even count of quadrature nodes
@pytest.mark.parametrize("call, message", [
    (lambda: cm.sample(cm.Constant(1.0), 10**6 + 1, 1),
     "truncation 1000001 exceeds the budget of 1000000"),
    (lambda: cm.pairings(22), "label count 22 exceeds the budget of 20"),
    (lambda: cm.wick_moment(cm.Constant(1.0), [FiniteSequence.basis(1)] * 21),
     "factor count 21 exceeds the budget of 20"),
    (lambda: cm.positive_type_gram(lambda xi: 1.0,
                                   [FiniteSequence.basis(i) for i in range(1, 66)]),
     "point count 65 exceeds the budget of 64"),
    (lambda: cm.mc_tail_growth(cm.Constant(1.0), cm.Constant(1.0), 1001, 999001, 1),
     "coordinates x samples 1000000001 exceeds the budget of 1000000000"),
    (lambda: cm.independence_check(cm.FrequencySet((1.0,)), 5 * 10**7),
     "search space 100000001 exceeds the budget of 100000000"),
    (lambda: cm.haar_sample_batch(cm.FrequencySet((1.0,)), 10**7 + 1, 1),
     "samples x phases 10000001 exceeds the budget of 10000000"),
    (lambda: cm.QuadratureMethod(2).integrate(_FIVE, lambda th: np.ones(len(th))),
     "quadrature axes 5 exceeds the budget of 4"),
    (lambda: cm.QuadratureMethod(2**20 + 1).integrate(cm.FrequencySet((1.0,)),
                                                      lambda th: np.ones(len(th))),
     "quadrature nodes 2097154 exceeds the budget of 2097152"),
    (lambda: _moment_envelope(10**7 + 1),
     "samples x (coordinates + factors) 10000001 exceeds the budget of 10000000"),
    (lambda: summable(((0.30000000000000004, 0.0, 1.0), 667), ((0.09000000000000001, 0.0, 1.0), -334)),
     "total power 1001 exceeds the budget of 1000"),
    (lambda: cm.covariance_bilinear(cm.TabulatedKernel((-4e3, 4e3), (1.0, 1.0)), _WIDE, _WIDE),
     "kernel matrix entries 10004569 exceeds the budget of 10000000"),
], ids=["sample", "pairings", "wick-moment", "gram-points", "tail-growth", "search-space",
        "haar-samples", "quadrature-axes", "quadrature-nodes", "cli-moment-mc", "total-power",
        "tabulated-kernel-matrix"])
def test_each_budget_is_refused_one_past_its_limit_before_any_allocation(call, message):
    with pytest.raises(InputError):  # loads the modules the call imports on first use
        call()
    tracemalloc.start()
    try:
        with pytest.raises(InputError) as info:
            call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(info.value) == message
    assert peak < 2**15  # what each refuses is 68 kB (the Gram matrix) or more


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_budgets():
    """module.NAME -> (value, exit code) of each row of README's budget table."""
    text = README.read_text(encoding="utf-8").split("## Known limits", 1)[1]
    rows = re.findall(r"^\| `(\w+\.\w+)` \|.*\| (\d+)(?:\^(\d+))? \| (\d) \|$", text, re.M)
    return {name: (int(base) ** int(power or 1), int(code)) for name, base, power, code in rows}


def package_budgets():
    """module.NAME -> exit code of every budget constant in the package: each one a
    size check passes to ``require_budget`` exits 2, any other public constant
    named MAX_*, *_BUDGET or *_CAP (``kernels.MAX_FOURIER_NODES``) exits 3."""
    named, checked = set(), set()
    for path in Path(cm.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        targets = [getattr(target, "id", "") for node in tree.body
                   if isinstance(node, ast.Assign) for target in node.targets]
        named |= {f"{path.stem}.{name}" for name in targets
                  if re.fullmatch(r"MAX_\w+|[A-Z]\w*_(BUDGET|CAP)", name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "require_budget":
                budget = node.args[1]  # a module constant, or one read as _lib.module.NAME
                checked.add(f"{path.stem}.{budget.id}" if isinstance(budget, ast.Name)
                            else f"{budget.value.attr}.{budget.attr}")
    return {name: 2 if name in checked else 3 for name in named | checked}


def test_readme_budget_table_matches_the_package():
    table = readme_budgets()
    assert {name: code for name, (_, code) in table.items()} == package_budgets()
    assert len(table) == 12
    for name, (value, _) in table.items():
        module, constant = name.split(".")
        assert getattr(importlib.import_module(f"cylmeasure.{module}"), constant) == value, name


class TestRequireReal:
    @pytest.mark.parametrize("value, domain", [
        (-1e308, None), (0, None), (2.5, "> 0"), (np.float64(1.0), "> 0"), (0.0, ">= 0"),
        (-0.0, ">= 0"), (5e-324, "(0, 1)"), (math.nextafter(1.0, 0.0), "(0, 1)"),
        (0, "[0, 1]"), (1, "[0, 1]"), (10**300, "> 0"),
    ])
    def test_accepts_a_finite_int_or_float_inside_its_domain(self, value, domain):
        require_real(value, "x", domain)

    @pytest.mark.parametrize("value", [
        math.nan, math.inf, -math.inf, True, False, "1", None, 1j, np.int64(1), 10**400,
    ])
    def test_refuses_what_is_not_a_finite_number(self, value):
        with pytest.raises(InputError) as info:
            require_real(value, "x", "> 0")
        shown = "about 10^400" if value == 10**400 else repr(value)  # too long to show
        assert str(info.value) == f"x must be a finite number, got {shown}"

    @pytest.mark.parametrize("value, domain, message", [
        (0.0, "> 0", "x must be > 0, got 0.0"),
        (-5e-324, ">= 0", "x must be >= 0, got -5e-324"),
        (1.0, "(0, 1)", "x must lie in (0, 1), got 1.0"),
        (0, "(0, 1)", "x must lie in (0, 1), got 0"),
        (math.nextafter(1.0, 2.0), "[0, 1]", "x must lie in [0, 1], got 1.0000000000000002"),
        (-1, "[0, 1]", "x must lie in [0, 1], got -1"),
    ])
    def test_refuses_a_value_outside_its_domain(self, value, domain, message):
        with pytest.raises(InputError) as info:
            require_real(value, "x", domain)
        assert str(info.value) == message


_E1 = FiniteSequence.basis(1)
_TAIL = cm.TailConstraints()
_SPEC = cm.ProductMeasureSpec.identical(cm.Uniform1D(0.0, 1.0))
# name -> (a call of one real parameter, what its refusal names, its domain)
_REALS = {
    "finite-sequence": (lambda v: FiniteSequence(((1, v),)), "sequence value at index 1", None),
    "from-pairs": (lambda v: FiniteSequence.from_pairs([(2, 1.0), (1, v)]),
                   "sequence value at index 1", None),
    "constant": (lambda v: cm.Constant(v), "constant class value", None),
    "power-c": (lambda v: cm.PowerDecay(v, 1.0), "power class c", None),
    "power-p": (lambda v: cm.PowerDecay(1.0, v), "power class p", "> 0"),
    "geometric-c": (lambda v: cm.Geometric(v, 0.5), "geometric class c", None),
    "geometric-q": (lambda v: cm.Geometric(1.0, v), "geometric class q", "(0, 1)"),
    "cpp-base": (lambda v: cm.ConstantPlusPower(v, 1.0, 1.0),
                 "constant-plus-power class base", None),
    "cpp-c": (lambda v: cm.ConstantPlusPower(1.0, v, 1.0), "constant-plus-power class c", None),
    "cpp-p": (lambda v: cm.ConstantPlusPower(1.0, 1.0, v), "constant-plus-power class p", "> 0"),
    "prefixed": (lambda v: cm.Prefixed((1.0, v), cm.Constant(1.0)),
                 "prefixed class value at index 2", None),
    "tabulated": (lambda v: cm.Tabulated((1.0, v)), "tabulated class value at index 2", None),
    "gaussian-1d": (lambda v: cm.Gaussian1D(v), "gaussian component rho", "> 0"),
    "uniform-a": (lambda v: cm.Uniform1D(v, 1.0), "uniform component a", None),
    "uniform-b": (lambda v: cm.Uniform1D(0.0, v), "uniform component b", None),
    "point-mass": (lambda v: cm.PointMass1D(v), "point mass component c", None),
    "constant-factor": (lambda v: cm.ConstantFactorTail(v), "factor probability", "[0, 1]"),
    "geometric-tail-c": (lambda v: cm.OneMinusGeometricTail(v, 0.5), "geometric tail c", ">= 0"),
    "geometric-tail-q": (lambda v: cm.OneMinusGeometricTail(0.5, v), "geometric tail q", "(0, 1)"),
    "tabulated-tail": (lambda v: cm.TabulatedTail((0.5, v)), "tabulated factor 2", "[0, 1]"),
    "marginal-cell": (lambda v: cm.MarginalTable((1,), (((_BOX,), v),)),
                      "cell 0 probability", "[0, 1]"),
    "product-tol": (lambda v: cm.countable_product_measure(_SPEC, _TAIL, tol=v),
                    "tolerance", "> 0"),
    "consistency-tol": (lambda v: cm.consistency_check([cm.MarginalTable((1,), ())], tol=v),
                        "tolerance", "> 0"),
    "white-noise": (lambda v: cm.WhiteNoise(v), "white noise sigma", "> 0"),
    "massive-free": (lambda v: cm.MassiveFree1D(v), "massive free kernel m", "> 0"),
    "kernel-grid": (lambda v: cm.TabulatedKernel((0.0, v), (1.0, 1.0)),
                    "tabulated kernel grid point 1", None),
    "kernel-value": (lambda v: cm.TabulatedKernel((0.0, 1.0), (1.0, v)),
                     "tabulated kernel value 1", None),
    "grid-x0": (lambda v: cm.GridFunction(v, 0.1, 2, (1.0, 1.0)), "grid x0", None),
    "grid-dx": (lambda v: cm.GridFunction(0.0, v, 2, (1.0, 1.0)), "grid dx", "> 0"),
    "grid-value": (lambda v: cm.GridFunction(0.0, 0.1, 2, (1.0, v)), "grid value 1", None),
    "fourier-m": (lambda v: cm.kernel_fourier_quadrature(v, 0.5), "m", "> 0"),
    "fourier-x": (lambda v: cm.kernel_fourier_quadrature(1.0, v), "x", None),
    "fourier-cutoff": (lambda v: cm.kernel_fourier_quadrature(1.0, 0.5, p_cutoff=v),
                       "cutoff", "> 0"),
    "fourier-tol": (lambda v: cm.kernel_fourier_quadrature(1.0, 0.5, tol=v), "tolerance", "> 0"),
    "frequency": (lambda v: cm.FrequencySet((1.0, v)), "frequency 1", None),
    "gram-tol": (lambda v: cm.positive_type_gram(lambda xi: 1.0, [_E1], tol=v),
                 "tolerance", ">= 0"),
}
# the float just outside each domain, and how a refusal words it
_OUTSIDE = {"> 0": (0.0, "be > 0"), ">= 0": (-5e-324, "be >= 0"), "(0, 1)": (1.0, "lie in (0, 1)"),
            "[0, 1]": (math.nextafter(1.0, 2.0), "lie in [0, 1]")}


@pytest.mark.parametrize("name", sorted(_REALS))
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, True, "1", None])
def test_every_real_parameter_refuses_what_is_not_a_finite_number(name, value):
    call, what, _ = _REALS[name]
    with pytest.raises(InputError) as info:
        call(value)
    assert str(info.value) == f"{what} must be a finite number, got {value!r}"


@pytest.mark.parametrize("name", sorted(k for k, (_, _, domain) in _REALS.items() if domain))
def test_every_real_parameter_refuses_a_value_just_outside_its_domain(name):
    call, what, domain = _REALS[name]
    value, rule = _OUTSIDE[domain]
    with pytest.raises(InputError) as info:
        call(value)
    assert str(info.value) == f"{what} must {rule}, got {value}"


_LEFT = normalize_box((Interval(-math.inf, 0.0),))
_RIGHT = normalize_box((Interval(0.0, math.inf),))


# each ran, or failed outside InputError, before every real parameter went through one rule
@pytest.mark.parametrize("call, message", [
    # a NaN cell made every comparison false, so the check called the family consistent
    (lambda: cm.consistency_check([
        cm.MarginalTable((1,), (((_LEFT,), math.nan), ((_RIGHT,), 0.5))),
        cm.MarginalTable((1, 2), tuple(((a, b), 0.25) for a in (_LEFT, _RIGHT)
                                       for b in (_LEFT, _RIGHT)))]),
     "cell 0 probability must be a finite number, got nan"),
    # a NaN tolerance called every matrix not PSD, an infinite one every matrix PSD
    (lambda: cm.positive_type_gram(lambda xi: 1.0, [_E1], tol=math.nan),
     "tolerance must be a finite number, got nan"),
    (lambda: cm.positive_type_gram(lambda xi: 1.0, [_E1], tol=math.inf),
     "tolerance must be a finite number, got inf"),
    (lambda: cm.TabulatedKernel((0.0, 1.0), (1.0, math.inf)),
     "tabulated kernel value 1 must be a finite number, got inf"),
    (lambda: cm.GridFunction(math.inf, 0.1, 2, (1.0, 1.0)),
     "grid x0 must be a finite number, got inf"),
    (lambda: cm.PowerDecay("1", 1.0), "power class c must be a finite number, got '1'"),
    (lambda: cm.Gaussian1D("1"), "gaussian component rho must be a finite number, got '1'"),
    (lambda: cm.Constant(True), "constant class value must be a finite number, got True"),
    (lambda: cm.countable_product_measure(_SPEC, _TAIL, tol=True),
     "tolerance must be a finite number, got True"),
    # scale(True) returned the sequence, scale("2") failed with a TypeError
    (lambda: _E1.scale(True), "scale factor must be a finite number, got True"),
    (lambda: _E1.scale("2"), "scale factor must be a finite number, got '2'"),
    # at(nan) returned nan, at(True) answered for x = 1
    (lambda: cm.MassiveFree1D(1.0).at(math.nan), "x must be a finite number, got nan"),
    (lambda: cm.MassiveFree1D(1.0).at(True), "x must be a finite number, got True"),
    (lambda: cm.TabulatedKernel((0.0, 2.0), (1.0, 0.5)).at(True),
     "x must be a finite number, got True"),
    (lambda: cm.TabulatedKernel((0.0, 2.0), (1.0, 0.5)).at(math.nan),
     "x must be a finite number, got nan"),
    # a NaN coordinate of one point gave a NaN density
    (lambda: cm.rn_density([math.nan], _E1, cm.Constant(1.0)),
     "x coordinate 1 must be a finite number, got nan"),
    (lambda: cm.rn_density([0.5, "1"], _E1, cm.Constant(1.0)),
     "x coordinate 2 must be a finite number, got '1'"),
    # True was read as 1.0, "a" failed with a ValueError and None with a TypeError
    (lambda: Interval(True, 2.0), "interval lo must be a finite number, got True"),
    (lambda: Interval("a", 2.0), "interval lo must be a finite number, got 'a'"),
    (lambda: Interval(0.0, None), "interval hi must be a finite number, got None"),
    (lambda: Interval(math.nan, math.inf), "interval lo must be a finite number, got nan"),
], ids=["marginal-nan-family", "gram-tol-nan", "gram-tol-inf", "kernel-value-inf",
        "grid-x0-inf", "power-string", "gaussian-string", "constant-bool", "product-tol-bool",
        "scale-bool", "scale-string", "massive-at-nan", "massive-at-bool", "tabulated-at-bool",
        "tabulated-at-nan", "rn-density-nan", "rn-density-string", "interval-bool",
        "interval-string", "interval-none", "interval-nan"])
def test_real_parameters_that_slipped_past_their_checks(call, message):
    with pytest.raises(InputError) as info:
        call()
    assert str(info.value) == message


class TestRequireSeed:
    @pytest.mark.parametrize("seed", [0, 1, 2**63, 2**64 - 1])
    def test_accepts_a_64_bit_seed(self, seed):
        require_seed(seed)

    @pytest.mark.parametrize("seed, message", [
        (2**64, "seed must be < 2^64, got 18446744073709551616"),
        (-1, "seed must be >= 0, got -1"),
        (np.uint64(1), f"seed must be an integer, got {np.uint64(1)!r}"),
        (1.0, "seed must be an integer, got 1.0"),
    ])
    def test_refuses_what_is_not_a_64_bit_seed(self, seed, message):
        with pytest.raises(InputError) as info:
            require_seed(seed)
        assert str(info.value) == message


def test_an_interval_end_may_be_infinite():
    assert Interval(-math.inf, np.float64(math.inf)) == Interval(-math.inf, math.inf)
    assert Interval(0, 1) == Interval(0.0, 1.0) and type(Interval(0, 1).lo) is float


# every library function that draws takes its seed through require_seed
_SEEDED = {
    "sample": lambda s: cm.sample(cm.Constant(1.0), 3, s),
    "mc-moment": lambda s: cm.mc_moment(cm.Constant(1.0), [_E1], 10, s),
    "tail-growth": lambda s: cm.mc_tail_growth(cm.Constant(1.0), cm.Constant(1.0), 100, 100, s),
    "haar-batch": lambda s: cm.haar_sample_batch(cm.FrequencySet((1.0,)), 2, s),
    "mc-method": lambda s: cm.MCMethod(10, s),
    "pushforward": lambda s: cm.pushforward_integral_mc(
        cm.ProductSampler(_SPEC, 1), lambda x: x, lambda u: u[:, 0], 10, s),
    "derive-seed": lambda s: cm.derive_seed(s, 1),
}


@pytest.mark.parametrize("name", sorted(_SEEDED))
@pytest.mark.parametrize("seed, message", [
    (-1, "seed must be >= 0, got -1"),
    (2.5, "seed must be an integer, got 2.5"),
    (True, "seed must be an integer, got True"),
    (2**64, "seed must be < 2^64, got 18446744073709551616"),
])
def test_every_seed_follows_one_rule(name, seed, message):
    with pytest.raises(InputError) as info:
        _SEEDED[name](seed)
    assert str(info.value) == message
