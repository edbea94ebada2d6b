"""Series verdicts against an exact rational oracle.

The oracle keeps whole tails as maps (q, alpha) -> coefficient in
``Fraction``s built from the decimals a user types, and multiplies and
subtracts them term by term; the program under test decides from
leading atoms only.  The cases sit on the convergence boundary, where a
floating exponent sum can miss -1, and at coefficients whose floating
products underflow to 0.
"""

import json
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from cylmeasure import cli, sequences
from cylmeasure.sequences import (
    Constant,
    ConstantPlusPower,
    Geometric,
    PowerDecay,
    Prefixed,
    summable,
)
from cylmeasure.support import hilbert_schmidt_check, weighted_support_check
from cylmeasure.transform import equivalence_classify, shift_admissible

ONE = Fraction(1)


def build(spec):
    """(decay object, exact tail) from ("kind", decimal strings...)."""
    kind, *args = spec
    if kind == "prefixed":
        tail, exact = build(args[1])
        return Prefixed((float(args[0]),), tail), exact
    x = [Fraction(a) for a in args]
    if kind == "constant":
        cls, exact = Constant, {(ONE, 0): x[0]}
    elif kind == "power":
        cls, exact = PowerDecay, {(ONE, -x[1]): x[0]}
    elif kind == "geometric":
        cls, exact = Geometric, {(x[1], 0): x[0]}
    else:
        cls, exact = ConstantPlusPower, {(ONE, 0): x[0], (ONE, -x[2]): x[1]}
    return cls(*(float(a) for a in args)), {key: k for key, k in exact.items() if k}


def mul(a, b):
    out = {}
    for (q1, al1), k1 in a.items():
        for (q2, al2), k2 in b.items():
            key = (q1 * q2, al1 + al2)
            out[key] = out.get(key, 0) + k1 * k2
    return {key: k for key, k in out.items() if k}


def sub(a, b):
    out = dict(a)
    for key, k in b.items():
        out[key] = out.get(key, 0) - k
    return {key: k for key, k in out.items() if k}


def ratio_summable(numer, denom):
    """sum numer_n / denom_n < inf, both eventually positive."""
    if not numer:
        return True
    q_n, al_n = max(numer)
    q_d, al_d = max(denom)
    q, alpha = q_n / q_d, al_n - al_d
    return q < 1 or (q == 1 and alpha < -1)


def oracle_equivalence(a, b):
    if max(a) != max(b):
        return "singular", "diverges"
    delta = sub(b, a)
    if ratio_summable(mul(delta, delta), mul(a, a)):
        return "equivalent", "converges"
    return "singular", "diverges"


def oracle_support(cov, weights):
    if ratio_summable(mul(mul(weights, weights), cov), {(ONE, 0): ONE}):
        return "supported", "converges"
    return "not-supported", "diverges"


GRID = [f"{i / 100:.2f}" for i in range(1, 300)]
# pairs on and next to the boundary 2 p_y - p_c = 1 of sum n^(p_c - 2 p_y)
BOUNDARY_PAIRS = [
    (py, pc)
    for py in GRID
    for pc in GRID
    if 2 * Fraction(py) - Fraction(pc) in (Fraction("0.99"), ONE, Fraction("1.01"))
]


def test_power_grid_boundary_matches_exact_truth():
    mismatches = []
    for py, pc in BOUNDARY_PAIRS:
        (y, y_atoms), (cov, cov_atoms) = build(("power", "1", py)), build(("power", "1", pc))
        expected = ratio_summable(mul(y_atoms, y_atoms), cov_atoms)
        if shift_admissible(y, cov) is not expected:
            mismatches.append((py, pc))
    assert len(BOUNDARY_PAIRS) > 400
    # includes the pairs whose float exponent sum misses -1, e.g. (1.1, 1.2)
    assert ("1.10", "1.20") in BOUNDARY_PAIRS and ("1.37", "1.74") in BOUNDARY_PAIRS
    assert mismatches == []


# ---------------------------------------------------------------------------
# the float filter in front of the exact boundary test


def test_float_product_below_a_tie_does_not_decide():
    # 0.7 * 0.7 rounds below 0.49, yet the decimals square exactly: sum 1
    assert 0.7 * 0.7 < 0.49
    assert shift_admissible(Geometric(1.0, 0.7), Geometric(1.0, 0.49)) is False
    assert summable(((0.7, 0.0, 1.0), 2), ((0.49, 0.0, 1.0), -1)) is False


def test_float_exponent_sum_past_a_tie_does_not_decide():
    # 2 * 1.07 - 1.14 rounds above 1, yet the series is sum 1/n
    assert 2 * 1.07 - 1.14 == 1.0000000000000002
    assert shift_admissible(PowerDecay(1.0, 1.07), PowerDecay(1.0, 1.14)) is False


def test_squared_tiny_coefficient_does_not_decide():
    assert 1e-200 * 1e-200 == 0.0
    assert hilbert_schmidt_check(Constant(1e-200)) is False
    assert hilbert_schmidt_check(Geometric(1e-200, 0.5)) is True
    assert summable(((1.0, 0.0, 1e-200), 2)) is False


def test_whole_power_grid_matches_exact_truth(monkeypatch):
    """Every grid verdict is exact, and only the boundary reaches the decimal test.

    Grid values are exact hundredths, so 2 p_y - p_c > 1 is decided on
    the integers 2 i - j > 100 (p_y = i/100, p_c = j/100).
    """
    calls = []
    exact = sequences._exact_summable
    monkeypatch.setattr(
        sequences, "_exact_summable", lambda powers: calls.append(powers) or exact(powers)
    )
    hundredths = {p: int(Fraction(p) * 100) for p in GRID}
    power = {p: PowerDecay(1.0, float(p)) for p in GRID}
    mismatches, fell_back = [], set()
    for py in GRID:
        for pc in GRID:
            before = len(calls)
            expected = 2 * hundredths[py] - hundredths[pc] > 100
            if shift_admissible(power[py], power[pc]) is not expected:
                mismatches.append((py, pc))
            if len(calls) > before:
                fell_back.add((py, pc))
    assert len(GRID) ** 2 == 89_401
    assert mismatches == []
    boundary = {
        (py, pc) for py in GRID for pc in GRID if 2 * hundredths[py] - hundredths[pc] == 100
    }
    assert len(boundary) == 149
    assert fell_back == boundary and len(calls) == 149


# q_y**2 == q_c exactly in decimals, and the two decimal neighbours of q_c
GEOMETRIC_TIES = [
    (qy, qc)
    for qy, squares in [
        ("0.3", ("0.09", "0.0899", "0.0901")),
        ("0.7", ("0.49", "0.4899", "0.4901")),
        ("0.9", ("0.81", "0.8099", "0.8101")),
        ("0.95", ("0.9025", "0.9024", "0.9026")),
    ]
    for qc in squares
]


def test_geometric_ratio_ties_match_exact_truth():
    # sum (c q_y^n)^2 / q_c^n converges iff q_y^2 / q_c < 1 (alpha = 0 on a tie)
    for qy, qc in GEOMETRIC_TIES:
        expected = Fraction(qy) ** 2 < Fraction(qc)
        y, cov = Geometric(1.0, float(qy)), Geometric(2.0, float(qc))
        assert shift_admissible(y, cov) is expected, (qy, qc)
        prefixed = Prefixed((3.0,), Geometric(0.5, float(qy)))
        assert shift_admissible(prefixed, cov) is expected, (qy, qc)


def test_geometric_tie_in_equivalence_is_exact():
    # delta and the leading atom share q = 0.7: the q sides tie, alpha 0 > -1
    verdict = equivalence_classify(Geometric(1.0, 0.7), Geometric(2.0, 0.7))
    assert (verdict.verdict.value, verdict.series) == ("singular", "diverges")


DECIMALS = st.sampled_from(
    ["0.1", "0.3", "0.09", "0.7", "0.49", "0.9", "0.81", "0.95", "0.9025", "0.5", "0.25",
     "0.343", "0.999", "0.998001", "1e-150", "1e-300", "1"]
)
EXPONENTS = st.sampled_from(["0", "-0.5", "-1", "-1.07", "-1.14", "-2.14", "0.1", "-0.3",
                             "1e-310", "-3.3", "1.1"])
FACTOR = st.tuples(
    st.one_of(DECIMALS, st.floats(1e-30, 1.0).map(repr)),
    st.one_of(EXPONENTS, st.floats(-4.0, 4.0).map(repr)),
    st.sampled_from([-2, -1, 1, 2, 3]),
)


@settings(max_examples=100, deadline=None)
@given(st.lists(FACTOR, min_size=1, max_size=4))
@example([("0.7", "0", 2), ("0.49", "0", -1)])
@example([("0.7", "-0.75", 2), ("0.49", "0", -1)])  # a q tie that alpha = -1.5 decides
@example([("1", "-1.07", 2), ("1", "-1.14", -1)])
@example([("0.999", "0", 2), ("0.998001", "0", -1)])
@example([("1e-300", "0", 2), ("1e-300", "0", -2)])
def test_summable_matches_a_fraction_oracle(factors):
    powers = tuple(((float(q), float(a), 1.0), e) for q, a, e in factors)
    q, alpha = ONE, 0
    for (qf, af, _), e in powers:
        q *= Fraction(repr(qf)) ** e
        alpha += e * Fraction(repr(af))
    expected = q < 1 or (q == 1 and alpha < -1)
    assert summable(*powers) is expected
    assert sequences._exact_summable(powers) is expected


@pytest.mark.parametrize(
    "argv, payload",
    [
        (["hs-check", "--weights", '{"constant":{"rho":1e-200}}'], {"hilbert_schmidt": False}),
        (
            ["shift-admissible", "--cov", '{"constant":{"rho":1}}',
             "--shift", '{"constant":{"rho":1e-200}}'],
            {"admissible": False},
        ),
        (
            ["support", "--cov", '{"constant":{"rho":1e-200}}',
             "--weights", '{"constant":{"rho":1e-200}}'],
            {"report": {"verdict": "not-supported", "series": "diverges", "partial_sums": None}},
        ),
    ],
    ids=["hs-check", "shift-admissible", "support"],
)
def test_underflowing_coefficients_do_not_decide(capsys, argv, payload):
    assert cli.main(argv) == 0
    assert json.loads(capsys.readouterr().out)["payload"] == payload


def test_underflowing_difference_does_not_cancel(capsys):
    argv = [
        "equivalence",
        "--cov-a", '{"constant":{"rho":1}}',
        "--cov-b", '{"constant_plus_power":{"base":1,"c":1e-170,"p":0.2}}',
    ]
    assert cli.main(argv) == 0
    payload = json.loads(capsys.readouterr().out)["payload"]
    assert (payload["verdict"], payload["series"]) == ("singular", "diverges")


# decimals with at most 15 significant digits, so each float prints as
# the decimal drawn; the tiny coefficients square to 0 in floats, and
# 5e-324 is the smallest nonzero float
COEFFS = st.sampled_from(["1", "2", "0.5", "3.5", "0.1", "0.3", "1e-170", "1e-200"])
SIGNED = st.sampled_from(["1", "-0.5", "0.25", "-0.1", "1e-170", "-1e-200", "5e-324"])
POWERS = st.one_of(st.sampled_from(["0.1", "0.25", "0.35", "0.5", "1", "1.1"]), st.sampled_from(GRID))
RATIOS = st.sampled_from(["0.5", "0.25", "0.3", "0.09", "0.7", "0.49", "0.9", "0.81"])
CLOSED = st.one_of(
    st.tuples(st.just("constant"), COEFFS),
    st.tuples(st.just("power"), COEFFS, POWERS),
    st.tuples(st.just("geometric"), COEFFS, RATIOS),
    st.tuples(st.just("constant_plus_power"), COEFFS, SIGNED, POWERS),
)
DECAY = st.one_of(CLOSED, st.tuples(st.just("prefixed"), st.just("2"), CLOSED))


def positive(spec):
    seq, atoms = build(spec)
    assume(seq.is_positive())
    return seq, atoms


@settings(max_examples=200, deadline=None)
@given(DECAY, DECAY)
@example(("constant", "1"), ("constant_plus_power", "1", "1e-170", "0.2"))
@example(("constant", "1"), ("constant_plus_power", "1", "5e-324", "0.2"))
@example(("constant_plus_power", "2", "1", "0.25"), ("constant_plus_power", "2", "-0.1", "0.5"))
def test_equivalence_matches_exact_oracle(spec_a, spec_b):
    (a, atoms_a), (b, atoms_b) = positive(spec_a), positive(spec_b)
    verdict = equivalence_classify(a, b)
    assert (verdict.verdict.value, verdict.series) == oracle_equivalence(atoms_a, atoms_b)


@settings(max_examples=200, deadline=None)
@given(DECAY, DECAY)
@example(("constant", "1e-200"), ("constant", "1e-200"))
@example(("power", "1", "0.5"), ("power", "1e-170", "0.25"))
def test_weighted_support_matches_exact_oracle(spec_cov, spec_weights):
    (cov, atoms_cov), (weights, atoms_w) = positive(spec_cov), positive(spec_weights)
    report = weighted_support_check(cov, weights)
    assert (report.verdict.value, report.series) == oracle_support(atoms_cov, atoms_w)
