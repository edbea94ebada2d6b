"""Series verdicts against an exact rational oracle.

The oracle, ``bench/oracles.py``, keeps whole tails as maps (alpha, q) ->
coefficient in ``Fraction``s built from the decimals a user types, and
multiplies and subtracts them term by term; the program under test decides
from leading atoms only.  Each case is a decay document whose numbers are
those decimals, read by the program through ``jsonio`` and by the oracle
as written.  The cases sit on the convergence boundary, where a floating
exponent sum can miss -1, and at coefficients whose floating products
underflow to 0.
"""

import json
import math
from fractions import Fraction

import oracles
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from cylmeasure import cli, jsonio, sequences
from cylmeasure.sequences import Constant, Geometric, PowerDecay, Prefixed, summable
from cylmeasure.support import hilbert_schmidt_check, weighted_support_check
from cylmeasure.transform import equivalence_classify, shift_admissible

ONE = Fraction(1)


def decoded(doc):
    """The decay object the program reads from ``doc``, whose leaves are decimal strings."""
    return jsonio.decode("decay", oracles.strict_json(oracles.to_json(doc)), "cov")


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
        y, cov = {"power": {"c": "1", "p": py}}, {"power": {"c": "1", "p": pc}}
        if shift_admissible(decoded(y), decoded(cov)) is not oracles.shift_admissible(y, cov):
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
    # past 32 factors in all only the exact test runs
    st.sampled_from([-35, -2, -1, 1, 2, 3, 17, 40]),
)


@settings(max_examples=100, deadline=None)
@given(st.lists(FACTOR, min_size=1, max_size=4))
@example([("0.7", "0", 2), ("0.49", "0", -1)])
@example([("0.7", "-0.75", 2), ("0.49", "0", -1)])  # a q tie that alpha = -1.5 decides
@example([("1", "-1.07", 2), ("1", "-1.14", -1)])
@example([("0.999", "0", 2), ("0.998001", "0", -1)])
@example([("1e-300", "0", 2), ("1e-300", "0", -2)])
# 1,190 digits on the q side, all compared exactly
@example([("0.30000000000000004", "0", 70), ("0.09000000000000001", "0", -35)])
# a total power at sequences.MAX_TOTAL_POWER, still decided
@example([("0.30000000000000004", "0", 666), ("0.09000000000000001", "0", -334)])
def test_summable_matches_a_fraction_oracle(factors):
    powers = tuple(((float(q), float(a), 1.0), e) for q, a, e in factors)
    expected = _oracle(powers)
    assert summable(*powers) is expected
    assert sequences._exact_summable(powers) is expected


def _oracle(powers):
    q, alpha = ONE, 0
    for (qf, af, _), e in powers:
        q *= Fraction(repr(qf)) ** e
        alpha += e * Fraction(repr(af))
    return oracles.ratio_summable({(alpha, q): ONE}, {(0, ONE): ONE})


def _nudged(x, steps):
    """``x`` moved ``steps`` floats up (or down, for steps < 0)."""
    for _ in range(abs(steps)):
        x = math.nextafter(x, math.copysign(math.inf, steps))
    return x


STEPS = st.integers(-3, 3)
# sum (q_y^2 / q_c)^(k n) with q_y^2 == q_c in decimals, q_c nudged
Q_TIES = st.builds(
    lambda pair, steps, k: (((pair[0], 0.0, 1.0), 2 * k),
                            ((_nudged(pair[1], steps), 0.0, 1.0), -k)),
    st.sampled_from([(0.7, 0.49), (0.3, 0.09), (0.9, 0.81), (0.95, 0.9025), (0.1, 0.01),
                     (0.999, 0.998001)]),
    STEPS,
    st.integers(1, 11),
)
# sum n^(p_c - 2 p_y) with 2 p_y - p_c == 1 in decimals, p_c nudged
ALPHA_TIES = st.builds(
    lambda pair, steps: (((1.0, -pair[0], 1.0), 2), ((1.0, -_nudged(pair[1], steps), 1.0), -1)),
    st.sampled_from([(1.07, 1.14), (1.1, 1.2), (1.37, 1.74), (0.75, 0.5), (2.5, 4.0)]),
    STEPS,
)
# q^e against its neighbour: sides near 2^-1000 or 2^1000 after e factors
EDGES = st.builds(
    lambda e, up, steps: (((2.0 ** ((1000 if up else -1000) / e), 0.0, 1.0), e),
                          ((_nudged(2.0 ** ((1000 if up else -1000) / e), steps), 0.0, 1.0), -e)),
    st.integers(1, 16), st.booleans(), STEPS,
)
# 2 * (-0.5) + alpha against -1: alpha subnormal or near 2^-1000
TINY_ALPHAS = st.builds(
    lambda alpha: (((1.0, -0.5, 1.0), 2), ((1.0, alpha, 1.0), 1)),
    st.one_of(st.floats(-(2.0**-1022), 2.0**-1022),
              STEPS.map(lambda steps: _nudged(2.0**-1000, steps)),
              STEPS.map(lambda steps: -_nudged(2.0**-1000, steps))),
)
NEAR_TIES = st.one_of(Q_TIES, ALPHA_TIES, EDGES, TINY_ALPHAS)
# a partial product that goes subnormal, loses its 2^-20 bit and comes back
# into range: the floats put num below den, the decimals above
DETOUR = tuple(((q, 0.0, 1.0), e) for q, e in [
    ((1.0 + 2.0**-20) * 2.0**-600, 1), (2.0**-470, 1), (2.0**920, 1),
    ((1.0 + 2.0**-21) * 2.0**-150, -1),
])


@settings(max_examples=400, deadline=None)
@given(NEAR_TIES, st.integers(-4, 4))
@example(DETOUR, 0)
def test_float_filter_never_contradicts_the_exact_test(powers, pad):
    # padding with q = 1, alpha = 0 brings the factor count to 28-36, across
    # the filter's cap of 32, without changing the series
    count = sum(abs(e) for _, e in powers)
    if 32 + pad > count:
        powers += (((1.0, 0.0, 1.0), 32 + pad - count),)
    verdict = sequences._float_summable(powers)
    exact = sequences._exact_summable(powers)
    assert verdict is None or verdict is exact
    assert exact is _oracle(powers)


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
    st.builds(lambda rho: {"constant": {"rho": rho}}, COEFFS),
    st.builds(lambda c, p: {"power": {"c": c, "p": p}}, COEFFS, POWERS),
    st.builds(lambda c, q: {"geometric": {"c": c, "q": q}}, COEFFS, RATIOS),
    st.builds(lambda base, c, p: {"constant_plus_power": {"base": base, "c": c, "p": p}},
              COEFFS, SIGNED, POWERS),
)
DECAY = st.one_of(CLOSED, CLOSED.map(lambda tail: {"prefixed": {"prefix": ["2"], "tail": tail}}))


def positive(doc):
    seq = decoded(doc)
    assume(seq.is_positive())
    return seq


@settings(max_examples=200, deadline=None)
@given(DECAY, DECAY)
@example({"constant": {"rho": "1"}},
         {"constant_plus_power": {"base": "1", "c": "1e-170", "p": "0.2"}})
@example({"constant": {"rho": "1"}},
         {"constant_plus_power": {"base": "1", "c": "5e-324", "p": "0.2"}})
@example({"constant_plus_power": {"base": "2", "c": "1", "p": "0.25"}},
         {"constant_plus_power": {"base": "2", "c": "-0.1", "p": "0.5"}})
def test_equivalence_matches_exact_oracle(doc_a, doc_b):
    verdict = equivalence_classify(positive(doc_a), positive(doc_b))
    assert (verdict.verdict.value, verdict.series) == oracles.equivalence(doc_a, doc_b)


@settings(max_examples=200, deadline=None)
@given(DECAY, DECAY)
@example({"constant": {"rho": "1e-200"}}, {"constant": {"rho": "1e-200"}})
@example({"power": {"c": "1", "p": "0.5"}}, {"power": {"c": "1e-170", "p": "0.25"}})
def test_weighted_support_matches_exact_oracle(doc_cov, doc_weights):
    report = weighted_support_check(positive(doc_cov), positive(doc_weights))
    assert (report.verdict.value, report.series) == oracles.support(doc_cov, doc_weights)
