import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from cylmeasure.errors import InputError, NumericError, UndecidableError
from cylmeasure.gaussian import draw_coordinates
from cylmeasure.sequences import (
    Constant,
    ConstantPlusPower,
    FiniteSequence,
    Geometric,
    PowerDecay,
    Prefixed,
    Tabulated,
)
from cylmeasure.transform import (
    Equivalence,
    equivalence_classify,
    rn_density,
    shift_admissible,
)
from cylmeasure import transform

E1 = FiniteSequence.basis(1)


class TestRnDensity:
    def test_zero_shift_is_one(self):
        assert rn_density(np.zeros(3), FiniteSequence(()), Constant(1.0)) == 1.0

    def test_unit_shift_at_its_own_point(self):
        # density ratio of N(1,1) against N(0,1) at x = 1 is e^{1/2}
        value = rn_density(np.array([1.0]), E1, Constant(1.0))
        oracle = math.exp(-0.0) / math.exp(-0.5)
        assert value == pytest.approx(oracle, rel=1e-15)
        assert value == pytest.approx(math.exp(0.5), rel=1e-15)

    @pytest.mark.parametrize("dtype", [np.int64, np.int32, np.float32, np.float64])
    def test_numpy_vector_point_is_read_as_its_numbers(self, dtype):
        # a numpy scalar is not an int or a float, so the point is read as a list
        expected = rn_density([1, 2], E1, Constant(1.0))
        assert rn_density(np.array([1, 2], dtype=dtype), E1, Constant(1.0)) == expected
        assert expected == math.exp(0.5)

    def test_numpy_vector_point_still_refuses_nan(self):
        with pytest.raises(InputError, match=r"^x coordinate 1 must be a finite number, got nan"):
            rn_density(np.array([math.nan, 2.0]), E1, Constant(1.0))

    def test_general_covariance_at_a_point(self):
        cov = Prefixed((4.0,), Constant(1.0))
        y = FiniteSequence(((1, 2.0), (3, -1.0)))
        x = np.array([0.5, 0.0, 2.0])
        expected = math.exp(
            (0.5 * 2.0 / 4.0 + 2.0 * (-1.0) / 1.0)
            - 0.5 * (4.0 / 4.0 + 1.0 / 1.0)
        )
        assert rn_density(x, y, cov) == pytest.approx(expected, rel=1e-14)

    def test_batch_evaluation_is_positive(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(50, 4))
        vals = rn_density(x, FiniteSequence(((2, 1.5),)), Constant(2.0))
        assert vals.shape == (50,)
        assert np.all(vals > 0)

    def test_batch_as_a_list_of_rows(self):
        y, cov = FiniteSequence(((2, 1.5),)), Constant(2.0)
        rows = [np.zeros(3), np.array([0.0, 1.0, 0.0])]
        vals = rn_density(rows, y, cov)
        assert vals.shape == (2,)
        assert vals[0] == rn_density(rows[0], y, cov)
        assert vals[1] == pytest.approx(rn_density(rows[1], y, cov), rel=1e-15)

    def test_support_outside_truncation_rejected(self):
        with pytest.raises(InputError, match="beyond the truncation"):
            rn_density(np.zeros(2), FiniteSequence(((3, 1.0),)), Constant(1.0))

    def test_cocycle_identity(self):
        # density(x, y1+y2) = density(x, y1) * density(x - y1, y2)
        rng = np.random.default_rng(6)
        cov = Prefixed((2.0, 0.5), Constant(1.0))
        y1 = FiniteSequence(((1, 0.3), (4, -1.0)))
        y2 = FiniteSequence(((2, 0.8), (4, 0.5)))
        for _ in range(20):
            x = rng.normal(size=5)
            lhs = rn_density(x, y1 + y2, cov)
            rhs = rn_density(x, y1, cov) * rn_density(x - y1.as_vector(5), y2, cov)
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_normalization_under_the_measure(self):
        cov = Constant(1.0)
        y = FiniteSequence(((1, 1.0), (2, -0.7)))
        x = draw_coordinates(cov, 2, 400_000, np.random.default_rng(7))
        dens = rn_density(x, y, cov)
        se = dens.std(ddof=1) / math.sqrt(len(dens))
        assert abs(dens.mean() - 1.0) < 4 * se

    def test_change_of_measure_for_a_polynomial(self):
        cov = Constant(1.0)
        y = FiniteSequence(((1, 0.5),))
        x = draw_coordinates(cov, 1, 400_000, np.random.default_rng(8))
        dens = rn_density(x, y, cov)
        diff = dens * x[:, 0] ** 2 - (x[:, 0] + 0.5) ** 2
        se = diff.std(ddof=1) / math.sqrt(len(diff))
        assert abs(diff.mean()) < 5 * se


class TestShiftAdmissible:
    def test_inverse_index_shift_is_admissible(self):
        assert shift_admissible(PowerDecay(1.0, 1.0), Constant(1.0)) is True

    def test_inverse_sqrt_shift_is_not(self):
        assert shift_admissible(PowerDecay(1.0, 0.5), Constant(1.0)) is False

    def test_finite_shifts_always_admissible(self):
        assert shift_admissible(FiniteSequence(((9, 100.0),)), Geometric(1.0, 0.5)) is True

    def test_sign_of_the_amplitude_is_irrelevant(self):
        assert shift_admissible(PowerDecay(-1.0, 1.0), Constant(1.0)) is True

    def test_constant_offset_against_white_noise_diverges(self):
        assert shift_admissible(ConstantPlusPower(1.0, 1.0, 1.0), Constant(1.0)) is False

    def test_shrinking_variances_admit_fewer_shifts(self):
        # y_n = 1/n against rho_n = 1/n^3: sum n^3/n^2 diverges
        assert shift_admissible(PowerDecay(1.0, 1.0), PowerDecay(1.0, 3.0)) is False

    def test_tabulated_tail_is_undecidable(self):
        with pytest.raises(UndecidableError):
            shift_admissible(Tabulated((1.0, 0.5)), Constant(1.0))

    @pytest.mark.parametrize(
        "shift,cov",
        [
            (PowerDecay(1.0, 1.0), Constant(1.0)),
            (PowerDecay(1.0, 0.5), Constant(1.0)),
            (Geometric(1.0, 0.5), Constant(2.0)),
            (PowerDecay(1.0, 1.0), PowerDecay(1.0, 3.0)),
            (ConstantPlusPower(1.0, -0.5, 1.0), Constant(1.0)),
        ],
    )
    def test_verdict_matches_partial_sum_growth(self, shift, cov):
        # deterministic oracle: partial sums of y_n^2 / rho_n either level
        # off (admissible) or keep a visible increment (not admissible)
        n = 200_000
        terms = shift.first(n) ** 2 / cov.first(n)
        half, full = float(np.sum(terms[: n // 2])), float(np.sum(terms))
        increment = (full - half) / max(full, 1e-300)
        if shift_admissible(shift, cov):
            assert increment < 0.01
        else:
            assert increment > 0.05


class TestEquivalenceClassify:
    def test_identical_covariances(self):
        v = equivalence_classify(Constant(1.0), Constant(1.0))
        assert v.verdict is Equivalence.EQUIVALENT
        assert v.ratio_inf == v.ratio_sup == 1.0

    def test_scaled_white_noise_is_singular(self):
        v = equivalence_classify(Constant(1.0), Constant(2.0))
        assert v.verdict is Equivalence.SINGULAR
        assert v.ratio_inf == pytest.approx(2.0)
        assert v.series == "diverges"

    def test_one_plus_inverse_index_is_equivalent(self):
        v = equivalence_classify(Constant(1.0), ConstantPlusPower(1.0, 1.0, 1.0))
        assert v.verdict is Equivalence.EQUIVALENT
        assert 1.0 <= v.ratio_inf and v.ratio_sup <= 2.0
        assert v.series == "converges"

    def test_slow_ratio_decay_is_singular(self):
        # a_n = 1 + n^{-1/4}: bounded, but sum (a_n-1)^2 = sum n^{-1/2} diverges
        v = equivalence_classify(Constant(1.0), ConstantPlusPower(1.0, 1.0, 0.25))
        assert v.verdict is Equivalence.SINGULAR

    def test_different_power_rates_are_singular(self):
        v = equivalence_classify(PowerDecay(1.0, 1.0), PowerDecay(1.0, 2.0))
        assert v.verdict is Equivalence.SINGULAR

    def test_different_geometric_rates_are_singular(self):
        v = equivalence_classify(Geometric(1.0, 0.5), Geometric(1.0, 0.25))
        assert v.verdict is Equivalence.SINGULAR

    def test_same_shape_different_amplitude_is_singular(self):
        # constant ratio 2 fails square-summability just like white noise
        v = equivalence_classify(PowerDecay(1.0, 2.0), PowerDecay(2.0, 2.0))
        assert v.verdict is Equivalence.SINGULAR

    def test_prefix_modifications_never_matter(self):
        v = equivalence_classify(Prefixed((7.0, 0.1), Constant(1.0)), Constant(1.0))
        assert v.verdict is Equivalence.EQUIVALENT

    def test_limit_offset_is_singular(self):
        v = equivalence_classify(Constant(1.0), ConstantPlusPower(2.0, 1.0, 1.0))
        assert v.verdict is Equivalence.SINGULAR

    def test_underflowing_scan_reports_the_tail_limit(self):
        # every scanned entry underflows to 0, so no ratio is finite
        tiny = Geometric(1e-322, 0.001)
        v = equivalence_classify(tiny, tiny)
        assert v.verdict is Equivalence.EQUIVALENT
        assert v.ratio_inf == v.ratio_sup == 1.0
        v = equivalence_classify(tiny, Geometric(1e-322, 0.5))
        assert v.verdict is Equivalence.SINGULAR
        assert (v.ratio_inf, v.ratio_sup) == (0.0, math.inf)

    def test_overflowing_tail_limit_is_a_numeric_failure(self):
        with pytest.raises(NumericError):
            equivalence_classify(Constant(1e-300), Constant(1e300))

    @pytest.mark.parametrize("a, b", [
        (Tabulated((1.0, 1.1, 0.9)), Constant(1.0)),
        (Constant(1.0), Tabulated((1.0, 1.1, 0.9))),
        (Tabulated((1.0, 4.0, 2.0)), Tabulated((1.0, 4.0, 2.0))),
    ])
    def test_tabulated_is_undecidable(self, a, b):
        with pytest.raises(UndecidableError, match="symbolic decision refused"):
            equivalence_classify(a, b)

    @pytest.mark.parametrize(
        "a,b",
        [
            (Constant(1.0), Constant(2.0)),
            (Constant(1.0), ConstantPlusPower(1.0, 1.0, 1.0)),
            (PowerDecay(1.0, 1.0), Geometric(1.0, 0.5)),
            (Prefixed((3.0,), Constant(1.0)), Constant(1.0)),
            (Geometric(2.0, 0.5), Geometric(1.0, 0.5)),
        ],
    )
    def test_symmetry(self, a, b):
        assert equivalence_classify(a, b).verdict == equivalence_classify(b, a).verdict


def scanned_ratio_bounds(a, b):
    """min and max of the finite ratios b_n / a_n over every n <= 1000."""
    ratios = []
    for n in range(1, 1001):
        x, y = a.at(n), b.at(n)
        if x != 0.0 and math.isfinite(y / x):
            ratios.append(y / x)
    return min(ratios), max(ratios)


AMPLITUDES = st.floats(1e-3, 1e3)
POWERS = st.floats(0.01, 4.0)
RATES = st.one_of(
    st.floats(0.01, 0.999),
    st.floats(1e-12, 1e-6).map(lambda d: 1.0 - d),  # within 1e-6 of 1
)
# negative c down to -0.999 base; a base * frac that underflows to c = 0 is no such class
CONSTANT_PLUS_POWERS = (
    st.tuples(AMPLITUDES, st.floats(-0.999, 3.0), POWERS)
    .filter(lambda t: t[0] * t[1] != 0.0)
    .map(lambda t: ConstantPlusPower(t[0], t[0] * t[1], t[2]))
)
CLOSED_FORMS = st.one_of(
    st.builds(Constant, AMPLITUDES),
    st.builds(PowerDecay, AMPLITUDES, POWERS),
    st.builds(Geometric, AMPLITUDES, RATES),
    # entries that go subnormal inside the scan: the fallback scan
    st.builds(Geometric, st.floats(1e-301, 1e-299), st.floats(0.01, 0.9)),
    CONSTANT_PLUS_POWERS,
)
COVARIANCES = st.one_of(
    CLOSED_FORMS,
    st.builds(Prefixed, st.lists(AMPLITUDES, min_size=1, max_size=40).map(tuple), CLOSED_FORMS),
)
# constant_plus_power pairs have a three-term critical equation, solved by _sign_change
RATIO_PAIRS = st.one_of(
    st.tuples(COVARIANCES, COVARIANCES),
    st.tuples(CONSTANT_PLUS_POWERS, CONSTANT_PLUS_POWERS),
    st.tuples(
        st.builds(Prefixed, st.lists(AMPLITUDES, min_size=1, max_size=40).map(tuple),
                  CONSTANT_PLUS_POWERS),
        CONSTANT_PLUS_POWERS,
    ),
)


def condition(seq, n):
    """The sum of the magnitudes of the terms of entry n over the magnitude of their sum."""
    if n <= len(getattr(seq, "prefix", ())):
        return 1.0
    terms = [k * n**alpha * q**n for q, alpha, k in seq.atoms()]
    return sum(map(abs, terms)) / abs(sum(terms))


def bisection_sign_change(g, m0, m1):
    """The oracle: the integers either side of the sign change of a monotone g, by bisection."""
    below = g(m0) < 0.0
    if below == (g(m1) < 0.0):
        return ()
    while m1 - m0 > 1:
        mid = (m0 + m1) // 2
        if (g(mid) < 0.0) == below:
            m0 = mid
        else:
            m1 = mid
    return m0, m1


def counted(g):
    """g and a list whose length is the number of its evaluations."""
    calls = []
    return (lambda t: calls.append(t) or g(t)), calls


# monotone three-term pieces c1 t^e1 + c2 t^e2 + c3 on [m0, m1], t >= 1: c1 e1
# and c2 e2 share a sign, and c3 puts a root at m0 + frac (m1 - m0) (at least
# 0.5), which may lie outside the piece
THREE_TERM_PIECES = st.tuples(
    st.floats(0.01, 3.0), st.floats(-3.0, 3.0), st.floats(-5.0, 5.0), st.floats(-5.0, 5.0),
    st.booleans(), st.integers(1, 500), st.integers(1, 2000), st.floats(-0.2, 1.2),
)


class TestSignChange:
    @settings(max_examples=300, deadline=None)
    @given(THREE_TERM_PIECES)
    @example((2.58, 0.04, 0.3, 0.0, True, 11, 989, 0.999))
    @example((1.0, 1.0, 0.0, 0.0, False, 1, 1, 0.5))
    # a piece where false position without the bisection guard takes 9 too many
    @example((0.037364881478170756, -2.8480880474081456, -2.934594760723307,
              4.885220727454538, False, 1, 1321, 0.54814586327867))
    def test_false_position_finds_the_bisection_bracket(self, piece):
        e1, e2, log_c1, log_c2, rising, m0, width, frac = piece
        c1 = 10.0**log_c1 if rising else -(10.0**log_c1)
        c2 = math.copysign(10.0**log_c2, c1 * e1 * e2)
        m1 = m0 + width
        root = max(m0 + frac * width, 0.5)
        c3 = -(c1 * root**e1 + c2 * root**e2)

        def g(t):
            return c1 * t**e1 + c2 * t**e2 + c3

        g_counted, calls = counted(g)
        got = transform._sign_change(g_counted, m0, m1)
        assert got == bisection_sign_change(g, m0, m1)
        assert len(calls) <= 2 * math.ceil(math.log2(width)) + 2

    def test_a_halved_end_that_underflows_takes_a_bisection_step(self):
        # the kept end -5e-324 halves to -0.0, equal to the other end's 0.0: no secant
        def g(t):
            return 0.0 if t < 700 else -5e-324

        assert transform._sign_change(g, 1, 1000) == (699, 700)

    def test_critical_indices_match_bisection_in_fewer_evaluations(self, monkeypatch):
        # the three-term equations of constant_plus_power pairs, as equivalence meets them
        shapes = [transform._tail_shape(ConstantPlusPower(base, base * f, p))
                  for base in (1.0, 2.0) for f in (-0.5, 1.0, 2.0)
                  for p in (0.05, 0.3, 0.7, 1.1, 1.6, 2.2, 2.9)]
        real = transform._sign_change

        def run(rule):
            evaluations = []

            def counting(g, m0, m1):
                g_counted, calls = counted(g)
                found = rule(g_counted, m0, m1)
                if found:
                    evaluations.append(len(calls))
                return found

            monkeypatch.setattr(transform, "_sign_change", counting)
            return [transform._critical_indices(a, b, 1, 1000)
                    for a in shapes for b in shapes], evaluations

        found, evaluations = run(real)
        want, bisections = run(bisection_sign_change)
        assert found == want
        assert len(evaluations) == len(bisections) == 800
        assert sum(evaluations) <= 0.7 * sum(bisections)


class TestRatioBounds:
    @settings(max_examples=200, deadline=None)
    @given(COVARIANCES, COVARIANCES)
    @example(ConstantPlusPower(1.0, 2.0, 0.04), ConstantPlusPower(1.0, 2.0, 2.58))
    @example(PowerDecay(2.0, 2.33), Geometric(1.0, 0.95))
    @example(ConstantPlusPower(1.0, -0.5, 0.1), Prefixed((1.5,), Geometric(2.0, 0.7)))
    @example(Geometric(1.0, 1.0 - 1e-7), Prefixed((2.0, 0.5, 3.0), Geometric(3.0, 1.0 - 3e-7)))
    def test_matches_a_scan_of_every_index(self, a, b):
        lo, hi = transform._ratio_bounds(a, b)
        want_lo, want_hi = scanned_ratio_bounds(a, b)
        assert lo == pytest.approx(want_lo, rel=1e-13)
        assert hi == pytest.approx(want_hi, rel=1e-13)

    @settings(max_examples=300, deadline=None)
    @given(RATIO_PAIRS)
    @example((ConstantPlusPower(1.0, 2.0, 0.04), ConstantPlusPower(1.0, 2.0, 2.58)))
    # entries that cancel to 1/50 of their terms: the float ratios are not monotone
    @example((ConstantPlusPower(218.37910359475026, -214.0681912634467, 0.01),
              ConstantPlusPower(0.001, -0.0009802595016632021, 0.01)))
    def test_candidate_bounds_are_the_extremes_of_every_ratio(self, pair):
        a, b = pair
        bounds = transform._candidate_bounds(a, b)
        assume(bounds is not None)
        ratios = [b.at(n) / a.at(n) for n in range(1, 1001)]
        # an entry whose terms cancel is rounded kappa times as coarsely
        kappa = max(max(condition(a, n), condition(b, n)) for n in range(1, 1001))
        assert bounds[0] == pytest.approx(min(ratios), rel=1e-15 * kappa)
        assert bounds[1] == pytest.approx(max(ratios), rel=1e-15 * kappa)

    def test_interior_critical_points_are_found(self):
        # r_n = n^2 0.9^n peaks at n = -2 / log 0.9 = 18.98, far from both ends
        lo, hi = transform._ratio_bounds(PowerDecay(1.0, 2.0), Geometric(1.0, 0.9))
        assert hi == pytest.approx(19**2 * 0.9**19, rel=1e-15)
        assert lo == pytest.approx(1000**2 * 0.9**1000, rel=1e-15)

    @pytest.mark.parametrize("a, b", [
        (Geometric(1e-300, 0.5), Constant(1.0)),  # the denominator reaches 0 at n = 78
        (Constant(1.0), Geometric(1e-300, 0.5)),  # the numerator does: the least ratio is 0
        (Geometric(1e-300, 0.5), PowerDecay(1e-320, 0.1)),
    ])
    def test_subnormal_entries_take_the_scan(self, a, b):
        assert transform._candidate_bounds(a, b) is None
        assert transform._ratio_bounds(a, b) == scanned_ratio_bounds(a, b)

    def test_a_prefix_over_the_whole_range_takes_the_scan(self):
        a = Prefixed(tuple(1.0 + (n % 7) / 10 for n in range(1200)), Constant(1.0))
        b = PowerDecay(2.0, 0.5)
        assert transform._candidate_bounds(a, b) is None
        assert transform._ratio_bounds(a, b) == scanned_ratio_bounds(a, b)

    def test_a_table_is_refused_and_a_prefix_as_long_is_scanned(self):
        values = tuple(1.0 + (n % 13) / 5 for n in range(1, 1001))
        head, back = Prefixed(values, Constant(1.0)), Prefixed(values[::-1], Constant(1.0))
        for a, b in ((head, Geometric(3.0, 0.99)), (Geometric(3.0, 0.99), head), (head, back)):
            assert transform._candidate_bounds(a, b) is None
            assert transform._ratio_bounds(a, b) == scanned_ratio_bounds(a, b)
        for a, b in ((Tabulated(values), Geometric(3.0, 0.99)),
                     (Geometric(3.0, 0.99), Tabulated(values)),
                     (Tabulated((1.0, 4.0, 2.0)), Constant(2.0))):
            with pytest.raises(UndecidableError, match="symbolic decision refused"):
                equivalence_classify(a, b)
