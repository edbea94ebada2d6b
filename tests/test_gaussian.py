import math
import tracemalloc

import numpy as np
import oracles
import pytest
from hypothesis import given, settings, strategies as st

import cylmeasure as cm
from cylmeasure.errors import InputError, NumericError
from cylmeasure.gaussian import (
    chi,
    draw_coordinates,
    inner,
    mc_mean,
    mc_moment,
    pairings,
    positive_type_gram,
    sample,
    wick_moment,
)
from cylmeasure.sequences import (
    Constant,
    FiniteSequence,
    Geometric,
    PowerDecay,
    Prefixed,
)

E1 = FiniteSequence.basis(1)
E2 = FiniteSequence.basis(2)


def inline_mc_moment(cov, vs, n_samples, seed):
    """Sample mean and standard error of prod_j phi(v_j), written out with numpy."""
    dim = max(v.max_index for v in vs)
    x = draw_coordinates(cov, dim, n_samples, np.random.default_rng(seed))
    prods = np.prod(np.stack([x @ v.as_vector(dim) for v in vs], axis=1), axis=1)
    return float(prods.mean()), float(prods.std(ddof=1) / math.sqrt(len(prods)))


finite_seqs = st.builds(
    FiniteSequence.from_pairs,
    st.lists(
        st.tuples(st.integers(1, 6), st.floats(-3.0, 3.0, allow_nan=False)),
        min_size=0,
        max_size=4,
    ),
)


class TestInner:
    def test_single_term(self):
        assert inner(E1, E1, Constant(2.0)) == 2.0

    def test_disjoint_supports(self):
        assert inner(E1, E2, Constant(1.0)) == 0.0

    def test_bilinear_expansion(self):
        # (e1+e2, e1-e2) = (e1,e1) - (e2,e2) = 1 - 1
        assert inner(E1 + E2, E1 - E2, Constant(1.0)) == 0.0

    def test_weighted_by_the_variance_sequence(self):
        cov = PowerDecay(1.0, 1.0)
        xi = FiniteSequence(((2, 3.0), (4, 1.0)))
        assert inner(xi, xi, cov) == pytest.approx(9.0 / 2.0 + 1.0 / 4.0)

    @given(finite_seqs, finite_seqs)
    def test_symmetry(self, a, b):
        cov = Geometric(1.0, 0.5)
        assert inner(a, b, cov) == pytest.approx(inner(b, a, cov), rel=1e-12, abs=1e-12)

    @given(finite_seqs, finite_seqs, st.floats(-2.0, 2.0, allow_nan=False))
    def test_linearity_in_first_slot(self, a, b, c):
        cov = Constant(1.5)
        lhs = inner(a.scale(c) + b, b, cov)
        rhs = c * inner(a, b, cov) + inner(b, b, cov)
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)

    def test_negative_covariance_rejected(self):
        with pytest.raises(InputError):
            inner(E1, E1, Constant(-1.0))


class TestChi:
    def test_at_zero(self):
        assert chi(FiniteSequence(()), Constant(1.0)) == 1.0

    def test_unit_vector(self):
        assert chi(E1, Constant(1.0)) == pytest.approx(math.exp(-0.5), abs=1e-15)

    @given(finite_seqs)
    def test_range_and_symmetry(self, xi):
        cov = Prefixed((2.0,), Constant(1.0))
        v = chi(xi, cov)
        assert 0.0 < v <= 1.0
        assert chi(-xi, cov) == v

    def test_against_monte_carlo_characteristic_function(self):
        # E[exp(i x(xi))] has real part chi and vanishing imaginary part
        cov = Constant(1.5)
        xi = FiniteSequence(((1, 0.7), (3, -0.4)))
        rng = np.random.default_rng(42)
        x = draw_coordinates(cov, 3, 500_000, rng)
        phase = x @ xi.as_vector(3)
        re, im = np.cos(phase), np.sin(phase)
        se_re = re.std(ddof=1) / math.sqrt(len(re))
        se_im = im.std(ddof=1) / math.sqrt(len(im))
        assert abs(re.mean() - chi(xi, cov)) < 4 * se_re
        assert abs(im.mean()) < 4 * se_im


class TestSample:
    def test_seed_determinism(self):
        a = sample(Constant(1.0), 10, seed=7)
        b = sample(Constant(1.0), 10, seed=7)
        assert np.array_equal(a.values, b.values)
        c = sample(Constant(1.0), 10, seed=8)
        assert not np.array_equal(a.values, c.values)

    def test_empirical_variance(self):
        rng = np.random.default_rng(11)
        x = draw_coordinates(Constant(1.0), 2, 1_000_000, rng)
        assert abs(x[:, 0].var() - 1.0) < 0.01

    def test_coordinates_are_uncorrelated(self):
        rng = np.random.default_rng(12)
        x = draw_coordinates(Constant(1.0), 2, 200_000, rng)
        prod = x[:, 0] * x[:, 1]
        se = prod.std(ddof=1) / math.sqrt(len(prod))
        assert abs(prod.mean()) < 4 * se

    def test_variance_follows_the_sequence(self):
        rng = np.random.default_rng(13)
        x = draw_coordinates(PowerDecay(1.0, 1.0), 4, 400_000, rng)
        for n in (1, 2, 4):
            se = (x[:, n - 1] ** 2).std(ddof=1) / math.sqrt(x.shape[0])
            assert abs(x[:, n - 1].var() - 1.0 / n) < 4 * se


class TestPairings:
    @pytest.mark.parametrize("two_n", [0, 2, 4, 6, 8])
    def test_count_matches_double_factorial(self, two_n):
        assert len(pairings(two_n)) == oracles.double_factorial(two_n - 1)

    def test_each_pairing_is_a_perfect_matching(self):
        for p in pairings(6):
            labels = sorted(l for pair in p for l in pair)
            assert labels == [1, 2, 3, 4, 5, 6]
            assert all(i < j for i, j in p)
            assert list(p) == sorted(p)

    def test_pairings_distinct_and_canonical(self):
        ps = pairings(4)
        assert len(set(ps)) == 3
        assert ps[0] == ((1, 2), (3, 4))

    def test_odd_input_rejected(self):
        with pytest.raises(InputError):
            pairings(3)

    def test_cap_enforced(self):
        with pytest.raises(InputError, match=r"^label count 22 exceeds the budget of 20$"):
            pairings(22)


def wick_by_enumeration(cov, xs):
    """Independent route: literal sum over the enumerated pairings."""
    if len(xs) % 2:
        return 0.0
    total = 0.0
    for pairing in pairings(len(xs)):
        term = 1.0
        for i, j in pairing:
            term *= inner(xs[i - 1], xs[j - 1], cov)
        total += term
    return total


def wick_by_label_sets(cov, xs):
    """Independent route: contraction memoized on the bitmask of remaining labels."""
    k = len(xs)
    if k % 2:
        return 0.0
    gram = [[inner(a, b, cov) for b in xs] for a in xs]
    memo = {0: 1.0}

    def contract(mask):
        if mask not in memo:
            i = (mask & -mask).bit_length() - 1
            rest = mask & ~(1 << i)
            memo[mask] = sum(
                gram[i][j] * contract(rest & ~(1 << j)) for j in range(k) if rest >> j & 1
            )
        return memo[mask]

    return contract((1 << k) - 1)


class TestWickMoment:
    @pytest.mark.parametrize(
        "layout",
        [
            "aabb",  # repeated
            "abcdef",  # all distinct
            "aaaaaaaaaaaa",  # one vector twelve times
            "abacabad",  # repeats interleaved with distinct vectors
            "aabbccddeeffgg",  # every vector twice
            "abcabcabcabcabcabc",  # three vectors six times each, k = 18
        ],
    )
    def test_grouped_recursion_matches_label_sets(self, layout):
        # overlapping supports, so distinct vectors still correlate
        rng = np.random.default_rng(len(layout))
        cov = PowerDecay(1.0, 1.5)
        vectors = {
            name: FiniteSequence.from_pairs(
                [(i, float(rng.normal())) for i in rng.choice(np.arange(1, 5), 2, replace=False).tolist()]
            )
            for name in sorted(set(layout))
        }
        xs = [vectors[name] for name in layout]
        assert wick_moment(cov, xs) == pytest.approx(wick_by_label_sets(cov, xs), rel=1e-12)

    def test_odd_lists_vanish(self):
        assert wick_moment(Constant(1.0), [E1]) == 0.0
        assert wick_moment(Constant(1.0), [E1, E2, E1 + E2]) == 0.0

    def test_two_point_equals_inner(self):
        cov = PowerDecay(2.0, 1.0)
        xi = FiniteSequence(((1, 1.0), (2, -2.0)))
        assert wick_moment(cov, [xi, E2]) == inner(xi, E2, cov)

    def test_fourth_moment_is_three(self):
        assert wick_moment(Constant(1.0), [E1] * 4) == 3.0

    def test_four_point_symbolic_expansion(self):
        rng = np.random.default_rng(21)
        cov = Prefixed((0.5,), Constant(2.0))
        vs = [
            FiniteSequence.from_pairs(
                [(int(i), float(v)) for i, v in zip(rng.integers(1, 5, 3), rng.normal(size=3))]
            )
            for _ in range(4)
        ]
        a, b, c, d = vs
        expected = (
            inner(a, b, cov) * inner(c, d, cov)
            + inner(a, c, cov) * inner(b, d, cov)
            + inner(a, d, cov) * inner(b, c, cov)
        )
        assert wick_moment(cov, vs) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("two_n", [2, 4, 6, 8])
    def test_against_enumeration_oracle(self, two_n):
        rng = np.random.default_rng(30 + two_n)
        cov = Geometric(1.0, 0.5)
        vs = [
            FiniteSequence.from_pairs([(int(rng.integers(1, 6)), float(rng.normal()))])
            for _ in range(two_n)
        ]
        assert wick_moment(cov, vs) == pytest.approx(
            wick_by_enumeration(cov, vs), rel=1e-11, abs=1e-11
        )

    @settings(max_examples=25, deadline=None)
    @given(st.permutations(list(range(4))))
    def test_permutation_symmetry(self, perm):
        cov = Constant(1.0)
        vs = [
            E1,
            E2,
            E1 + E2,
            FiniteSequence(((3, 2.0),)),
        ]
        base = wick_moment(cov, vs)
        assert wick_moment(cov, [vs[i] for i in perm]) == pytest.approx(base, rel=1e-12)

    def test_multilinearity_in_one_argument(self):
        cov = Constant(1.0)
        vs = [E1, E1 + E2, E2, E1]
        scaled = [E1.scale(3.0)] + vs[1:]
        assert wick_moment(cov, scaled) == pytest.approx(
            3.0 * wick_moment(cov, vs), rel=1e-12
        )

    def test_against_monte_carlo(self):
        cov = Constant(1.0)
        vs = [E1, E1, E1 + E2, E2]
        analytic = wick_moment(cov, vs)
        mean, se = inline_mc_moment(cov, vs, 1_000_000, 55)
        assert abs(mean - analytic) < 5 * se

    @pytest.mark.parametrize(
        "cov, vs",
        [
            (Constant(1.0), [E1, E1, E1 + E2, E2]),
            (PowerDecay(2.0, 1.5), [E2, FiniteSequence(((1, 0.5), (3, -1.0))), E1]),
            (Prefixed((2.0, 0.5), Geometric(1.0, 0.5)), [E2] * 6),
        ],
    )
    def test_mc_moment_is_the_inline_estimator(self, cov, vs):
        # the library estimator, which the CLI and the release gate call,
        # reproduces the estimator written out above bit for bit
        assert mc_moment(cov, vs, 10_000, 55) == inline_mc_moment(cov, vs, 10_000, 55)

    def test_mc_moment_holds_no_more_values_than_its_budget_counts(self):
        # gaussian.MAX_MC_VALUES counts samples x (coordinates + factors); the
        # draw is scaled in place, so no scaled copy sits beside the raw draw
        vs, n = [FiniteSequence.basis(5), E2], 10**5
        mc_moment(Constant(1.0), vs, 10, 1)  # loads numpy.random before tracing
        tracemalloc.start()
        try:
            mc_moment(Constant(2.0), vs, n, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * n * (5 + len(vs)) + 2**16
        sd = np.sqrt(Constant(2.0).first(5))
        reference = np.random.default_rng(3).standard_normal((n, 5)) * sd
        assert np.array_equal(draw_coordinates(Constant(2.0), 5, n, np.random.default_rng(3)),
                              reference)

    def test_mc_moment_of_no_factors_is_the_empty_product(self):
        assert mc_moment(Constant(1.0), [], 3, 0) == (1.0, 0.0)
        with pytest.raises(InputError, match=r"^n_samples must be >= 2, got 1$"):
            mc_moment(Constant(1.0), [E1], 1, 0)

    @pytest.mark.parametrize("seed", [0, 7, 2**63])
    @pytest.mark.parametrize("n", [2, 3, 1000])
    def test_mc_mean_is_the_inline_estimator(self, n, seed):
        values = np.random.default_rng(seed).standard_normal(n) * 3.0 + 1.0
        expected = (float(values.mean()), float(values.std(ddof=1) / math.sqrt(n)))
        assert mc_mean(values) == expected

    @pytest.mark.parametrize("values", [[], [1.0]], ids=["none", "one"])
    def test_mc_mean_refuses_fewer_than_two_values(self, values):
        with pytest.raises(InputError, match=f"at least 2 samples, got {len(values)}"):
            mc_mean(np.array(values))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "values",
        [[1.0, math.inf], [-math.inf, math.inf], [math.nan, 1.0]],
        ids=["inf", "inf-minus-inf", "nan"],
    )
    def test_mc_mean_refuses_non_finite_samples_without_a_warning(self, values):
        with pytest.raises(NumericError, match="non-finite Monte Carlo estimate"):
            mc_mean(np.array(values))

    @pytest.mark.filterwarnings("error")
    def test_mc_mean_scales_a_spread_whose_squares_overflow(self):
        # scaling by a power of two is exact, so the fallback keeps every bit
        values = np.random.default_rng(5).standard_normal(1000) * 3.0 + 1.0
        est, se = mc_mean(values)
        assert mc_mean(values * 2.0**600) == (est * 2.0**600, se * 2.0**600)
        assert mc_mean(np.array([1e200, -1e200])) == (0.0, pytest.approx(1e200, rel=1e-15))
        assert mc_mean(np.array([1.7e308, -1.7e308])) == (0.0, pytest.approx(1.7e308, rel=1e-15))

    @pytest.mark.filterwarnings("error")
    def test_mc_mean_scales_a_sum_that_overflows(self):
        # the mean of finite values is finite, though their sum may not be
        assert mc_mean(np.array([1.7e308, 1.7e308])) == (1.7e308, 0.0)
        values = np.random.default_rng(5).standard_normal(1000) * 3.0 + 1.0
        est, se = mc_mean(values)
        big = values * 2.0**1020  # the sum passes 1.8e308, the largest value does not
        with np.errstate(over="ignore", invalid="ignore"):
            assert not np.isfinite(big.sum()) and np.isfinite(big).all()
        assert mc_mean(big) == (est * 2.0**1020, se * 2.0**1020)

    def test_cap_enforced(self):
        with pytest.raises(InputError):
            wick_moment(Constant(1.0), [E1] * 22)


class TestPositiveTypeGram:
    def test_gaussian_chi_is_positive_type(self):
        rng = np.random.default_rng(61)
        cov = Constant(1.0)
        points = []
        while len(points) < 8:
            cand = FiniteSequence.from_pairs(
                [(int(i), float(v)) for i, v in zip(rng.integers(1, 7, 3), rng.normal(size=3))]
            )
            if cand not in points:
                points.append(cand)
        report = positive_type_gram(lambda xi: chi(xi, cov), points)
        assert report.psd and report.min_eigenvalue >= -1e-10

    def test_single_point_identity(self):
        report = positive_type_gram(lambda xi: chi(xi, Constant(1.0)), [E1])
        assert report.min_eigenvalue == 1.0 and report.psd

    def test_constant_minus_one_is_not_psd(self):
        report = positive_type_gram(lambda xi: -1.0, [E1])
        assert not report.psd
        assert report.min_eigenvalue == -1.0

    def test_verdict_invariant_under_relabeling(self):
        rng = np.random.default_rng(62)
        points = [FiniteSequence(((int(i + 1), float(rng.normal())),)) for i in range(6)]
        base = positive_type_gram(lambda xi: chi(xi, Constant(1.0)), points)
        perm = [points[i] for i in rng.permutation(6)]
        again = positive_type_gram(lambda xi: chi(xi, Constant(1.0)), perm)
        assert again.psd == base.psd
        assert again.min_eigenvalue == pytest.approx(base.min_eigenvalue, abs=1e-12)

    def test_hermitian_extension(self):
        # characteristic function of a mean-shifted gaussian: complex but
        # still positive type, handled through the hermitian branch
        def shifted_chi(xi):
            return complex(
                math.cos(xi.value(1)) * chi(xi, Constant(1.0)),
                math.sin(xi.value(1)) * chi(xi, Constant(1.0)),
            )

        points = [E1.scale(t) for t in (0.0, 0.5, 1.0, 1.5, -0.7)]
        report = positive_type_gram(shifted_chi, points)
        assert report.psd

    def test_duplicate_points_rejected(self):
        with pytest.raises(InputError):
            positive_type_gram(lambda xi: 1.0, [E1, E1])

    def test_point_cap(self):
        points = [FiniteSequence(((i + 1, 1.0),)) for i in range(65)]
        with pytest.raises(InputError):
            positive_type_gram(lambda xi: 1.0, points)


_COV = Constant(1.0)


@pytest.mark.parametrize("call", [
    lambda: cm.haar_sample_batch(cm.FrequencySet((1.0, 2.0)), 10.5, 1),
    lambda: sample(_COV, 3.5, 1),
    lambda: sample(_COV, True, 1),
    lambda: draw_coordinates(_COV, 2, 10.5, np.random.default_rng(1)),
    lambda: mc_moment(_COV, [E1, E1], 10.5, 1),
    lambda: cm.mc_tail_growth(_COV, PowerDecay(1.0, 1.0), 100.5, 100, 1),
    lambda: cm.mc_tail_growth(_COV, PowerDecay(1.0, 1.0), 100, 100.5, 1),
    lambda: pairings(4.0),
    lambda: _COV.first(2.5),
    lambda: _COV.first(np.int64(3)),
    lambda: cm.ProductSampler(cm.ProductMeasureSpec(cm.Gaussian1D(1.0)), 2.5),
    lambda: cm.pushforward_integral_mc(
        cm.ProductSampler(cm.ProductMeasureSpec(cm.Gaussian1D(1.0)), 1),
        lambda x: x, lambda u: u[:, 0], 10.5, 1),
    lambda: cm.GridFunction(0.0, 0.1, 2.0, (1.0, 2.0)),
], ids=["haar-sample-batch", "sample", "sample-bool", "draw-coordinates", "mc-moment",
        "mc-tail-growth-coords", "mc-tail-growth-samples", "pairings", "first", "first-numpy",
        "product-sampler", "pushforward", "grid-count"])
def test_public_counts_refuse_a_non_integer(call):
    # a float once failed with a bare TypeError from numpy or a slice, and
    # a bool was read as 1
    with pytest.raises(InputError, match="must be an integer"):
        call()
