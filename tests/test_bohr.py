import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from cylmeasure import bohr
from cylmeasure._pairwise import StreamSum
from cylmeasure.bohr import (
    FrequencySet,
    IndependenceResult,
    MCMethod,
    QuadratureMethod,
    haar_cylinder_integral,
    haar_sample_batch,
    independence_check,
)
from cylmeasure.errors import InputError, NumericError

SQRT2 = math.sqrt(2.0)


class TestFrequencySet:
    def test_validation(self):
        with pytest.raises(InputError):
            FrequencySet(())
        with pytest.raises(InputError):
            FrequencySet((1.0, 0.0))
        with pytest.raises(InputError):
            FrequencySet((1.0, 1.0))


class TestIndependenceCheck:
    def test_one_and_sqrt_two_are_independent_to_100(self):
        res = independence_check(FrequencySet((1.0, SQRT2)), 100)
        assert res.independent and res.bound == 100 and res.witness is None

    def test_one_and_two_have_minimal_witness(self):
        res = independence_check(FrequencySet((1.0, 2.0)), 10)
        assert not res.independent
        assert res.witness == (2, -1)
        assert 2 * 1.0 + (-1) * 2.0 == 0.0

    def test_single_frequency_always_independent(self):
        for k in (0.3, -2.0, math.pi):
            res = independence_check(FrequencySet((k,)), 1000)
            assert res.independent

    def test_three_frequency_relation(self):
        res = independence_check(FrequencySet((1.0, SQRT2, 1.0 + SQRT2)), 5)
        assert not res.independent
        assert res.witness == (1, 1, -1)

    def test_monotone_in_the_bound(self):
        gamma = FrequencySet((1.0, SQRT2))
        big = independence_check(gamma, 100)
        small = independence_check(gamma, 10)
        assert big.independent and small.independent

    def test_rational_pair_witness_scales(self):
        res = independence_check(FrequencySet((2.0, 3.0)), 10)
        assert not res.independent
        assert res.witness == (3, -2)

    @pytest.mark.parametrize(
        "freqs, bound",
        [
            ((1.0, 3.0), 4),  # planted 3*k1 = k2
            ((SQRT2, 1.0), 6),  # no relation
            ((1.0, SQRT2, 2.0 - SQRT2), 3),  # planted k3 = 2 k1 - k2
            ((0.5, math.pi, 1.5, SQRT2), 3),  # planted 3 k1 = k3, pi and sqrt2 free
            ((1.0, SQRT2, math.pi, math.e), 3),  # no relation
            ((-2.0, SQRT2, 5.0, 2.0 * SQRT2, 0.25), 2),  # several relations
            ((math.sqrt(3), math.sqrt(5), math.sqrt(7), math.sqrt(11), math.sqrt(13)), 2),
            ((1e-8, 3e-8, 1.0, 2.0), 3),  # tiny frequencies next to large ones
            ((1.0, 2.0, 1e-15, 2e-15), 3),  # every tail half-sum in the head's window
            ((0.1, 0.2, 0.3), 3),  # decimal inputs: relations hold only to round-off
            ((0.1, 0.7, 0.3, 0.5), 3),
        ],
    )
    def test_meet_in_the_middle_matches_brute_force(self, freqs, bound, monkeypatch):
        hits = []
        for m in itertools.product(range(-bound, bound + 1), repeat=len(freqs)):
            terms = [mi * k for mi, k in zip(m, freqs)]
            if any(m) and abs(sum(terms)) <= 1e-12 * sum(abs(t) for t in terms):
                first = next(v for v in m if v)
                hits.append(m if first > 0 else tuple(-v for v in m))
        if hits:
            witness = min(hits, key=lambda m: (max(map(abs, m)), m))
            expected = IndependenceResult(False, bound, witness)
        else:
            expected = IndependenceResult(True, bound)
        assert independence_check(FrequencySet(freqs), bound) == expected
        # candidate pairs re-tested a few heads at a time
        monkeypatch.setattr(bohr, "_PAIR_BLOCK", 3)
        assert independence_check(FrequencySet(freqs), bound) == expected

    def test_budget_enforced(self):
        with pytest.raises(InputError, match="budget"):
            independence_check(FrequencySet((1.0, SQRT2, math.pi, math.e)), 100)

    def test_budget_edge(self):
        # 39^5 = 90,224,199 vectors fit SEARCH_BUDGET = 10^8 and 41^5 do not
        five = FrequencySet((1.0, SQRT2, math.pi, math.e, math.sqrt(3.0)))
        assert independence_check(five, 19) == IndependenceResult(True, 19)
        # 41^5 = 115,856,201
        with pytest.raises(InputError, match=r"^search space 115856201 exceeds the budget of 100000000$"):
            independence_check(five, 20)

    def test_bound_validation(self):
        with pytest.raises(InputError):
            independence_check(FrequencySet((1.0,)), 0)

    @pytest.mark.parametrize("bound", [2.5, True], ids=["2.5", "True"])
    def test_bound_must_be_an_int(self, bound):
        # 2.5 searched half-integer coefficients and missed the relation (2, -1);
        # True was echoed back as the bound
        with pytest.raises(InputError, match=r"^coefficient bound must be an integer, got "):
            independence_check(FrequencySet((1.0, 2.0)), bound)

    @pytest.mark.parametrize(
        "freqs, bound", [((1e308, 1.5), 3), ((1.7e308, -8.5e307), 1)], ids=["3e308", "2.55e308"]
    )
    def test_overflowing_combinations_are_refused(self, freqs, bound):
        # the half-sums would overflow to inf, and inf <= tol * inf passes the null test
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError, match=r"exceeds 2\^1020; the sums would overflow"):
                independence_check(FrequencySet(freqs), bound)


class TestHaarSample:
    def test_determinism(self):
        gamma = FrequencySet((1.0, SQRT2))
        a = haar_sample_batch(gamma, 1, seed=5)[0]
        b = haar_sample_batch(gamma, 1, seed=5)[0]
        assert np.array_equal(a, b)
        assert a.shape == (2,)

    def test_phases_in_range(self):
        batch = haar_sample_batch(FrequencySet((1.0, SQRT2, math.pi)), 10_000, seed=6)
        assert batch.shape == (10_000, 3)
        assert np.all((batch >= 0.0) & (batch < 2.0 * math.pi))

    def test_character_mean_vanishes(self):
        batch = haar_sample_batch(FrequencySet((1.0,)), 1_000_000, seed=7)
        z = np.exp(1j * batch[:, 0])
        se = math.sqrt(
            (np.var(z.real, ddof=1) + np.var(z.imag, ddof=1)) / len(z)
        )
        assert abs(z.mean()) < 4 * se

    def test_unit_modulus_exact(self):
        batch = haar_sample_batch(FrequencySet((1.0,)), 1000, seed=8)
        z = np.exp(1j * batch[:, 0])
        assert np.mean(np.abs(z) ** 2) == 1.0


def _two_grid_oracle(f, n_axes, points):
    """Reference quadrature: the fine and the coarse grid each built by
    meshgrid + stack and f evaluated on both; returns (value, error_bound)."""

    def grid_mean(size):
        theta = 2.0 * math.pi * np.arange(size) / size
        mesh = np.meshgrid(*([theta] * n_axes), indexing="ij")
        flat = np.stack([m.reshape(-1) for m in mesh], axis=1)
        return complex(np.asarray(f(flat), dtype=complex).mean())

    coarse = grid_mean(points)
    fine = grid_mean(2 * points)
    return fine, abs(fine - coarse) + 1e-14


class TestHaarIntegral:
    def setup_method(self):
        self.gamma2 = FrequencySet((1.0, SQRT2))
        self.quad = QuadratureMethod(points_per_axis=16)

    def test_pure_character_integrates_to_zero(self):
        res = haar_cylinder_integral(
            FrequencySet((1.0,)), lambda th: np.exp(1j * th[..., 0]), self.quad
        )
        assert abs(res.value) < 1e-8

    def test_constant_one(self):
        res = haar_cylinder_integral(self.gamma2, lambda th: np.ones(th.shape[0]), self.quad)
        assert res.value == 1.0

    def test_cross_character_orthogonality(self):
        res = haar_cylinder_integral(
            self.gamma2,
            lambda th: np.exp(1j * th[..., 0]) * np.exp(-1j * th[..., 1]),
            self.quad,
        )
        assert abs(res.value) < 1e-8

    @pytest.mark.parametrize(
        "method", [QuadratureMethod(4), MCMethod(100, seed=1)], ids=["quadrature", "mc"]
    )
    def test_every_method_integrates_through_the_entry_point(self, method):
        def f(th):
            return 1.0 + np.cos(th[..., 0]) * np.sin(th[..., 1])

        res = haar_cylinder_integral(self.gamma2, f, method)
        assert res == method.integrate(self.gamma2, f)
        assert abs(res.value - 1.0) <= max(4 * res.error_bound, 1e-14)

    @pytest.mark.parametrize(
        "method", [QuadratureMethod(4), MCMethod(100, seed=1)], ids=["quadrature", "mc"]
    )
    def test_scalar_integrand_is_refused(self, method):
        with pytest.raises(InputError, match=r"shape \(\d+,\), got \(\)"):
            haar_cylinder_integral(self.gamma2, lambda th: 1.0, method)

    @pytest.mark.parametrize(
        "make, what",
        [(lambda: QuadratureMethod(3.5), "points per axis"),
         (lambda: MCMethod(10.5, 1), "n_samples")],
        ids=["quadrature", "mc"],
    )
    def test_method_counts_must_be_ints(self, make, what):
        # a float count used to reach numpy as a shape and fail with a bare TypeError
        with pytest.raises(InputError, match=rf"^{what} must be an integer, got "):
            make()

    @pytest.mark.parametrize("points", [2, 3, 8, 10])
    @pytest.mark.parametrize("n_axes", [1, 2, 3, 4])
    def test_one_grid_matches_the_two_grid_oracle(self, n_axes, points):
        # poles at distance acosh(1.5) from the real torus on every axis: the
        # coarse grid is far from converged, so its nodes show in the bound
        gamma = FrequencySet(tuple(math.sqrt(q) for q in (2.0, 3.0, 5.0, 7.0)[:n_axes]))

        def f(th):
            return np.exp(1j * th[..., 0]) / np.prod(1.5 + np.cos(th + 0.3), axis=-1)

        res = haar_cylinder_integral(gamma, f, QuadratureMethod(points))
        value, bound = _two_grid_oracle(f, n_axes, points)
        assert res.value == value
        assert abs(res.error_bound - bound) <= 1e-15

    @pytest.mark.parametrize(
        "n_axes, points", [(1, 3), (2, 8), (4, 10), (4, 11), (3, 24), (1, 5000)]
    )
    def test_vectorized_integrand_is_called_on_blocks_that_tile_the_fine_grid(self, n_axes, points):
        # (4, 10): 20 blocks of one leading slice (8,000 rows); (4, 11): slices of
        # 10,648 rows, each split in two; (3, 24): three slices a block
        blocks = []

        def f(th):
            blocks.append(th.copy())
            return np.cos(th).sum(axis=1)

        gamma = FrequencySet(tuple(math.sqrt(q) for q in (2.0, 3.0, 5.0, 7.0)[:n_axes]))
        haar_cylinder_integral(gamma, f, QuadratureMethod(points))
        size = 2 * points
        theta = 2.0 * math.pi * np.arange(size) / size
        mesh = np.meshgrid(*([theta] * n_axes), indexing="ij")
        nodes = np.stack([m.reshape(-1) for m in mesh], axis=1)
        # the fine grid's nodes are distinct, so an exact tiling evaluates each once
        assert sum(len(b) for b in blocks) == size**n_axes
        assert np.array_equal(np.concatenate(blocks), nodes)
        assert max(len(b) for b in blocks) <= 2**13
        if size**n_axes <= 2**13:
            assert len(blocks) == 1

    def test_mc_draws_in_blocks_the_phases_of_haar_sample_batch(self):
        gamma = FrequencySet((1.0, SQRT2, math.pi))
        blocks = []

        def f(th):
            blocks.append(th.copy())
            return np.exp(1j * th[:, 0]) * np.cos(th[:, 1] - th[:, 2]) + 0.5

        n, seed = 2 * 2**13 + 5, 21
        res = haar_cylinder_integral(gamma, f, MCMethod(n, seed))
        assert [len(b) for b in blocks] == [2**13, 2**13, 5]
        points = haar_sample_batch(gamma, n, seed)
        assert np.array_equal(np.concatenate(blocks), points)
        # the unblocked estimator: f on every draw at once
        vals = np.asarray(f(points), dtype=complex)
        se = math.sqrt((np.var(vals.real, ddof=1) + np.var(vals.imag, ddof=1)) / n)
        assert res.value == complex(vals.mean()) and res.error_bound == se

    def test_default_quadrature_on_four_axes_holds_few_nodes_at_once(self):
        # 2^20 nodes: the complex value vector alone is 16 MB; the nodes and
        # the integrand's temporaries are held a block at a time
        gamma = FrequencySet(tuple(math.sqrt(q) for q in (2.0, 3.0, 5.0, 7.0)))
        m = np.array([1.0, -2.0, 3.0, 0.0])

        def f(th):
            return np.exp(1j * (th @ m)) + 1.0

        haar_cylinder_integral(gamma, f, QuadratureMethod(2))  # warm imports
        tracemalloc.start()
        try:
            res = haar_cylinder_integral(gamma, f, QuadratureMethod())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24 * 2**20
        assert abs(res.value - 1.0) < 1e-12

    @pytest.mark.parametrize(
        "n_axes, points", [(4, 16), (1, 2**20), (2, 724), (3, 13), (4, 11), (1, 4097)]
    )
    def test_streamed_means_equal_the_means_of_whole_grids(self, n_axes, points):
        # fine grids cut into many runs ((1, 2^20): 256 of 8,192 values), runs
        # of unequal length ((3, 13): 4,392 and 4,396 values), an odd coarse
        # run ((4, 11): 7,321 values), blocks that end inside a run ((2, 724):
        # 7,240 rows) and a fine grid just past one run ((1, 4097): 8,194)
        gamma = FrequencySet(tuple(math.sqrt(q) for q in (2.0, 3.0, 5.0, 7.0)[:n_axes]))

        def f(th):
            return np.exp(1j * th[..., 0]) / np.prod(1.5 + np.cos(th + 0.3), axis=-1)

        res = haar_cylinder_integral(gamma, f, QuadratureMethod(points))
        assert (res.value, res.error_bound) == _two_grid_oracle(f, n_axes, points)

    @pytest.mark.parametrize("n_axes, points", [(4, 16), (1, 2**20)])
    def test_quadrature_holds_no_grid_sized_vector(self, n_axes, points):
        # the grid's complex values alone are 16 MB at (4, 16) and 32 MB at
        # (1, 2^20); what is held is a block, the grid of the other axes and
        # one buffer per streamed mean
        gamma = FrequencySet(tuple(math.sqrt(q) for q in (2.0, 3.0, 5.0, 7.0)[:n_axes]))
        m = np.array([1.0, -2.0, 3.0, 1.0])[:n_axes]

        def f(th):
            return np.exp(1j * (th @ m)) + 1.0

        haar_cylinder_integral(gamma, f, QuadratureMethod(2))  # warm imports
        tracemalloc.start()
        try:
            res = haar_cylinder_integral(gamma, f, QuadratureMethod(points))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
        assert abs(res.value - 1.0) < 1e-12

    def test_mc_route_agrees_with_quadrature(self):
        def f(th):
            return np.cos(th[..., 0]) ** 2 + 0.25 * np.cos(th[..., 1])

        exact = haar_cylinder_integral(self.gamma2, f, self.quad)
        mc = haar_cylinder_integral(self.gamma2, f, MCMethod(400_000, seed=9))
        assert abs(mc.value - exact.value) < 4 * mc.error_bound

    def test_translation_invariance(self):
        rng = np.random.default_rng(10)
        offset = rng.uniform(0.0, 2.0 * math.pi, 2)

        def f(th):
            return np.exp(1j * (2 * th[..., 0] - th[..., 1]))

        base = haar_cylinder_integral(self.gamma2, f, self.quad)
        moved = haar_cylinder_integral(self.gamma2, lambda th: f(th + offset), self.quad)
        assert abs(base.value - moved.value) <= (
            base.error_bound + moved.error_bound + 1e-8
        )

    def test_quadrature_axis_cap(self):
        gamma5 = FrequencySet((1.0, SQRT2, math.pi, math.e, math.sqrt(3.0)))
        with pytest.raises(InputError, match="axes"):
            haar_cylinder_integral(gamma5, lambda th: 1.0, self.quad)
        res = haar_cylinder_integral(
            gamma5, lambda th: np.ones(th.shape[0]), MCMethod(1000, seed=11)
        )
        assert res.value == pytest.approx(1.0)

    def test_nonfinite_integrand_rejected(self):
        with pytest.raises(NumericError):
            haar_cylinder_integral(
                FrequencySet((1.0,)),
                lambda th: np.full(th.shape[0], np.nan),
                self.quad,
            )

    def test_projection_consistency_of_marginals(self):
        # dropping one frequency from a joint sample leaves haar phases:
        # compare binned frequencies against an independent direct sampler
        big = haar_sample_batch(FrequencySet((1.0, SQRT2, math.pi)), 200_000, seed=12)
        small = haar_sample_batch(FrequencySet((1.0, SQRT2)), 200_000, seed=13)
        bins = np.linspace(0.0, 2.0 * math.pi, 21)
        h_marginal, _ = np.histogram(big[:, 0], bins=bins, density=True)
        h_direct, _ = np.histogram(small[:, 0], bins=bins, density=True)
        # each bin frequency has SE ~ sqrt(p(1-p)/n)/width; 5 sigma band
        p = 1.0 / 20.0
        width = bins[1] - bins[0]
        se = math.sqrt(2 * p * (1 - p) / 200_000) / width
        assert np.max(np.abs(h_marginal - h_direct)) < 5 * se


def _spread(rng, n, dtype):
    """n values whose magnitudes span 16 decades, so that sums in different
    orders round differently."""
    values = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 8, n)
    if dtype is np.complex128:
        values = values + 1j * rng.standard_normal(n) * 10.0 ** rng.integers(-8, 8, n)
    return values


class TestStreamSum:
    # the split rule is numpy's: a node of more than 128 scalars is cut at half
    # its scalar count rounded down to a multiple of 8, a complex value
    # counting as two; a numpy release that cuts otherwise fails here
    @pytest.mark.parametrize("dtype, piece", [(np.float64, 128), (np.complex128, 64)])
    def test_equals_numpy_sum_at_every_length_to_2000(self, dtype, piece):
        # runs of at most 128 scalars, so the tree is cut wherever numpy cuts it
        rng = np.random.default_rng(12)
        in_order_differs = 0
        for n in range(1, 2001):
            values = _spread(rng, n, dtype)
            stream = StreamSum(n, dtype, piece)
            for chunk in np.array_split(values, rng.integers(1, 9)):
                stream.add(chunk)
            assert stream.total() == values.sum(), n
            assert stream.mean() == complex(values.mean()), n
            in_order_differs += bool(np.cumsum(values)[-1] != values.sum())
        assert in_order_differs > 1000  # the values tell summation orders apart

    @pytest.mark.parametrize("dtype, piece", [(np.float64, 127), (np.complex128, 63),
                                              (np.float64, 4)])
    def test_refuses_a_piece_below_128_scalars(self, dtype, piece):
        # smaller runs are cut where numpy sums in one leaf, and a piece of 4
        # would recurse without end
        with pytest.raises(ValueError, match=f"^a piece of {piece} values holds fewer than 128"):
            StreamSum(5000, dtype, piece)

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_equals_numpy_sum_of_a_deep_tree(self, dtype):
        n = 2**21 + 3
        values = _spread(np.random.default_rng(13), n, dtype)
        stream = StreamSum(n, dtype, 2**13)
        for lo in range(0, n, 7240):
            stream.add(values[lo : lo + 7240])
        assert stream.total() == values.sum()
        assert stream.mean() == complex(values.mean())
