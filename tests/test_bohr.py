import itertools
import math
import warnings

import numpy as np
import pytest

from cylmeasure import bohr
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
        with pytest.raises(InputError, match=r"search space 41\^5 exceeds the budget"):
            independence_check(five, 20)

    def test_bound_validation(self):
        with pytest.raises(InputError):
            independence_check(FrequencySet((1.0,)), 0)

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

    @pytest.mark.parametrize("n_axes, points", [(1, 3), (2, 8), (4, 10)])
    def test_vectorized_integrand_is_evaluated_once_on_the_fine_grid(self, n_axes, points):
        calls = []

        def f(th):
            calls.append(th.shape)
            return np.cos(th).sum(axis=1)

        gamma = FrequencySet(tuple(math.sqrt(q) for q in (2.0, 3.0, 5.0, 7.0)[:n_axes]))
        haar_cylinder_integral(gamma, f, QuadratureMethod(points))
        assert calls == [((2 * points) ** n_axes, n_axes)]

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
