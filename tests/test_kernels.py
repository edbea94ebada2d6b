import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

from cylmeasure import cli, jsonio, kernels
from cylmeasure.errors import InputError, NumericError
from cylmeasure.kernels import (
    GridFunction,
    KernelRegularity,
    MassiveFree1D,
    TabulatedKernel,
    WhiteNoise,
    covariance_bilinear,
    kernel_fourier_quadrature,
)

# frozen: exp(-5)/2, checked against the quadrature below
KERNEL_M1_X5 = 0.0033689734995427335


def test_frozen_value_matches_closed_form():
    assert KERNEL_M1_X5 == math.exp(-5.0) / 2.0


def gaussian_bump(x0=-6.0, dx=0.12, count=101, center=0.0, width=1.0):
    xs = x0 + dx * np.arange(count)
    vals = np.exp(-((xs - center) ** 2) / (2.0 * width**2))
    return GridFunction(x0, dx, count, tuple(vals.tolist()))


class TestKernelEval:
    def test_value_at_origin(self):
        assert MassiveFree1D(1.0).at(0.0) == 0.5

    def test_evenness(self):
        k = MassiveFree1D(0.7)
        for x in (0.3, 1.5, 4.0):
            assert k.at(x) == k.at(-x)

    def test_far_value(self):
        assert MassiveFree1D(1.0).at(5.0) == pytest.approx(
            KERNEL_M1_X5, rel=1e-15
        )

    def test_strictly_decreasing_in_distance(self):
        k = MassiveFree1D(2.0)
        vals = [k.at(x) for x in np.linspace(0.0, 3.0, 10)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert all(v > 0 for v in vals)

    def test_total_mass(self):
        for m in (0.5, 1.0, 2.0):
            mass, _ = quad(lambda x: MassiveFree1D(m).at(x), -np.inf, np.inf)
            assert mass == pytest.approx(1.0 / m**2, abs=1e-6)

    def test_white_noise_has_no_pointwise_kernel(self):
        with pytest.raises(InputError):
            WhiteNoise(1.0).at(0.0)

    def test_tabulated_interpolation(self):
        tab = TabulatedKernel((0.0, 1.0, 2.0), (0.0, 2.0, 0.0))
        assert tab.at(0.5) == 1.0
        with pytest.raises(InputError):
            tab.at(3.0)


class TestFourierQuadrature:
    def test_truncated_value_at_origin(self):
        res = kernel_fourier_quadrature(1.0, 0.0, p_cutoff=1e4, tol=1e-4)
        # closed form of the truncated integral: arctan(P)/pi
        assert res.value == pytest.approx(math.atan(1e4) / math.pi, abs=1e-8)
        assert abs(res.value - 0.5) < 1e-4

    def test_mass_two_at_origin(self):
        res = kernel_fourier_quadrature(2.0, 0.0, p_cutoff=1e7, tol=1e-6)
        assert res.value == pytest.approx(0.25, abs=1e-6)

    def test_agreement_with_closed_form_on_a_grid(self):
        worst = 0.0
        for x in np.linspace(-5.0, 5.0, 41):
            res = kernel_fourier_quadrature(1.0, float(x), p_cutoff=1e7, tol=5e-7)
            worst = max(worst, abs(res.value - MassiveFree1D(1.0).at(float(x))))
        assert worst < 1e-6

    def test_error_budget_is_reported(self):
        res = kernel_fourier_quadrature(1.0, 1.0, p_cutoff=1e7, tol=1e-6)
        assert res.tail_bound <= res.error_bound <= 1e-6
        assert res.quad_error >= 0

    def test_unreachable_tolerance_carries_achieved_bound(self):
        with pytest.raises(NumericError) as err:
            kernel_fourier_quadrature(1.0, 0.0, p_cutoff=10.0, tol=1e-9)
        assert err.value.context["achieved"] > 1e-9

    def test_parameter_validation(self):
        with pytest.raises(InputError):
            kernel_fourier_quadrature(-1.0, 0.0)
        with pytest.raises(InputError):
            kernel_fourier_quadrature(1.0, 0.0, tol=0.0)

    @pytest.mark.parametrize("tol", [math.nan, 0.0, -1.0, math.inf])
    def test_tolerance_must_be_positive_and_finite(self, tol):
        # a nan tolerance once got past the check and failed as "above tolerance nan"
        with pytest.raises(InputError, match=r"^tolerance must be (a finite number|> 0), got "):
            kernel_fourier_quadrature(1.0, 0.5, tol=tol)

    @pytest.mark.parametrize("m", [0.5, 1.0, 2.0])
    def test_bound_covers_closed_form_and_quadpack_on_the_selftest_grid(self, m):
        # QUADPACK is an independent oracle here only: (1/pi) int_0^inf with the
        # Fourier-cosine weight, against the closed form exp(-m|x|)/(2m)
        for x in np.linspace(-5.0, 5.0, 101):
            res = kernel_fourier_quadrature(m, float(x), p_cutoff=1e7, tol=5e-7)
            assert res.error_bound <= 5e-7
            assert abs(res.value - MassiveFree1D(m).at(float(x))) <= res.error_bound
            if x == 0.0:
                oracle, oracle_err = quad(lambda p: 1.0 / (m * m + p * p), 0.0, np.inf)
            else:
                oracle, oracle_err = quad(
                    lambda p: 1.0 / (m * m + p * p), 0.0, np.inf, weight="cos", wvar=abs(x)
                )
            assert abs(res.value - oracle / math.pi) <= res.error_bound + oracle_err / math.pi

    @pytest.mark.parametrize("m", [1e-300, 1e-8, 1e-3, 0.5, 1.0, 2.0, 1e3, 1e150])
    @pytest.mark.parametrize("x", [0.0, 1e-8, 0.5, 5.0, 1e4, 1e12, 1e300])
    def test_cli_contract_grid(self, capsys, m, x):
        code = cli.main(["kernel", "--fourier", repr(m), repr(x)])
        out, err = capsys.readouterr()
        assert "Traceback" not in err
        if code == 0:
            payload = json.loads(out)["payload"]
            exact = math.exp(-m * abs(x)) / (2.0 * m)
            assert abs(payload["value"] - exact) <= payload["error_bound"] <= 1e-6
        else:
            assert code in (2, 3) and out == "" and err.strip()

    def test_reported_cutoff_is_the_truncation_used(self):
        res = kernel_fourier_quadrature(1.0, 5.0, p_cutoff=1e7, tol=5e-7)
        assert res.p_cutoff < 1e7
        # the second mean-value bound 2/(pi |x| (m^2 + A^2)) takes half of tol
        assert 2.0 / (math.pi * 5.0 * (1.0 + res.p_cutoff**2)) == pytest.approx(2.5e-7)
        assert kernel_fourier_quadrature(1.0, 0.0, p_cutoff=1e7, tol=5e-7).p_cutoff == 1e7

    def test_node_budget_is_checked_before_allocation(self):
        with pytest.raises(NumericError, match="exceed the budget"):
            kernel_fourier_quadrature(1e-3, 1e12)


class TestGaussLegendreTable:
    """The 24-point rule is a literal table, checked here against
    ``numpy.polynomial.legendre.leggauss`` and the exact moments of [-1, 1]."""

    def test_rule_is_exactly_symmetric(self):
        nodes, weights = kernels._gauss_legendre_rule()
        assert nodes.shape == weights.shape == (24,)
        assert np.array_equal(nodes, -nodes[::-1])
        assert np.array_equal(weights, weights[::-1])
        assert (np.diff(nodes) > 0).all() and (weights > 0).all()

    def test_rule_matches_leggauss(self):
        # a tolerance, not equality: another numpy or LAPACK build may
        # differ from the one the table was read from in the last bit
        nodes, weights = kernels._gauss_legendre_rule()
        want_nodes, want_weights = np.polynomial.legendre.leggauss(24)
        np.testing.assert_array_max_ulp(nodes, want_nodes, maxulp=4)
        np.testing.assert_array_max_ulp(weights, want_weights, maxulp=4)

    @pytest.mark.parametrize("k", range(48))
    def test_rule_integrates_monomials_to_degree_47(self, k):
        # leggauss's weights, kept for byte-identical values, sit up to about
        # 1.1e3 ulps off the exact Gauss weights (the outermost one), so the
        # even moments agree to about 2^-44 of sum |w t^k|; odd terms cancel
        # in pairs, exactly
        nodes, weights = kernels._gauss_legendre_rule()
        terms = [w * t**k for t, w in zip(nodes.tolist(), weights.tolist())]
        got = math.fsum(terms)
        if k % 2:
            assert got == 0.0
        else:
            bound = 2.0**-42 * math.fsum(map(abs, terms))
            assert abs(Fraction(got) - Fraction(2, k + 1)) <= bound


class TestCovarianceBilinear:
    def test_white_noise_is_the_discrete_l2_product(self):
        f = gaussian_bump()
        g = gaussian_bump(center=0.5)
        w = f.trapezoid_weights()
        expected = 2.5 * float(np.sum(w * np.asarray(f.values) * np.asarray(g.values)))
        assert covariance_bilinear(WhiteNoise(2.5), f, g) == expected

    def test_white_noise_normalized_bump_gives_sigma(self):
        f = gaussian_bump()
        w = f.trapezoid_weights()
        norm = math.sqrt(float(np.sum(w * np.asarray(f.values) ** 2)))
        unit = GridFunction(f.x0, f.dx, f.count, tuple(v / norm for v in f.values))
        assert covariance_bilinear(WhiteNoise(3.0), unit, unit) == pytest.approx(
            3.0, rel=1e-12
        )

    def test_zero_function_gives_zero(self):
        f = gaussian_bump()
        zero = GridFunction(f.x0, f.dx, f.count, (0.0,) * f.count)
        assert covariance_bilinear(MassiveFree1D(1.0), f, zero) == 0.0

    def test_massive_free_against_grid_refinement(self):
        # the same integral on a twice finer grid must agree within 1%
        coarse_f = gaussian_bump(x0=-6.0, dx=0.12, count=101)
        fine_f = gaussian_bump(x0=-6.0, dx=0.06, count=201)
        coarse = covariance_bilinear(MassiveFree1D(1.0), coarse_f, coarse_f)
        fine = covariance_bilinear(MassiveFree1D(1.0), fine_f, fine_f)
        assert coarse == pytest.approx(fine, rel=0.01)
        assert fine > 0

    def test_symmetry_and_positivity_on_random_bumps(self):
        rng = np.random.default_rng(17)
        for spec in (MassiveFree1D(0.8), WhiteNoise(1.2)):
            for _ in range(5):
                f = gaussian_bump(center=float(rng.uniform(-2, 2)), width=float(rng.uniform(0.5, 2)))
                g = gaussian_bump(center=float(rng.uniform(-2, 2)), width=float(rng.uniform(0.5, 2)))
                assert covariance_bilinear(spec, f, g) == pytest.approx(
                    covariance_bilinear(spec, g, f), rel=1e-12
                )
                assert covariance_bilinear(spec, f, f) > 0

    @pytest.mark.parametrize("count", [2, 3, 64, 65, 1201])
    @pytest.mark.parametrize("m_dx", [1e-4, 1e-2, 1.0, 30.0, 800.0])
    def test_massive_free_recursion_matches_the_dense_matrix(self, count, m_dx):
        # the dense N x N kernel matrix is the reference; 64 and 65 straddle
        # one scan block; at m*dx = 800 the ratio exp(-m*dx) underflows to 0
        # and only the diagonal is left
        m, x0 = 1.3, -2.0
        dx = m_dx / m
        xs = x0 + dx * np.arange(count)
        f = GridFunction(x0, dx, count, tuple(np.exp(-0.5 * (xs / (dx * count)) ** 2).tolist()))
        g = GridFunction(x0, dx, count, tuple((1.0 + np.cos(xs / (dx * count))).tolist()))
        w = f.trapezoid_weights()
        kmat = np.exp(-m * np.abs(xs[:, None] - xs[None, :])) / (2.0 * m)
        dense = float((w * np.asarray(f.values)) @ kmat @ (w * np.asarray(g.values)))
        assert covariance_bilinear(MassiveFree1D(m), f, g) == pytest.approx(dense, rel=1e-12)

    def test_massive_free_memory_is_linear_in_the_grid(self):
        # a dense kernel matrix at this size would be 2 x 128 MB
        f = gaussian_bump(x0=-6.0, dx=12.0 / 4000, count=4001)
        tracemalloc.start()
        try:
            covariance_bilinear(MassiveFree1D(1.0), f, f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_tabulated_form_holds_one_kernel_matrix(self):
        # the N x N matrix is one copy of a strided view of the 2N - 1 lag
        # values: the peak holds that one matrix and no N x N index array
        n = 2000
        grid = np.linspace(-5.0, 5.0, 4001)
        tab = TabulatedKernel(tuple(grid.tolist()), tuple((np.exp(-np.abs(grid)) + grid).tolist()))
        rng = np.random.default_rng(3)
        f, g = (GridFunction(-1.0, 2.0 / (n - 1), n, tuple(rng.normal(size=n).tolist()))
                for _ in range(2))
        covariance_bilinear(tab, f, g)  # numpy's first-call allocations stay out of the peak
        tracemalloc.start()
        try:
            value = covariance_bilinear(tab, f, g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * n * n * 8
        row = np.interp(f.dx * np.arange(1 - n, n), grid, tab.values)
        index = np.arange(n)
        kmat = row[np.subtract.outer(index, index) + (n - 1)]
        assert value == float(f.weighted() @ kmat @ g.weighted())

    def test_tabulated_kernel_matches_its_closed_form(self):
        grid = np.linspace(-15.0, 15.0, 3001)
        tab = TabulatedKernel(
            tuple(grid.tolist()),
            tuple((np.exp(-np.abs(grid)) / 2.0).tolist()),
        )
        f = gaussian_bump()
        exact = covariance_bilinear(MassiveFree1D(1.0), f, f)
        assert covariance_bilinear(tab, f, f) == pytest.approx(exact, rel=1e-3)

    def test_tabulated_range_must_cover_differences(self):
        tab = TabulatedKernel((-1.0, 1.0), (1.0, 1.0))
        f = gaussian_bump()  # spans 12 units
        with pytest.raises(InputError, match="outside the tabulated range"):
            covariance_bilinear(tab, f, f)

    def test_table_ending_at_the_last_lag_is_accepted(self):
        # 8 * 0.07 == 0.56, while x_8 - x_0 of the grid -5 + 0.07 i is an ulp
        # above it: the range check reads the lags k * dx, not the differences
        tab = TabulatedKernel((-0.56, 0.0, 0.56), (0.0, 1.0, 0.0))
        g = GridFunction(-5.0, 0.07, 9, (0, 0.5, 1, 1, 1, 1, 1, 0.5, 0))
        assert 8 * 0.07 == 0.56 and g.xs[8] - g.xs[0] > 0.56
        # the hat kernel is 1 - |k|/8 at the lag k * dx
        c = [Fraction(7, 100) * Fraction(v) * (Fraction(1, 2) if i in (0, 8) else 1)
             for i, v in enumerate(g.values)]
        exact = sum(a * b * (1 - Fraction(abs(i - j), 8))
                    for i, a in enumerate(c) for j, b in enumerate(c))
        assert covariance_bilinear(tab, g, g) == pytest.approx(float(exact), rel=1e-15)
        doc = json.dumps({"x0": -5.0, "dx": 0.07, "count": 9, "values": list(g.values)})
        spec = json.dumps({"tabulated": {"grid": list(tab.grid), "values": list(tab.values)}})
        assert cli.main(["kernel", "--spec", spec, "--bilinear", doc, doc]) == 0

    def test_tabulated_matches_the_dense_matrix_of_differences(self):
        # an odd table, so that the orientation K(x_i - x_j) shows, ending at
        # the float (N - 1) * dx, against the matrix of the grid differences
        # clipped into the table
        for seed in range(20):
            rng = np.random.default_rng(seed)
            count, dx = int(rng.integers(2, 60)), float(rng.uniform(0.01, 0.5))
            end = (count - 1) * dx
            grid = np.linspace(-end, end, 2 * count + 1)
            tab = TabulatedKernel(tuple(grid.tolist()), tuple((np.exp(-grid**2) + grid).tolist()))
            x0 = float(rng.uniform(-3, 3))
            f, g = (GridFunction(x0, dx, count, tuple(rng.uniform(-1, 1, count).tolist()))
                    for _ in range(2))
            kmat = np.interp(np.clip(np.subtract.outer(f.xs, f.xs), -end, end), grid, tab.values)
            wf, wg = (h.trapezoid_weights() * np.asarray(h.values) for h in (f, g))
            scale = float(np.abs(wf) @ np.abs(kmat) @ np.abs(wg))
            assert abs(covariance_bilinear(tab, f, g) - float(wf @ kmat @ wg)) <= 1e-13 * scale

    def test_incompatible_grids_rejected(self):
        f = gaussian_bump(count=101)
        g = gaussian_bump(count=51)
        with pytest.raises(InputError, match="incompatible grids"):
            covariance_bilinear(MassiveFree1D(1.0), f, g)


class TestRegularityFlag:
    def test_white_noise_flag(self):
        assert WhiteNoise(1.0).regularity is KernelRegularity.NOWHERE_SIGNED_MEASURE

    def test_massive_free_flag(self):
        assert MassiveFree1D(2.0).regularity is KernelRegularity.CONTINUOUS_KERNEL

    def test_tabulated_kernels_are_undecided(self, capsys):
        # a smooth sample and a step: finitely many values fix no continuity class
        smooth = np.linspace(-3.0, 3.0, 301)
        step = np.linspace(-1.0, 1.0, 201)
        tables = [
            TabulatedKernel(tuple(smooth.tolist()), tuple(np.exp(-np.abs(smooth)).tolist())),
            TabulatedKernel(
                tuple(step.tolist()), tuple(np.where(np.abs(step) < 0.01, 1.0, 0.001).tolist())
            ),
        ]
        for tab in tables:
            assert tab.regularity is KernelRegularity.UNDECIDED
            spec = json.dumps({"tabulated": {"grid": list(tab.grid), "values": list(tab.values)}})
            assert cli.main(["kernel", "--spec", spec, "--regularity"]) == 0
            assert json.loads(capsys.readouterr().out)["payload"] == {"regularity": "undecided"}


# one document per declared kernel variant; a variant missing here fails below
KERNEL_DOCS = {
    "white_noise": {"sigma": 2.0},
    "massive_free_1d": {"m": 1.5},
    "tabulated": {"grid": [-20.0, 0.0, 20.0], "values": [0.0, 1.0, 0.0]},
}


@pytest.mark.parametrize("variant", sorted(jsonio.SCHEMA["kernel"]))
def test_every_declared_kernel_answers_every_operation(variant):
    spec = jsonio.decode("kernel", {variant: KERNEL_DOCS[variant]}, "spec")
    if isinstance(spec, WhiteNoise):
        with pytest.raises(InputError, match="delta"):
            spec.at(0.5)
    else:
        assert 0.0 < spec.at(0.5) < math.inf
    f = gaussian_bump()
    assert covariance_bilinear(spec, f, f) > 0.0
    assert spec.bilinear(f, f) == covariance_bilinear(spec, f, f)
    assert isinstance(spec.regularity, KernelRegularity)


class TestGridFunction:
    def test_validation(self):
        with pytest.raises(InputError):
            GridFunction(0.0, 0.1, 1, (1.0,))
        with pytest.raises(InputError):
            GridFunction(0.0, -0.1, 3, (1.0, 2.0, 3.0))
        with pytest.raises(InputError):
            GridFunction(0.0, 0.1, 3, (1.0, 2.0))

    def test_xs_and_weights(self):
        f = GridFunction(1.0, 0.5, 3, (1.0, 1.0, 1.0))
        assert f.xs.tolist() == [1.0, 1.5, 2.0]
        assert f.trapezoid_weights().tolist() == [0.25, 0.5, 0.25]
