import dataclasses
import decimal
import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import oracles
import pytest
from hypothesis import assume, given, settings, strategies as st

from cylmeasure.errors import InputError, NumericError
from cylmeasure.measure_core import (
    ConstantFactorTail,
    CylinderSet,
    FullTail,
    Gaussian1D,
    Interval,
    MarginalTable,
    OneMinusGeometricTail,
    PointMass1D,
    ProductLimitReport,
    ProductMeasureSpec,
    ProductSampler,
    TabulatedTail,
    TailConstraints,
    Uniform1D,
    box_prob,
    consistency_check,
    countable_product_measure,
    cylinder_measure,
    increasing_limit,
    normalize_box,
    pushforward_integral_mc,
)

# prod_{k>=1} (1 - 2^-k), frozen from the pentagonal-number expansion
# sum_k (-1)^k (q^{k(3k-1)/2} + q^{k(3k+1)/2}) of oracles.euler_product
EULER_HALF = 0.2887880950866024


def test_frozen_euler_constant_matches_its_oracle():
    assert float(oracles.euler_product("0.5")) == EULER_HALF


class TestComponents:
    def test_gaussian_interval_probabilities(self):
        g = Gaussian1D(1.0)
        assert g.interval_prob(Interval(-math.inf, 0.0)) == 0.5
        assert g.interval_prob(Interval(-math.inf, math.inf)) == 1.0
        # central interval against the error function
        p = g.interval_prob(Interval(-1.0, 1.0))
        assert p == pytest.approx(math.erf(1.0 / math.sqrt(2.0)), abs=1e-15)
        # scaling: variance 4 doubles the length scale
        g4 = Gaussian1D(4.0)
        assert g4.interval_prob(Interval(-2.0, 2.0)) == pytest.approx(p, abs=1e-15)

    def test_uniform_and_point_mass(self):
        u = Uniform1D(0.0, 2.0)
        assert u.interval_prob(Interval(0.5, 1.0)) == 0.25
        assert u.interval_prob(Interval(-3.0, -1.0)) == 0.0
        assert u.interval_prob(Interval(1.0, 5.0)) == 0.5
        pm = PointMass1D(1.0)
        assert pm.interval_prob(Interval(1.0, 2.0)) == 1.0  # closed end contains the atom
        assert pm.interval_prob(Interval(1.5, 2.0)) == 0.0

    def test_box_prob_adds_disjoint_pieces(self):
        u = Uniform1D(0.0, 1.0)
        box = normalize_box((Interval(0.0, 0.2), Interval(0.5, 0.6)))
        assert box_prob(u, box) == pytest.approx(0.3)

    def test_normalize_merges_touching_intervals(self):
        box = normalize_box((Interval(0.0, 1.0), Interval(1.0, 2.0), Interval(3.0, 4.0)))
        assert box == (Interval(0.0, 2.0), Interval(3.0, 4.0))

    def test_malformed_interval(self):
        with pytest.raises(InputError):
            Interval(1.0, 0.0)


class TestCylinderMeasure:
    def test_uniform_half_boxes(self):
        spec = ProductMeasureSpec.identical(Uniform1D(0.0, 1.0))
        cyl = CylinderSet.from_boxes({1: [(0.0, 0.5)], 2: [(0.0, 0.5)]})
        assert cylinder_measure(spec, cyl) == 0.25

    def test_empty_base_is_whole_space(self):
        spec = ProductMeasureSpec.identical(Gaussian1D(1.0))
        assert cylinder_measure(spec, CylinderSet()) == 1.0

    def test_gaussian_negative_halfline(self):
        spec = ProductMeasureSpec.identical(Gaussian1D(1.0))
        cyl = CylinderSet.from_boxes({3: [(-math.inf, 0.0)]})
        assert cylinder_measure(spec, cyl) == 0.5

    def test_indexed_rule_resolves_overrides(self):
        spec = ProductMeasureSpec.indexed({2: Uniform1D(0.0, 1.0)}, Gaussian1D(1.0))
        cyl = CylinderSet.from_boxes({2: [(0.0, 0.25)], 5: [(-math.inf, 0.0)]})
        assert cylinder_measure(spec, cyl) == pytest.approx(0.25 * 0.5)

    def test_multiplicative_over_disjoint_bases(self):
        spec = ProductMeasureSpec.identical(Gaussian1D(2.0))
        c1 = CylinderSet.from_boxes({1: [(-1.0, 1.0)]})
        c2 = CylinderSet.from_boxes({2: [(0.0, math.inf)], 4: [(-2.0, 0.5)]})
        both = CylinderSet(c1.base + c2.base)
        assert cylinder_measure(spec, both) == pytest.approx(
            cylinder_measure(spec, c1) * cylinder_measure(spec, c2), abs=1e-15
        )

    def test_monotone_under_box_nesting(self):
        spec = ProductMeasureSpec.identical(Gaussian1D(1.0))
        small = CylinderSet.from_boxes({1: [(0.0, 1.0)]})
        large = CylinderSet.from_boxes({1: [(-0.5, 2.0)]})
        assert cylinder_measure(spec, small) <= cylinder_measure(spec, large)


class TestCountableProduct:
    def test_finite_prefix_with_trivial_tail(self):
        spec = ProductMeasureSpec.identical(Uniform1D(0.0, 1.0))
        constraints = TailConstraints(
            prefix=CylinderSet.from_boxes({1: [(0.0, 0.5)], 2: [(0.0, 0.5)]}),
            tail=FullTail(),
        )
        report = countable_product_measure(spec, constraints)
        assert report.value == 0.25
        assert report.converged and report.n_factors == 0

    def test_euler_product_against_pentagonal_series(self):
        spec = ProductMeasureSpec.identical(Uniform1D(0.0, 1.0))
        report = countable_product_measure(
            spec, TailConstraints(tail=OneMinusGeometricTail(1.0, 0.5))
        )
        assert report.converged
        assert report.value == pytest.approx(EULER_HALF, abs=1e-9)
        assert abs(report.value - 0.288788) < 1e-6

    def test_constant_half_converges_to_zero(self):
        spec = ProductMeasureSpec.identical(Uniform1D(0.0, 1.0))
        report = countable_product_measure(
            spec, TailConstraints(tail=ConstantFactorTail(0.5))
        )
        assert report.value == 0.0
        assert report.converged

    @pytest.mark.parametrize("f", [0.0, 0.9, 1.0 - 1e-7, 1.0 - 1e-11, 1.0 - 1e-13])
    def test_constant_factor_below_one_is_decided_zero(self, f):
        # f**n -> 0 for every f < 1, however close to 1
        report = countable_product_measure(
            UNIFORM, TailConstraints(prefix=HALF_BOX, tail=ConstantFactorTail(f))
        )
        assert report == ProductLimitReport(0.0, 0, True, "converged")

    def test_constant_factor_one_keeps_the_prefix(self):
        report = countable_product_measure(
            UNIFORM, TailConstraints(prefix=HALF_BOX, tail=ConstantFactorTail(1.0))
        )
        assert report == ProductLimitReport(0.5, 0, True, "converged")

    def test_partial_products_nonincreasing(self):
        rng = np.random.default_rng(7)
        factors = rng.uniform(0.0, 1.0, 30)
        spec = ProductMeasureSpec.identical(Uniform1D(0.0, 1.0))
        values = [
            countable_product_measure(
                spec, TailConstraints(tail=TabulatedTail(tuple(factors[:k])))
            ).value
            for k in range(1, 31)
        ]
        assert all(a >= b for a, b in zip(values, values[1:]))


def product_by_loop(spec, constraints, tol=1e-12):
    """Reference, one factor at a time.  A table runs to its end; a
    geometric tail stops once its remainder bound c*q**(k+1)/(1-q) after
    k factors is at most tol.  A partial product at or below 1e-300 stops
    early as 0, except at the rule's last factor."""
    tail = constraints.tail
    table = isinstance(tail, TabulatedTail)

    def done(k):
        if table:
            return k == len(tail.factors)
        return tail.c * tail.q ** (k + 1) / (1 - tail.q) <= tol

    def factor(k):
        return tail.factors[k - 1] if table else 1.0 - tail.c * tail.q**k

    partial = cylinder_measure(spec, constraints.prefix)
    k = 0
    while not done(k):
        k += 1
        partial *= factor(k)
        if partial <= 1e-300:
            return ProductLimitReport(partial if done(k) else 0.0, k)
    return ProductLimitReport(partial, k)


def exact_partial_products(partial, c, q, n):
    """partial * prod_{k<=j} (1 - c q^k) for j = 0..n, of the floats c and q in
    60 digits, each factor clamped at 0 (the float check c*q <= 1 may pass
    an exact c q just above 1)."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        cq, qd = Decimal(c), Decimal(q)
        out = [Decimal(partial)]
        for _ in range(n):
            cq *= qd
            out.append(out[-1] * max(Decimal(0), 1 - cq))
        return out


def cut_at(c, q, n):
    """A tol whose factor count is n: the remainder bound after n + 1/2
    factors, half a factor of q away from the bounds of n and n + 1."""
    return c * q ** (n + 0.5) / (1 - q)


HALF_BOX = CylinderSet.from_boxes({1: [(0.0, 0.5)]})
UNIFORM = ProductMeasureSpec.identical(Uniform1D(0.0, 1.0))


class TestProductBlockScan:
    """The product stops exactly where a factor-by-factor loop stops."""

    @staticmethod
    def check(tail, tol=1e-12):
        """The report, checked against the factor-by-factor loop: a table's
        exactly, a geometric tail's value against the exact partial product."""
        constraints = TailConstraints(prefix=HALF_BOX, tail=tail)
        expected = product_by_loop(UNIFORM, constraints, tol)
        report = countable_product_measure(UNIFORM, constraints, tol)
        if isinstance(tail, OneMinusGeometricTail) and expected.value:
            # the loop itself is off by up to 7e-14 on (0.01, 0.9997)
            exact = exact_partial_products(0.5, tail.c, tail.q, expected.n_factors)[-1]
            assert report.value == pytest.approx(float(exact), rel=1e-14, abs=0.0)
            report = dataclasses.replace(report, value=expected.value)
        assert report == expected
        return report

    @pytest.mark.parametrize("length", [1, 4095, 4096, 4097, 8193])
    def test_table_ending_at_a_block_boundary(self, length):
        factors = np.random.default_rng(length).uniform(0.9999, 0.99999, length)
        report = self.check(TabulatedTail(tuple(factors.tolist())))
        assert report.n_factors == length and report.converged

    @pytest.mark.parametrize("n", [0, 1, 1000, 4096, 4097])
    def test_tol_fixes_where_the_scan_stops(self, n):
        tol = cut_at(0.01, 0.9997, n)
        report = self.check(OneMinusGeometricTail(0.01, 0.9997), tol)
        assert report.n_factors == n and report.converged

    def test_a_long_table_is_multiplied_to_its_end(self):
        # every listed factor enters, however many: no factor budget cuts a table
        factors = np.random.default_rng(20_000).uniform(0.9999, 0.99999, 20_000)
        report = self.check(TabulatedTail(tuple(factors.tolist())))
        assert report.n_factors == 20_000 and report.converged and report.value > 0.0

    @pytest.mark.parametrize(
        "tail, n_factors",
        [
            (OneMinusGeometricTail(1.0, 0.5), 40),  # 2^-40 <= 1e-12 < 2^-39
            (OneMinusGeometricTail(0.01, 0.9997), 103_776),
            (OneMinusGeometricTail(1e-3, 0.999), 27_617),
            (OneMinusGeometricTail(0.0, 0.5), 0),  # every factor is 1
            (OneMinusGeometricTail(2.0, 0.5), 1),  # c*q = 1: the first factor is 0
            (OneMinusGeometricTail(1.0, 5e-324), 0),  # the bound c*q/(1-q) is 5e-324
            (OneMinusGeometricTail(1e300, 1e-300), 1),  # c*q = 1; q**2 underflows
        ],
    )
    def test_remainder_bound_fixes_the_count(self, tail, n_factors):
        report = self.check(tail)
        assert report.converged and report.n_factors == n_factors

    @pytest.mark.parametrize(
        "c, q, tol",
        [(1.0, 0.5, 1e-12), (0.5, 0.9, 1e-12), (2.0, 0.5, 1e-300), (1e300, 1e-300, 1e-30)],
    )
    def test_count_is_the_least_with_an_exact_bound_below_tol(self, c, q, tol):
        def bound(n):  # c q^(n+1) / (1 - q), exactly
            return Fraction(c) * Fraction(q) ** (n + 1) / (1 - Fraction(q))

        n = OneMinusGeometricTail(c, q).count(tol)
        assert bound(n) <= Fraction(tol) and (n == 0 or bound(n - 1) > Fraction(tol))

    @pytest.mark.parametrize("c, q", [("1e-3", "0.999"), ("0.5", "0.9"), ("0.01", "0.9997")])
    def test_value_lies_within_tol_of_the_log_series_limit(self, c, q):
        # log prod (1 - c q^k) = -sum_m (c q)^m / (m (1 - q^m)), in 40 digits
        with decimal.localcontext() as ctx:
            ctx.prec = 40
            cd, qd = Decimal(c), Decimal(q)
            log = -sum((cd * qd) ** m / (m * (1 - qd**m)) for m in range(1, 150))
            limit = float(log.exp())
        tol = 1e-12
        report = countable_product_measure(
            UNIFORM, TailConstraints(tail=OneMinusGeometricTail(float(c), float(q))), tol=tol
        )
        v, rounding = report.value, 4 * report.n_factors * 2.0**-53
        assert report.converged
        assert v * (1 - tol) <= limit * (1 + rounding)
        assert limit <= v * (1 + rounding)

    @pytest.mark.parametrize(
        "tail",
        [
            TabulatedTail((0.0,) * 10),  # exact 0 at the first factor
            TabulatedTail((0.5,) * 2000),  # underflow at factor 996
            TabulatedTail((0.9,) * 8000),  # underflow at factor 6,550
        ],
    )
    def test_underflow(self, tail):
        report = self.check(tail)
        assert report.value == 0.0 and report.converged

    @pytest.mark.parametrize(
        "factors, value, n_factors",
        [
            ((0.5, 1.0, 0.5), 0.125, 3),  # the interior 1.0 does not stop the product
            ((1.0, 1.0, 0.25), 0.125, 3),
            ((0.5,) + (1.0,) * 4095 + (0.5,), 0.125, 4097),  # a long run of 1.0s
            ((), 0.5, 0),
        ],
    )
    def test_table_is_multiplied_to_its_end(self, factors, value, n_factors):
        report = self.check(TabulatedTail(factors))
        assert (report.value, report.n_factors, report.converged) == (value, n_factors, True)

    def test_table_product_without_prefix(self):
        for factors, value, n_factors in [((0.5, 1.0, 0.5), 0.25, 3), ((), 1.0, 0)]:
            report = countable_product_measure(
                UNIFORM, TailConstraints(tail=TabulatedTail(factors))
            )
            assert (report.value, report.n_factors, report.verdict) == (
                value, n_factors, "converged"
            )

    def test_underflow_on_the_last_listed_factor_keeps_the_partial(self):
        report = self.check(TabulatedTail((1e-160, 1e-150)))
        assert 0.0 < report.value <= 1e-300

    @pytest.mark.parametrize("factor", [1.5, -0.25, float("nan")])
    def test_tabulated_factor_outside_the_unit_interval_is_rejected(self, factor):
        refusal = r"^tabulated factor 2 must (lie in \[0, 1\]|be a finite number), got "
        with pytest.raises(InputError, match=refusal):
            TabulatedTail((0.5, factor, 0.5))

    @pytest.mark.parametrize(
        "c, q, message",
        [
            (4.0, 0.5, "must keep factors inside"),  # c*q = 2 > 1: the first factor is -1
            (-0.5, 0.5, "geometric tail c must be >= 0"),  # factors above 1
            (1.0, 0.0, r"geometric tail q must lie in \(0, 1\)"),
            (1.0, 1.0, r"geometric tail q must lie in \(0, 1\)"),
        ],
        # each id names the rule its case breaks
        ids=["4.0-0.5-must keep factors inside", "-0.5-0.5-must keep factors inside",
             "1.0-0.0-needs 0 < q < 1", "1.0-1.0-needs 0 < q < 1"],
    )
    def test_geometric_tail_outside_the_unit_interval_is_rejected(self, c, q, message):
        with pytest.raises(InputError, match=message):
            OneMinusGeometricTail(c, q)


def check_closed_form(c, q, tol):
    """The geometric tail's report against the exact partial products of the
    same floats up to ``count(tol)``: within 8 (1 + |log P|) 2^-53 of P, and
    on underflow at the least k whose exact partial product is <= 1e-300."""
    tail = OneMinusGeometricTail(c, q)
    count = tail.count(tol)
    constraints = TailConstraints(prefix=HALF_BOX, tail=tail)
    report = countable_product_measure(UNIFORM, constraints, tol=tol)
    exact = exact_partial_products(0.5, c, q, count)
    under = next((k for k in range(1, count + 1) if exact[k] <= Decimal(1e-300)), None)
    k = count if under is None else under
    assert report.n_factors == k
    assert (report.converged, report.verdict) == (True, "converged")
    if under is not None and under != count:
        assert report.value == 0.0
        return report
    p = exact[k]
    bound = 8 * (1 + abs(float(p.ln()) if p else 0.0)) * 2.0**-53 * float(p) + 2.0**-1074
    assert abs(Decimal(report.value) - p) <= Decimal(bound)
    return report


class TestClosedFormProduct:
    """A geometric tail's partial product from its log series, against the
    exact product of the same floats."""

    @pytest.mark.parametrize(
        "c, q, tol, n_factors",
        [
            (1.0, 0.5, 1e-12, 40),  # c q = 1/2: the log series from the first factor
            (0.01, 0.9997, 1e-12, 103_776),  # the benchmark's tail
            (0.01, 0.9997, cut_at(0.01, 0.9997, 1000), 1000),
            (1e-3, 0.999, 1e-12, 27_617),  # slow factors run to their own count
            (0.75, 0.9, 1e-12, 281),  # c q > 1/2: 3 factors multiplied directly
            (1.9, 0.5, 1e-12, 41),
            (1.9, 0.5, cut_at(1.9, 0.5, 3), 3),  # a cut inside the direct factors
            # a first factor of 1e-9, to every digit
            (1.0 - 1e-12, 1.0 - 1e-9, cut_at(1.0 - 1e-12, 1.0 - 1e-9, 1), 1),
            (2.0, 0.5, 1e-12, 1),  # c q = 1: the first factor is 0
            (4.0, 0.25, cut_at(4.0, 0.25, 5), 1),
            (1e300, 1e-300, 1e-12, 1),  # c*q rounds to 1; the exact c q is above 1
            (1.0, 0.999, 1e-12, 308),  # underflow among the direct factors
            (0.5, 0.9995, 1e-12, 1_614),  # underflow inside the log series, by bisection
            (0.5, 0.9995, cut_at(0.5, 0.9995, 1_000), 1_000),  # a cut inside the log series
            # 1 - q^(i m) near 1e-5: expm1 keeps its digits
            (0.4, 0.999999, cut_at(0.4, 0.999999, 10), 10),
            (0.0, 0.5, 1e-12, 0),
        ],
    )
    def test_value_is_the_exact_partial_product(self, c, q, tol, n_factors):
        assert check_closed_form(c, q, tol).n_factors == n_factors

    @settings(max_examples=100, deadline=None)
    @given(st.floats(0.5, 1.0, exclude_max=True), st.floats(0.0, 1.0), st.integers(0, 2_000))
    def test_any_tail_is_the_exact_partial_product(self, q, cq, n):
        # the remainder bound after n factors as tol keeps the count near n
        c = cq / q
        assume(c * q <= 1.0)
        check_closed_form(c, q, max(c * q ** (n + 1) / (1 - q), 5e-324))


class TestIncreasingLimit:
    def test_gaussian_exhaustion_of_the_line(self):
        spec = ProductMeasureSpec.identical(Gaussian1D(1.0))
        chain = [CylinderSet.from_boxes({1: [(-n, n)]}) for n in range(1, 7)]
        report = increasing_limit(spec, chain)
        assert report.at_position == 6
        assert report.value == pytest.approx(math.erf(6.0 / math.sqrt(2.0)), abs=1e-15)

    def test_constant_chain(self):
        spec = ProductMeasureSpec.identical(Uniform1D(0.0, 1.0))
        cyl = CylinderSet.from_boxes({1: [(0.0, 0.5)]})
        report = increasing_limit(spec, [cyl, cyl, cyl])
        assert report.value == 0.5

    def test_uniform_sup_is_last_element(self):
        spec = ProductMeasureSpec.identical(Uniform1D(0.0, 1.0))
        chain = [
            CylinderSet.from_boxes({1: [(0.0, 1.0 - 1.0 / n)]}) for n in range(2, 12)
        ]
        report = increasing_limit(spec, chain)
        assert report.value == pytest.approx(1.0 - 1.0 / 11.0)
        assert report.at_position == 10

    def test_nesting_violation_names_the_pair(self):
        spec = ProductMeasureSpec.identical(Uniform1D(0.0, 1.0))
        good = CylinderSet.from_boxes({1: [(0.0, 0.8)]})
        bad = CylinderSet.from_boxes({1: [(0.0, 0.5)]})
        with pytest.raises(InputError, match="element 1 is not contained in element 2"):
            increasing_limit(spec, [good, bad])

    def test_refinement_over_different_bases(self):
        spec = ProductMeasureSpec.identical(Uniform1D(0.0, 1.0))
        # constraining a new coordinate shrinks the set: order matters
        smaller = CylinderSet.from_boxes({1: [(0.0, 0.5)], 2: [(0.0, 0.5)]})
        larger = CylinderSet.from_boxes({1: [(0.0, 0.5)]})
        report = increasing_limit(spec, [smaller, larger])
        assert report.value == 0.5
        with pytest.raises(InputError):
            increasing_limit(spec, [larger, smaller])


def product_tables(spec, partitions):
    """Marginal tables over index chains {1}, {1,2}, ... from a product spec."""
    indices = sorted(partitions)
    tables = []
    for depth in range(1, len(indices) + 1):
        head = indices[:depth]
        cells = []

        def rec(pos, boxes, prob):
            if pos == len(head):
                cells.append((tuple(boxes), prob))
                return
            idx = head[pos]
            for box in partitions[idx]:
                rec(pos + 1, boxes + [box], prob * box_prob(spec.component(idx), box))

        rec(0, [], 1.0)
        tables.append(MarginalTable(tuple(head), tuple(cells)))
    return tables


def interval_box(lo, hi):
    return normalize_box((Interval(lo, hi),))


REAL_LINE = interval_box(-math.inf, math.inf)


class TestConsistency:
    def setup_method(self):
        self.spec = ProductMeasureSpec.identical(Gaussian1D(1.0))
        self.partitions = {
            1: (
                normalize_box((Interval(-math.inf, 0.0),)),
                normalize_box((Interval(0.0, math.inf),)),
            ),
            2: (
                normalize_box((Interval(-math.inf, 1.0),)),
                normalize_box((Interval(1.0, math.inf),)),
            ),
        }

    def test_product_marginals_are_consistent(self):
        res = consistency_check(product_tables(self.spec, self.partitions))
        assert res.consistent and res.violation is None

    def test_single_table_is_vacuously_consistent(self):
        tables = product_tables(self.spec, {1: self.partitions[1]})
        assert consistency_check(tables).consistent

    def test_corruption_is_reported(self):
        tables = product_tables(self.spec, self.partitions)
        small = tables[0]
        boxes, p = small.cells[0]
        corrupted = MarginalTable(small.indices, ((boxes, p + 0.1),) + small.cells[1:])
        res = consistency_check([corrupted, tables[1]])
        assert not res.consistent
        assert "0.1" in res.violation or "stated" in res.violation

    def test_non_chain_rejected(self):
        p1, p2 = self.partitions[1], self.partitions[2]
        t1 = MarginalTable((1,), (((p1[0],), 0.5), ((p1[1],), 0.5)))
        t2 = MarginalTable((2,), (((p2[0],), 0.8), ((p2[1],), 0.2)))
        with pytest.raises(InputError, match="chain"):
            consistency_check([t1, t2])

    # two families that are inconsistent under any reading of their cells: one
    # table puts mass on [2, 3] in coordinate 1, the other puts none there
    def test_cell_missing_from_the_marginal_is_reported(self):
        small = MarginalTable((1,), (((interval_box(2, 3),), 0.1), ((interval_box(0, 1),), 0.9)))
        large = MarginalTable((1, 2), (((interval_box(0, 1), REAL_LINE), 1.0),))
        res = consistency_check([small, large])
        assert not res.consistent
        assert res.violation.endswith("of table (1,) missing from marginalized table (1, 2)")
        assert "2.0" in res.violation and "3.0" in res.violation

    def test_extra_marginal_mass_is_reported(self):
        small = MarginalTable((1,), (((interval_box(0, 1),), 0.9),))
        large = MarginalTable(
            (1, 2),
            (((interval_box(0, 1), REAL_LINE), 0.9), ((interval_box(2, 3), REAL_LINE), 0.1)),
        )
        res = consistency_check([small, large])
        assert not res.consistent
        assert res.violation.startswith("marginalized table (1, 2) carries extra mass 0.1 on cell")
        assert res.violation.endswith("absent from table (1,)")

    def test_a_table_normalizes_its_boxes(self):
        # as CylinderSet does: overlapping intervals merge, so two cells that
        # name one set are the same cell
        box = (Interval(0.5, 2.0), Interval(0.0, 1.0))
        table = MarginalTable((1,), (((box,), 1.0),))
        assert table.cells == (((interval_box(0, 2),), 1.0),)
        with pytest.raises(InputError, match=r"^cell 1 repeats the boxes of cell 0$"):
            MarginalTable((1,), (((box,), 0.5), ((interval_box(0, 2),), 0.5)))

    @pytest.mark.parametrize("tol", [math.nan, 0.0, -1.0, math.inf])
    def test_tolerance_must_be_positive_and_finite(self, tol):
        # a (1,)-table of 0.9/0.1 against a (1, 2)-table whose marginal is 0.5/0.5:
        # a nan tolerance once made every comparison false and called them consistent
        p1, p2 = self.partitions[1], self.partitions[2]
        small = MarginalTable((1,), (((p1[0],), 0.9), ((p1[1],), 0.1)))
        large = MarginalTable((1, 2), tuple(((a, b), 0.25) for a in p1 for b in p2))
        assert not consistency_check([small, large]).consistent
        with pytest.raises(InputError, match=r"^tolerance must be (a finite number|> 0), got "):
            consistency_check([small, large], tol=tol)


def gaussian_poly_moment(mean, var, degree):
    """E[u^degree] for u ~ N(mean, var), degree <= 4."""
    m, s2 = mean, var
    return {
        0: 1.0,
        1: m,
        2: m**2 + s2,
        3: m**3 + 3 * m * s2,
        4: m**4 + 6 * m**2 * s2 + 3 * s2**2,
    }[degree]


class TestPushforward:
    def test_constant_function(self):
        sampler = ProductSampler(ProductMeasureSpec.identical(Gaussian1D(1.0)), 1)
        est, se = pushforward_integral_mc(
            sampler, lambda x: x, lambda u: np.ones(len(u)), 100, seed=1
        )
        assert est == 1.0 and se == 0.0

    def test_mean_shift_oracle(self):
        c = 2.5
        sampler = ProductSampler(ProductMeasureSpec.identical(Gaussian1D(1.0)), 1)
        est, se = pushforward_integral_mc(
            sampler, lambda x: x + c, lambda u: u[:, 0], 200_000, seed=2
        )
        assert abs(est - c) < 4 * se

    def test_variance_scaling_oracle(self):
        sampler = ProductSampler(ProductMeasureSpec.identical(Gaussian1D(1.0)), 1)
        est, se = pushforward_integral_mc(
            sampler, lambda x: 2.0 * x, lambda u: u[:, 0] ** 2, 200_000, seed=3
        )
        assert abs(est - 4.0) < 4 * se

    def test_nonfinite_integrand_carries_sample(self):
        sampler = ProductSampler(ProductMeasureSpec.identical(Uniform1D(0.0, 1.0)), 1)
        with np.errstate(invalid="ignore"):
            with pytest.raises(NumericError) as err:
                pushforward_integral_mc(
                    sampler, lambda x: x, lambda u: np.log(-np.ones(len(u))), 10, seed=4
                )
        assert "sample" in err.value.context

    @pytest.mark.parametrize("case", range(6))
    def test_affine_pushforward_matches_gaussian_moments(self, case):
        # route A: MC of f(phi(x)); route B: closed-form moments of the
        # push-forward normal N(b, a^2) -- the change-of-variables identity
        rng = np.random.default_rng(100 + case)
        a, b = float(rng.uniform(0.5, 2.0)), float(rng.uniform(-1.0, 1.0))
        degree = int(rng.integers(0, 5))
        sampler = ProductSampler(ProductMeasureSpec.identical(Gaussian1D(1.0)), 1)
        est, se = pushforward_integral_mc(
            sampler,
            lambda x: a * x + b,
            lambda u: u[:, 0] ** degree,
            400_000,
            seed=200 + case,
        )
        expected = gaussian_poly_moment(b, a * a, degree)
        assert abs(est - expected) <= max(4 * se, 1e-12)

    def test_needs_two_samples(self):
        sampler = ProductSampler(ProductMeasureSpec.identical(Gaussian1D(1.0)), 1)
        with pytest.raises(InputError):
            pushforward_integral_mc(sampler, lambda x: x, lambda u: u[:, 0], 1, seed=1)
