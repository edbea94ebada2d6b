"""Product measures on sequence space, evaluated on cylinder sets.

A cylinder set constrains finitely many coordinates, each to a finite
union of closed intervals; all other coordinates are free.  For a product
measure the probability of such a set is the product of the per-coordinate
box probabilities, and countable constraint families are handled as
monotone limits of partial products.

Borel sets richer than finite interval unions are deliberately not
representable: interval unions give exact probabilities through 1-D
distribution functions, which is all the downstream diagnostics need.

Intervals, sets, component measures, tail rules and reports are frozen
records (``_record.Record``): compared, hashed and printed by value.
"""

from __future__ import annotations

import math
from typing import Callable, Mapping, Sequence, Union

from . import _np as np
from ._record import Record
from .errors import (
    InputError, NumericError, require_count, require_indices, require_real, require_seed,
)

__all__ = [
    "Interval",
    "normalize_box",
    "CylinderSet",
    "Gaussian1D",
    "Uniform1D",
    "PointMass1D",
    "Component1D",
    "ProductMeasureSpec",
    "FullTail",
    "ConstantFactorTail",
    "OneMinusGeometricTail",
    "TabulatedTail",
    "TailRule",
    "TailConstraints",
    "ProductLimitReport",
    "IncreasingLimitReport",
    "MarginalTable",
    "ConsistencyResult",
    "ProductSampler",
    "cylinder_measure",
    "countable_product_measure",
    "increasing_limit",
    "consistency_check",
    "pushforward_integral_mc",
]

_SQRT2 = math.sqrt(2.0)


# ---------------------------------------------------------------------------
# intervals and cylinder sets


class Interval(Record):
    """A closed interval [lo, hi]; either end may be infinite."""

    lo: float
    hi: float

    def __post_init__(self):
        for name in ("lo", "hi"):
            end = getattr(self, name)
            if end not in (math.inf, -math.inf):  # an end may be infinite
                require_real(end, f"interval {name}")
            object.__setattr__(self, name, float(end))
        if self.lo > self.hi:
            raise InputError(f"malformed box: lo={self.lo} > hi={self.hi}")


Box = tuple[Interval, ...]


def normalize_box(intervals: Sequence[Interval]) -> Box:
    """Sort and merge overlapping or touching intervals.

    The result is the canonical stored form: pairwise disjoint with
    strict gaps, sorted by lower end.  An empty tuple is the empty set.
    """
    ivs = sorted(intervals, key=lambda iv: (iv.lo, iv.hi))
    merged: list[Interval] = []
    for iv in ivs:
        if merged and iv.lo <= merged[-1].hi:
            last = merged[-1]
            if iv.hi > last.hi:
                merged[-1] = Interval(last.lo, iv.hi)
        else:
            merged.append(iv)
    return tuple(merged)


def box_contains(inner: Box, outer: Box) -> bool:
    """Set containment for normalized boxes (closed-interval semantics)."""
    return all(any(o.lo <= iv.lo and iv.hi <= o.hi for o in outer) for iv in inner)


_FULL_BOX: Box = (Interval(-math.inf, math.inf),)


class CylinderSet(Record):
    """Finitely many constrained coordinates, each to a union of intervals."""

    base: tuple[tuple[int, Box], ...] = ()

    def __post_init__(self):
        require_indices([index for index, _ in self.base], "cylinder index")
        canonical = sorted((index, normalize_box(tuple(box))) for index, box in self.base)
        object.__setattr__(self, "base", tuple(canonical))

    @classmethod
    def from_boxes(cls, boxes: Mapping[int, Sequence[tuple[float, float]]]) -> "CylinderSet":
        base = tuple(
            (idx, tuple(Interval(lo, hi) for lo, hi in ivs)) for idx, ivs in boxes.items()
        )
        return cls(base)

    @property
    def indices(self) -> tuple[int, ...]:
        return tuple(idx for idx, _ in self.base)

    def box_at(self, index: int) -> Box:
        for idx, box in self.base:
            if idx == index:
                return box
        return _FULL_BOX

    def refined_to(self, indices: Sequence[int]) -> tuple[Box, ...]:
        """Boxes over a common index set; missing coordinates are free."""
        return tuple(self.box_at(i) for i in indices)


# ---------------------------------------------------------------------------
# one-dimensional component measures


class Gaussian1D(Record):
    """Centered Gaussian with variance rho."""

    rho: float

    def __post_init__(self):
        require_real(self.rho, "gaussian component rho", "> 0")

    def interval_prob(self, iv: Interval) -> float:
        # complementary error function keeps tails accurate; erfc handles +-inf
        s = _SQRT2 * math.sqrt(self.rho)
        return 0.5 * (math.erfc(iv.lo / s) - math.erfc(iv.hi / s))

    def draw(self, rng: np.random.Generator, size) -> np.ndarray:
        return rng.standard_normal(size) * math.sqrt(self.rho)


class Uniform1D(Record):
    """Uniform on [a, b]."""

    a: float
    b: float

    def __post_init__(self):
        require_real(self.a, "uniform component a")
        require_real(self.b, "uniform component b")
        if not self.a < self.b:
            raise InputError(f"uniform component needs finite a < b, got [{self.a}, {self.b}]")

    def interval_prob(self, iv: Interval) -> float:
        lo = max(iv.lo, self.a)
        hi = min(iv.hi, self.b)
        return max(0.0, hi - lo) / (self.b - self.a)

    def draw(self, rng: np.random.Generator, size) -> np.ndarray:
        return rng.uniform(self.a, self.b, size)


class PointMass1D(Record):
    """Unit mass at the point c (closed intervals contain their ends)."""

    c: float

    def __post_init__(self):
        require_real(self.c, "point mass component c")

    def interval_prob(self, iv: Interval) -> float:
        return 1.0 if iv.lo <= self.c <= iv.hi else 0.0

    def draw(self, rng: np.random.Generator, size) -> np.ndarray:
        return np.full(size, self.c)


Component1D = Union[Gaussian1D, Uniform1D, PointMass1D]


def box_prob(component: Component1D, box: Box) -> float:
    # stored intervals are disjoint, so probabilities add
    return float(sum(component.interval_prob(iv) for iv in box))


class ProductMeasureSpec(Record):
    """Assignment of a component measure to every coordinate.

    Either one component everywhere, or per-index overrides on top of a
    default, so each index resolves to exactly one component.
    """

    default: Component1D
    overrides: tuple[tuple[int, Component1D], ...] = ()

    def __post_init__(self):
        require_indices([idx for idx, _ in self.overrides], "override index")
        object.__setattr__(self, "overrides", tuple(sorted(self.overrides)))

    @classmethod
    def identical(cls, component: Component1D) -> "ProductMeasureSpec":
        return cls(default=component)

    @classmethod
    def indexed(
        cls, mapping: Mapping[int, Component1D], default: Component1D
    ) -> "ProductMeasureSpec":
        return cls(default=default, overrides=tuple(mapping.items()))

    def component(self, index: int) -> Component1D:
        for idx, comp in self.overrides:
            if idx == index:
                return comp
        return self.default


# ---------------------------------------------------------------------------
# operations


def cylinder_measure(spec: ProductMeasureSpec, cyl: CylinderSet) -> float:
    """Probability of a cylinder set under the product measure.

    The value is the product over constrained coordinates of the
    component probability of each box; an empty base is the whole space.
    """
    prob = 1.0
    for index, box in cyl.base:
        prob *= box_prob(spec.component(index), box)
    # clip round-off excursions; each factor is a probability
    return min(1.0, max(0.0, prob))


class ProductLimitReport(Record):
    """Monotone-limit report for a countable product of factors <= 1.

    Every limit is decided, so ``converged`` and ``verdict`` always hold
    their defaults, kept so the payload keeps its keys."""

    value: float
    n_factors: int
    converged: bool = True
    verdict: str = "converged"


class FullTail(Record):
    """All remaining factors are the whole line (probability 1)."""

    def limit(self, partial: float, tol: float) -> ProductLimitReport:
        return ProductLimitReport(partial, 0)


class ConstantFactorTail(Record):
    """Factor probability f for every remaining constraint."""

    f: float

    def __post_init__(self):
        require_real(self.f, "factor probability", "[0, 1]")

    def limit(self, partial: float, tol: float) -> ProductLimitReport:
        return ProductLimitReport(partial if self.f == 1.0 else 0.0, 0)


class OneMinusGeometricTail(Record):
    """Factor probabilities 1 - c*q**k, k = 1, 2, ..."""

    c: float
    q: float

    def __post_init__(self):
        require_real(self.q, "geometric tail q", "(0, 1)")
        require_real(self.c, "geometric tail c", ">= 0")
        if self.c * self.q > 1.0:
            raise InputError("geometric tail must keep factors inside [0,1]")

    def count(self, tol: float) -> int:
        """The least n, up to a 2^-48 widening that covers every rounding,
        whose remainder bound c*q**(n+1)/(1-q) is <= tol: as prod_{k>n} (1 -
        c q^k) >= 1 - sum_{k>n} c q^k, n factors exceed the limit by at most
        tol times their product.  Solved in logs, which never underflow."""
        if self.c == 0.0:
            return 0
        logs = (math.log(self.c), -math.log1p(-self.q), -math.log(tol))
        a = math.fsum(logs) + 2.0**-48 * sum(map(abs, logs))
        return max(0, math.ceil(a / (-math.log(self.q) * (1.0 - 2.0**-48))) - 1)

    def limit(self, partial: float, tol: float) -> ProductLimitReport:
        """partial * prod_{k<=n} (1 - c q^k), n = count(tol).

        Factors with c q^k > 1/2, below 1/2 each and so about a thousand at
        most before underflow, are multiplied one by one, each rounded once
        from c q^k in 256-bit fixed point: exact at k = 1, low by under k
        units after, and capped at 1, which the float check c*q <= 1 may
        pass.  The other m factors are exp(-S), S from ``_log_series``,
        which the fixed-point error of r moves by at most 2 min(m, 1/(1-q))
        k 2^-256 < 2^-190.  An underflow stops at the least k, found by
        bisection on S.
        """
        count = self.count(tol)
        c_num, c_den = self.c.as_integer_ratio()
        q_num, q_den = self.q.as_integer_ratio()
        one, half, shift = 1 << 256, 1 << 255, q_den.bit_length() - 1
        x = min(one, (c_num * q_num << 256) // (c_den * q_den))  # c q^(k+1) * one
        k = 0
        while k < count and x > half:
            k += 1
            partial *= float(one - x) * 2.0**-256
            if partial <= _UNDERFLOW:
                return _underflow(partial, k, count)
            x = x * q_num >> shift
        if k == count:
            return ProductLimitReport(partial, k)
        # the rest is prod_{j<m} (1 - r q^j) with r = c q^(k+1) <= 1/2
        r, m = x / one, count - k

        def product(j: int) -> float:
            return partial * math.exp(-_log_series(r, self.q, j))

        value = product(m)
        if value > _UNDERFLOW:
            return ProductLimitReport(value, count)
        lo, hi = 0, m  # product(hi) underflows; find the least such hi
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if product(mid) <= _UNDERFLOW else (mid, hi)
        return _underflow(product(hi), k + hi, count)


class TabulatedTail(Record):
    """Explicit factor list; constraints beyond the list are trivial."""

    factors: tuple[float, ...]

    def __post_init__(self):
        for k, v in enumerate(self.factors, 1):
            require_real(v, f"tabulated factor {k}", "[0, 1]")
        object.__setattr__(self, "factors", tuple(float(v) for v in self.factors))

    def limit(self, partial: float, tol: float) -> ProductLimitReport:
        """Every listed factor enters the product; ``tol`` plays no part."""
        count = len(self.factors)
        for k, f in enumerate(self.factors, 1):
            partial *= f
            if partial <= _UNDERFLOW:
                return _underflow(partial, k, count)
        return ProductLimitReport(partial, count)


# each rule's limit(partial, tol) is the limit of partial * f_1 * f_2 ...
TailRule = Union[FullTail, ConstantFactorTail, OneMinusGeometricTail, TabulatedTail]


class TailConstraints(Record):
    """A finite explicit prefix of boxes plus a countable tail of factors."""

    prefix: CylinderSet = CylinderSet()
    tail: TailRule = FullTail()


# partial products are nonincreasing; below this the limit is reported as 0
_UNDERFLOW = 1e-300


def _log_series(r: float, q: float, m: int) -> float:
    """-log prod_{j<m} (1 - r q^j) = sum_i (r^i/i) (1 - q^(im)) / (1 - q^i), r <= 1/2.

    Both differences come from ``expm1``, so each keeps full precision.
    Term i is at most (r^i/i) min(m, 1/(1 - q^i)), so the terms from i on
    sum to at most r^i min(m, 1/(1 - q^i)) / (i (1 - r)); the series stops
    once that is below an ulp of the sum, within about 60 terms.
    """
    lq = math.log(q)
    terms: list[float] = []
    total, i = 0.0, 1
    while True:
        ri, gap = r**i, -math.expm1(i * lq)
        if ri * min(m, 1.0 / gap) <= 2.0**-53 * total * i * (1.0 - r):
            return math.fsum(terms)
        terms.append(ri / i * -math.expm1(i * m * lq) / gap)
        total += terms[-1]
        i += 1


def _underflow(value: float, k: int, count: int) -> ProductLimitReport:
    """Stop at factor k once the partial product is <= 1e-300: 0, except at
    the rule's last factor."""
    return ProductLimitReport(value if k == count else 0.0, k)


def countable_product_measure(
    spec: ProductMeasureSpec,
    constraints: TailConstraints,
    tol: float = 1e-12,
) -> ProductLimitReport:
    """Probability of a countable constraint family: lim_n prefix * f_1 * ... * f_n.

    The tail rule fixes the factor count: none for a constant factor
    (decided: 0 for f < 1, the prefix for f = 1), a table's length, and
    ``OneMinusGeometricTail.count(tol)``.  A table is multiplied factor by
    factor; a geometric tail's partial product comes in closed form from
    its log series (``OneMinusGeometricTail.limit``), within 8 (1 + |log
    P|) 2^-53 of the exact partial product P of its floats.  An underflow
    below 1e-300 stops early, as 0.  No factor budget caps the count: a
    geometric tail costs the same at any count, and a table has already
    been read in full.
    """
    require_real(tol, "tolerance", "> 0")
    partial = cylinder_measure(spec, constraints.prefix)
    return constraints.tail.limit(partial, tol)


class IncreasingLimitReport(Record):
    """sup over an increasing chain: the last element's measure."""

    value: float
    at_position: int  # 1-based position in the chain realizing the sup


def increasing_limit(
    spec: ProductMeasureSpec, chain: Sequence[CylinderSet]
) -> IncreasingLimitReport:
    """Measure limit along an increasing chain of cylinder sets.

    Nesting is a precondition: each set must contain the previous one.
    It is checked concretely by refining both sets to the union of their
    bases (a free coordinate is the full line) and testing per-coordinate
    box containment.  For a finite chain the limit is the measure of the
    last set, which equals the supremum by monotonicity.
    """
    if not chain:
        raise InputError("increasing_limit needs a nonempty chain")
    for pos in range(len(chain) - 1):
        smaller, larger = chain[pos], chain[pos + 1]
        indices = sorted(set(smaller.indices) | set(larger.indices))
        for idx, inner, outer in zip(
            indices, smaller.refined_to(indices), larger.refined_to(indices)
        ):
            if not box_contains(inner, outer):
                raise InputError(
                    f"chain is not increasing: element {pos + 1} is not contained "
                    f"in element {pos + 2} (coordinate {idx})"
                )
    return IncreasingLimitReport(cylinder_measure(spec, chain[-1]), len(chain))


# ---------------------------------------------------------------------------
# marginal self-consistency


class MarginalTable(Record):
    """A finite-dimensional box-measure table over an index set.

    Each cell pairs one box per index (aligned with ``indices``) with its
    probability; no two cells have the same boxes.  Boxes are stored
    normalized, as in ``CylinderSet``.
    """

    indices: tuple[int, ...]
    cells: tuple[tuple[tuple[Box, ...], float], ...]

    def __post_init__(self):
        if not self.indices:
            raise InputError("marginal table needs at least one index")
        require_indices(self.indices, "marginal table index")
        first: dict[tuple[Box, ...], int] = {}
        cells = []
        for j, (boxes, p) in enumerate(self.cells):
            if len(boxes) != len(self.indices):
                raise InputError(
                    f"cell {j} arity {len(boxes)} does not match index set {self.indices}"
                )
            require_real(p, f"cell {j} probability", "[0, 1]")
            boxes = tuple(normalize_box(box) for box in boxes)
            if first.setdefault(boxes, j) != j:
                raise InputError(f"cell {j} repeats the boxes of cell {first[boxes]}")
            cells.append((boxes, p))
        object.__setattr__(self, "cells", tuple(cells))

    def marginal_onto(self, indices: tuple[int, ...]) -> dict[tuple[Box, ...], float]:
        positions = [self.indices.index(i) for i in indices]
        out: dict[tuple[Box, ...], float] = {}
        for boxes, p in self.cells:
            key = tuple(boxes[pos] for pos in positions)
            out[key] = out.get(key, 0.0) + p
        return out


class ConsistencyResult(Record):
    consistent: bool
    violation: str | None = None


def consistency_check(
    marginals: Sequence[MarginalTable], tol: float = 1e-12
) -> ConsistencyResult:
    """Verify that a chain of marginal tables is self-consistent.

    The index sets must form a chain under inclusion.  Each larger table,
    marginalized over its extra indices, must reproduce the smaller table
    within ``tol``; the first violation found is reported.
    """
    require_real(tol, "tolerance", "> 0")
    if not marginals:
        raise InputError("consistency_check needs at least one table")
    tables = sorted(marginals, key=lambda t: len(t.indices))
    for small, large in zip(tables[:-1], tables[1:]):
        if not set(small.indices) <= set(large.indices):
            raise InputError(
                f"index sets do not form a chain: {small.indices} is not "
                f"contained in {large.indices}"
            )
    for small, large in zip(tables[:-1], tables[1:]):
        reduced = large.marginal_onto(small.indices)
        for boxes, p in small.cells:
            q = reduced.pop(boxes, None)
            if q is None:
                return ConsistencyResult(
                    False,
                    f"cell {boxes} of table {small.indices} missing from "
                    f"marginalized table {large.indices}",
                )
            if abs(p - q) > tol:
                return ConsistencyResult(
                    False,
                    f"table {small.indices}, cell {boxes}: stated {p} vs "
                    f"marginalized {q} (|diff| {abs(p - q):.3e} > {tol})",
                )
        for boxes, q in reduced.items():
            if abs(q) > tol:
                return ConsistencyResult(
                    False,
                    f"marginalized table {large.indices} carries extra mass {q} "
                    f"on cell {boxes} absent from table {small.indices}",
                )
    return ConsistencyResult(True)


# ---------------------------------------------------------------------------
# Monte Carlo push-forward integration


class ProductSampler:
    """Seedable sampler for the first ``n_coords`` coordinates of a spec."""

    def __init__(self, spec: ProductMeasureSpec, n_coords: int):
        require_count(n_coords, "n_coords", 1)
        self.spec = spec
        self.n_coords = n_coords

    def draw(self, rng: np.random.Generator, n_samples: int) -> np.ndarray:
        out = np.empty((n_samples, self.n_coords))
        for j in range(self.n_coords):
            out[:, j] = self.spec.component(j + 1).draw(rng, n_samples)
        return out


def pushforward_integral_mc(
    sampler: ProductSampler,
    phi: Callable[[np.ndarray], np.ndarray],
    f: Callable[[np.ndarray], np.ndarray],
    n_samples: int,
    seed: int,
) -> tuple[float, float]:
    """Monte Carlo estimate of the integral of f(phi(x)).

    By the change-of-variables identity this equals the integral of f
    against the push-forward of the measure under phi; the test harness
    exercises both routes.  ``phi`` maps an (M, N) sample block to (M, K)
    and ``f`` maps (M, K) to (M,).  Returns (estimate, standard error).
    """
    require_count(n_samples, "n_samples", 2)
    require_seed(seed)
    rng = np.random.default_rng(seed)
    x = sampler.draw(rng, n_samples)
    u = np.asarray(phi(x))
    if u.ndim == 1:
        u = u[:, None]
    vals = np.asarray(f(u), dtype=float).reshape(n_samples)
    bad = ~np.isfinite(vals)
    if bad.any():
        i = int(np.argmax(bad))
        raise NumericError(
            "integrand produced a non-finite value", sample=x[i].tolist(), value=float(vals[i])
        )
    from .gaussian import mc_mean
    return mc_mean(vals)
