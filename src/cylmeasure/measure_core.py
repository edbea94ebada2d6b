"""Product measures on sequence space, evaluated on cylinder sets.

A cylinder set constrains finitely many coordinates, each to a finite
union of closed intervals; all other coordinates are free.  For a product
measure the probability of such a set is the product of the per-coordinate
box probabilities, and countable constraint families are handled as
monotone limits of partial products.

Borel sets richer than finite interval unions are deliberately not
representable: interval unions give exact probabilities through 1-D
distribution functions, which is all the downstream diagnostics need.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Mapping, Sequence, Union

from .errors import InputError, NumericError

if TYPE_CHECKING:
    import numpy as np

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


@dataclass(frozen=True)
class Interval:
    """A closed interval [lo, hi]; either end may be infinite."""

    lo: float
    hi: float

    def __post_init__(self):
        object.__setattr__(self, "lo", float(self.lo))
        object.__setattr__(self, "hi", float(self.hi))
        if math.isnan(self.lo) or math.isnan(self.hi):
            raise InputError("interval ends must not be NaN")
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


@dataclass(frozen=True)
class CylinderSet:
    """Finitely many constrained coordinates, each to a union of intervals."""

    base: tuple[tuple[int, Box], ...] = ()

    def __post_init__(self):
        seen = set()
        canonical = []
        for index, box in self.base:
            if not isinstance(index, int) or index < 1:
                raise InputError(f"cylinder index must be a natural >= 1, got {index!r}")
            if index in seen:
                raise InputError(f"duplicate cylinder index {index}")
            seen.add(index)
            canonical.append((index, normalize_box(tuple(box))))
        object.__setattr__(self, "base", tuple(sorted(canonical)))

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


@dataclass(frozen=True)
class Gaussian1D:
    """Centered Gaussian with variance rho."""

    rho: float

    def __post_init__(self):
        if not (self.rho > 0 and math.isfinite(self.rho)):
            raise InputError(f"gaussian component needs rho > 0, got {self.rho}")

    def interval_prob(self, iv: Interval) -> float:
        # complementary error function keeps tails accurate; erfc handles +-inf
        s = _SQRT2 * math.sqrt(self.rho)
        return 0.5 * (math.erfc(iv.lo / s) - math.erfc(iv.hi / s))

    def draw(self, rng: np.random.Generator, size) -> np.ndarray:
        return rng.standard_normal(size) * math.sqrt(self.rho)


@dataclass(frozen=True)
class Uniform1D:
    """Uniform on [a, b]."""

    a: float
    b: float

    def __post_init__(self):
        if not (math.isfinite(self.a) and math.isfinite(self.b) and self.a < self.b):
            raise InputError(f"uniform component needs finite a < b, got [{self.a}, {self.b}]")

    def interval_prob(self, iv: Interval) -> float:
        lo = max(iv.lo, self.a)
        hi = min(iv.hi, self.b)
        return max(0.0, hi - lo) / (self.b - self.a)

    def draw(self, rng: np.random.Generator, size) -> np.ndarray:
        return rng.uniform(self.a, self.b, size)


@dataclass(frozen=True)
class PointMass1D:
    """Unit mass at the point c (closed intervals contain their ends)."""

    c: float

    def __post_init__(self):
        if not math.isfinite(self.c):
            raise InputError("point mass component needs a finite location")

    def interval_prob(self, iv: Interval) -> float:
        return 1.0 if iv.lo <= self.c <= iv.hi else 0.0

    def draw(self, rng: np.random.Generator, size) -> np.ndarray:
        import numpy as np

        return np.full(size, self.c)


Component1D = Union[Gaussian1D, Uniform1D, PointMass1D]


def box_prob(component: Component1D, box: Box) -> float:
    # stored intervals are disjoint, so probabilities add
    return float(sum(component.interval_prob(iv) for iv in box))


@dataclass(frozen=True)
class ProductMeasureSpec:
    """Assignment of a component measure to every coordinate.

    Either one component everywhere, or per-index overrides on top of a
    default, so each index resolves to exactly one component.
    """

    default: Component1D
    overrides: tuple[tuple[int, Component1D], ...] = ()

    def __post_init__(self):
        seen = set()
        for idx, _ in self.overrides:
            if not isinstance(idx, int) or idx < 1:
                raise InputError(f"override index must be a natural >= 1, got {idx!r}")
            if idx in seen:
                raise InputError(f"duplicate override index {idx}")
            seen.add(idx)
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


@dataclass(frozen=True)
class FullTail:
    """All remaining factors are the whole line (probability 1)."""

    length = None


@dataclass(frozen=True)
class ConstantFactorTail:
    """Factor probability f for every remaining constraint."""

    f: float

    def __post_init__(self):
        if not (0.0 <= self.f <= 1.0):
            raise InputError(f"factor probability must lie in [0,1], got {self.f}")

    length = None


@dataclass(frozen=True)
class OneMinusGeometricTail:
    """Factor probabilities 1 - c*q**k, k = 1, 2, ..."""

    c: float
    q: float

    def __post_init__(self):
        if not (0.0 < self.q < 1.0):
            raise InputError(f"geometric tail needs 0 < q < 1, got q={self.q}")
        if not (0.0 <= self.c and self.c * self.q <= 1.0):
            raise InputError("geometric tail must keep factors inside [0,1]")

    def factor_block(self, start: int, stop: int) -> np.ndarray:
        import numpy as np

        return 1.0 - self.c * self.q ** np.arange(start, stop)

    length = None


@dataclass(frozen=True)
class TabulatedTail:
    """Explicit factor list; constraints beyond the list are trivial."""

    factors: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(float(v) for v in self.factors))
        if not all(0.0 <= v <= 1.0 for v in self.factors):
            raise InputError("tabulated factors must lie in [0,1]")

    def factor_block(self, start: int, stop: int) -> np.ndarray:
        import numpy as np

        return np.asarray(self.factors[start - 1 : stop - 1])

    @property
    def length(self):
        return len(self.factors)


# the geometric and tabulated rules give factor_block(start, stop), the
# factors k = start .. stop-1 as an array
TailRule = Union[FullTail, ConstantFactorTail, OneMinusGeometricTail, TabulatedTail]


@dataclass(frozen=True)
class TailConstraints:
    """A finite explicit prefix of boxes plus a countable tail of factors."""

    prefix: CylinderSet = CylinderSet()
    tail: TailRule = FullTail()


@dataclass(frozen=True)
class ProductLimitReport:
    """Monotone-limit report for a countable product of factors <= 1."""

    value: float
    n_factors: int
    converged: bool
    verdict: str  # "converged" | "decreasing-unconverged"


# partial products are monotone nonincreasing; below this they cannot
# numerically recover, so the limit is reported as 0
_UNDERFLOW = 1e-300

DEFAULT_N_MAX_CLOSED_FORM = 10**6
DEFAULT_N_MAX_TABULATED = 10**4

# factors scanned per vectorised step of countable_product_measure
_PRODUCT_BLOCK = 4096


def countable_product_measure(
    spec: ProductMeasureSpec,
    constraints: TailConstraints,
    n_max: int | None = None,
    tol: float = 1e-12,
) -> ProductLimitReport:
    """Probability of a countable constraint family as a monotone limit.

    Evaluates lim_n of the partial products prefix * f_1 * ... * f_n.
    A constant factor f is decided in closed form, with no factor taken:
    the limit is 0 for f < 1 and the prefix for f = 1.  Otherwise the
    limit is reported, not decided: iteration stops once the factors
    are within ``tol`` of 1 (converged), once the partial product
    underflows to an exact 0 (converged), or at ``n_max`` factors
    (decreasing-unconverged, value = last partial product).  A tabulated
    tail is multiplied factor by factor to the end of its table
    (converged there): the ``tol`` stop does not apply inside a table.

    Factors are taken in blocks: a cumulative product seeded with the
    running partial product multiplies in the order of a factor-by-factor
    loop, and the first stop in the block ends the scan exactly where
    that loop would.  The rule constructors keep every factor in [0,1].
    """
    if tol <= 0:
        raise InputError(f"tolerance must be positive, got {tol}")
    if n_max is not None and n_max < 0:
        raise InputError(f"n_max must be non-negative, got {n_max}")
    tail = constraints.tail
    if n_max is None:
        n_max = (
            DEFAULT_N_MAX_TABULATED
            if isinstance(tail, TabulatedTail)
            else DEFAULT_N_MAX_CLOSED_FORM
        )
    partial = cylinder_measure(spec, constraints.prefix)
    if isinstance(tail, FullTail) or tail.length == 0:
        return ProductLimitReport(partial, 0, True, "converged")
    if isinstance(tail, ConstantFactorTail):
        return ProductLimitReport(partial if tail.f == 1.0 else 0.0, 0, True, "converged")
    import numpy as np

    end = n_max if tail.length is None else min(n_max, tail.length)
    for start in range(1, end + 1, _PRODUCT_BLOCK):
        f = tail.factor_block(start, min(start + _PRODUCT_BLOCK, end + 1))
        running = np.cumprod(np.concatenate(([partial], f)))[1:]
        stop = running <= _UNDERFLOW
        if tail.length is None:  # a table is multiplied to its end
            stop |= 1.0 - f <= tol
        if stop.any():
            first = int(np.argmax(stop))
            k, value = start + first, float(running[first])
            if k != tail.length and value <= _UNDERFLOW:
                value = 0.0
            return ProductLimitReport(value, k, True, "converged")
        partial = float(running[-1])
    if end == tail.length:
        return ProductLimitReport(partial, end, True, "converged")
    return ProductLimitReport(partial, end, False, "decreasing-unconverged")


@dataclass(frozen=True)
class IncreasingLimitReport:
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


@dataclass(frozen=True)
class MarginalTable:
    """A finite-dimensional box-measure table over an index set.

    Each cell pairs one box per index (aligned with ``indices``) with its
    probability.
    """

    indices: tuple[int, ...]
    cells: tuple[tuple[tuple[Box, ...], float], ...]

    def __post_init__(self):
        if len(set(self.indices)) != len(self.indices):
            raise InputError("marginal table has duplicate indices")
        for boxes, _ in self.cells:
            if len(boxes) != len(self.indices):
                raise InputError(
                    f"cell arity {len(boxes)} does not match index set {self.indices}"
                )

    def marginal_onto(self, indices: tuple[int, ...]) -> dict[tuple[Box, ...], float]:
        positions = [self.indices.index(i) for i in indices]
        out: dict[tuple[Box, ...], float] = {}
        for boxes, p in self.cells:
            key = tuple(boxes[pos] for pos in positions)
            out[key] = out.get(key, 0.0) + p
        return out


@dataclass(frozen=True)
class ConsistencyResult:
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
        if n_coords < 1:
            raise InputError(f"need n_coords >= 1, got {n_coords}")
        self.spec = spec
        self.n_coords = n_coords

    def draw(self, rng: np.random.Generator, n_samples: int) -> np.ndarray:
        import numpy as np

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
    if n_samples < 2:
        raise InputError(f"need n_samples >= 2, got {n_samples}")
    import numpy as np

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
    est = float(np.mean(vals))
    se = float(np.std(vals, ddof=1) / math.sqrt(n_samples))
    return est, se
