"""Haar measure on the torus family behind the compactified line.

A finite set of reals k_1..k_n that admits no nonzero integer relation
sum m_i k_i = 0 freely generates a subgroup of the line; its character
group is an n-torus, and the compatible family of these tori carries
Haar measure as uniform independent phases.  Cylindrical integrals over
the big space reduce to torus integrals of a function of an (M, n) array
of phases, which the ``integrate`` of the chosen method calls on row
blocks that tile its nodes: the periodic trapezoid grid of
``QuadratureMethod`` (spectrally accurate on trigonometric integrands) or
the seeded draws of ``MCMethod``.  The integrand gets each block
read-only.  The quadrature builds its grid once per call: its blocks are
views of one buffer whose leading-phase column alone is rewritten from
block to block.  It holds no vector of grid values: it adds each block's
values to ``_pairwise.StreamSum``, the package's one pairwise sum, cut
where numpy's pairwise sum cuts the whole vector, so its means are bit
for bit numpy's means of the whole grid.

True rational independence is not decidable in floating point; the
certificate is an exhaustive search up to a named coefficient bound.
That bound and the node and sample counts of the methods must be
``int``s.  Frequency sets, methods and results are frozen records
(``_record.Record``).
"""

from __future__ import annotations

import math
from typing import Callable, Union

from . import _np as np
from ._pairwise import StreamSum
from ._record import Record
from .errors import (
    InputError, NumericError, require_budget, require_count, require_real, require_seed,
)

__all__ = [
    "FrequencySet",
    "IndependenceResult",
    "QuadratureMethod",
    "MCMethod",
    "HaarIntegralResult",
    "independence_check",
    "haar_sample_batch",
    "haar_cylinder_integral",
    "SEARCH_BUDGET",
    "MAX_MC_DRAWS",
    "QUADRATURE_MAX_AXES",
    "MAX_QUAD_NODES",
]

SEARCH_BUDGET = 10**8
_REL_TOL = 1e-12


class FrequencySet(Record):
    """Distinct nonzero real frequencies k_1..k_n, n >= 1."""

    freqs: tuple[float, ...]

    def __post_init__(self):
        if len(self.freqs) < 1:
            raise InputError("frequency set needs at least one frequency")
        for i, v in enumerate(self.freqs):
            require_real(v, f"frequency {i}")
        object.__setattr__(self, "freqs", tuple(float(v) for v in self.freqs))
        if 0.0 in self.freqs:
            raise InputError("frequencies must be nonzero")
        if len(set(self.freqs)) != len(self.freqs):
            raise InputError("frequencies must be distinct")

    @property
    def n(self) -> int:
        return len(self.freqs)


class IndependenceResult(Record):
    """Outcome of the bounded integer-relation search.

    ``independent`` certifies no relation with coefficients bounded by
    ``bound`` in absolute value; otherwise ``witness`` is a minimal
    nonzero integer vector (smallest max-norm, then lexicographic, first
    nonzero component positive) with sum witness_i * k_i = 0.
    """

    independent: bool
    bound: int
    witness: tuple[int, ...] | None = None


def _normalize_witness(m: tuple[int, ...]) -> tuple[int, ...]:
    for v in m:
        if v != 0:
            return m if v > 0 else tuple(-x for x in m)
    return m


def _half_sums(ks: np.ndarray, bound: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every coefficient vector over ``ks`` with entries in [-bound, bound].

    Returns the vectors (one per row, lexicographic), their sums
    sum m_i k_i and their scales sum |m_i k_i|.
    """
    coeffs = np.arange(-bound, bound + 1)
    grids = np.meshgrid(*([coeffs] * len(ks)), indexing="ij")
    vectors = np.stack([g.reshape(-1) for g in grids], axis=1)
    terms = vectors * ks
    return vectors, terms.sum(axis=1), np.abs(terms).sum(axis=1)


# head/tail pairs re-tested at once; bounds the memory of a degenerate
# input whose half-sums crowd into one window
_PAIR_BLOCK = 2**20


def independence_check(gamma: FrequencySet, bound: int) -> IndependenceResult:
    """Search |m_i| <= bound, m != 0, for a null combination sum m_i k_i = 0.

    A combination counts as null when it vanishes to relative tolerance
    1e-12 against sum |m_i k_i|, which protects against round-off for
    inputs given at full precision.  The search is exhaustive, so the
    budget (2*bound+1)^n is capped; ask for a smaller bound if exceeded.

    The search meets in the middle (Horowitz–Sahni): the half-sums of
    the first n//2 coordinates are matched against the sorted half-sums
    of the rest, so only pairs whose total lies within the tolerance
    window are tested, at about (2*bound+1)^ceil(n/2) * log cost.
    """
    require_count(bound, "coefficient bound", 1)
    n = gamma.n
    require_budget((2 * bound + 1) ** n, SEARCH_BUDGET, "search space")
    if n == 1:
        # m * k = 0 with k != 0 forces m = 0
        return IndependenceResult(True, bound)
    # the sums reach bound * sum |k_i|; near the float limit they round to inf,
    # and inf passes the null test
    if bound * sum(abs(k) for k in gamma.freqs) > 2.0**1020:
        raise InputError(f"bound {bound} times sum |k_i| exceeds 2^1020; the sums would overflow")
    ks = np.asarray(gamma.freqs)
    head_vecs, head_sum, head_scale = _half_sums(ks[: n // 2], bound)
    tail_vecs, tail_sum, tail_scale = _half_sums(ks[n // 2 :], bound)
    order = np.argsort(tail_sum, kind="stable")
    sorted_tail = tail_sum[order]
    # every null pair has |head + tail| <= tol * (its scale); twice the
    # largest scale also covers the round-off of the two half-sums
    window = 2.0 * _REL_TOL * (head_scale.max() + tail_scale.max())
    lo = np.searchsorted(sorted_tail, -head_sum - window, side="left")
    in_window = np.searchsorted(sorted_tail, -head_sum + window, side="right") - lo

    hits: list[tuple[int, ...]] = []
    step = max(1, _PAIR_BLOCK // len(order))
    for start in range(0, len(head_sum), step):
        counts = in_window[start : start + step]
        total = int(counts.sum())
        if total == 0:
            continue
        # pair each head with every tail of its window, then re-test
        heads = np.repeat(np.arange(start, start + len(counts)), counts)
        firsts = np.repeat(np.cumsum(counts) - counts, counts)
        tails = order[np.repeat(lo[start : start + step], counts) + np.arange(total) - firsts]
        scale = head_scale[heads] + tail_scale[tails]
        null = np.abs(head_sum[heads] + tail_sum[tails]) <= _REL_TOL * scale
        null &= scale > 0  # m = 0 is the only combination of scale 0
        for h, t in zip(heads[null].tolist(), tails[null].tolist()):
            m = tuple(head_vecs[h].tolist() + tail_vecs[t].tolist())
            hits.append(_normalize_witness(m))

    if not hits:
        return IndependenceResult(True, bound)
    witness = min(hits, key=lambda m: (max(abs(v) for v in m), m))
    return IndependenceResult(False, bound, witness)


def haar_sample_batch(gamma: FrequencySet, n_samples: int, seed: int) -> np.ndarray:
    """(n_samples, n) matrix of independent Haar draws."""
    require_count(n_samples, "n_samples", 1)
    require_seed(seed)
    require_budget(n_samples * gamma.n, MAX_MC_DRAWS, "samples x phases")
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, 2.0 * math.pi, (n_samples, gamma.n))


QUADRATURE_MAX_AXES = 4

# phases of one Monte Carlo integral (samples x axes), which
# haar_sample_batch holds at once, where support.MAX_MC_DRAWS bounds the
# time of a tail-growth run that draws in blocks; and nodes of the finer
# quadrature grid, (2 * points_per_axis)^n, where the default 16 points on
# 4 axes is 2^20 nodes
MAX_MC_DRAWS = 10**7
MAX_QUAD_NODES = 2**21
# rows of phases one call of the integrand gets
_BLOCK_ROWS = 2**13


class HaarIntegralResult(Record):
    value: complex
    error_bound: float
    method: str


def _evaluate(f: Callable, points: np.ndarray, where: str) -> np.ndarray:
    """f on a read-only view of the rows of the (M, n) phase matrix: M finite
    values."""
    points = points.view()
    points.flags.writeable = False
    vals = np.asarray(f(points), dtype=complex)
    if vals.shape != (len(points),):
        raise InputError(
            f"integrand must map {points.shape} phases to shape ({len(points)},), got {vals.shape}"
        )
    if not np.all(np.isfinite(vals)):
        raise NumericError(f"integrand produced a non-finite value {where}")
    return vals


def _phases(lo: int, hi: int, size: int) -> np.ndarray:
    """The phases 2*pi*k/size of the grid nodes k = lo..hi-1."""
    return 2.0 * math.pi * np.arange(lo, hi) / size


def _grid_blocks(size: int, n_axes: int):
    """The nodes of the grid of ``size`` phases per axis in row-major order, in
    blocks of at most _BLOCK_ROWS rows: whole slices of the leading axis, or
    runs of one slice where a slice holds more rows.

    Yields (i, j, block): ``block`` is a (leads, rows, n_axes) view, the rows
    j..j+rows-1 of the leading slices i..i+leads-1, of one buffer built once
    per call: the grid of the other axes, ``leads`` times over.  Each new run
    of leading slices rewrites only the leading-phase column, so a block
    holds its nodes until the next one is drawn; ``_evaluate`` hands it to
    the integrand read-only.
    """
    rows = size ** (n_axes - 1)  # the nodes of one leading slice
    leads = max(1, _BLOCK_ROWS // rows)
    step = min(rows, _BLOCK_ROWS)
    grid = np.empty((leads,) + (size,) * (n_axes - 1) + (n_axes,))
    for axis in range(1, n_axes):
        grid[..., axis] = _phases(0, size, size).reshape((size,) + (1,) * (n_axes - 1 - axis))
    grid = grid.reshape(leads, rows, n_axes)
    for i in range(0, size, leads):
        lead = _phases(i, min(i + leads, size), size)
        grid[: len(lead), :, 0] = lead[:, None]
        for j in range(0, rows, step):
            yield i, j, grid[: len(lead), j : j + step]


def _grid_means(f: Callable, n_axes: int, points: int) -> tuple[complex, complex]:
    """Trapezoid means of f on the grids of 2*points and of points nodes per axis.

    f is evaluated on the fine grid only, called on row blocks that tile it
    in row-major order.  The coarse nodes 2*pi*j/points are its even-index
    nodes 2*pi*(2j)/(2*points) exactly, since the two expressions differ
    only by a power-of-two scale, and in row-major order they come in the
    coarse grid's own order.  No grid-sized vector is held: each block's
    values, and its even-index values, go into a ``StreamSum``, which adds
    them as numpy's mean of the whole grid's vector would.
    """
    size = 2 * points
    fine = StreamSum(size**n_axes, complex, _BLOCK_ROWS)
    coarse = StreamSum(points**n_axes, complex, _BLOCK_ROWS)
    even_tail = np.zeros((size,) * (n_axes - 1), dtype=bool)
    even_tail[(slice(None, None, 2),) * (n_axes - 1)] = True
    even_tail = even_tail.reshape(-1)
    for i, j, block in _grid_blocks(size, n_axes):
        leads, rows = block.shape[:2]
        vals = _evaluate(f, block.reshape(-1, n_axes), "on the grid")
        fine.add(vals)
        if leads > 1 or i % 2 == 0:  # one odd leading slice holds no coarse node
            coarse.add(vals.reshape(leads, rows)[i % 2 :: 2, even_tail[j : j + rows]].reshape(-1))
    return fine.mean(), coarse.mean()


class QuadratureMethod(Record):
    """Periodic trapezoid rule with points_per_axis nodes per angle, on n <= 4
    axes: exact on trigonometric polynomials below the node count, and the
    reported bound is the change under doubling the nodes."""

    points_per_axis: int = 16

    def __post_init__(self):
        require_count(self.points_per_axis, "points per axis", 2)

    def integrate(self, gamma: FrequencySet, f: Callable) -> HaarIntegralResult:
        require_budget(gamma.n, QUADRATURE_MAX_AXES, "quadrature axes")
        require_budget((2 * self.points_per_axis) ** gamma.n, MAX_QUAD_NODES, "quadrature nodes")
        fine, coarse = _grid_means(f, gamma.n, self.points_per_axis)
        bound = abs(fine - coarse) + 1e-14
        return HaarIntegralResult(fine, bound, f"quadrature({self.points_per_axis}x2)")


class MCMethod(Record):
    """Seeded Monte Carlo; the reported bound is the standard error of the mean."""

    n_samples: int
    seed: int

    def __post_init__(self):
        require_count(self.n_samples, "n_samples", 2)
        require_seed(self.seed)

    def integrate(self, gamma: FrequencySet, f: Callable) -> HaarIntegralResult:
        require_budget(self.n_samples * gamma.n, MAX_MC_DRAWS, "samples x phases")
        # the draws of haar_sample_batch, made block by block from one generator
        rng = np.random.default_rng(self.seed)
        vals = np.empty(self.n_samples, dtype=complex)
        for lo in range(0, self.n_samples, _BLOCK_ROWS):
            rows = min(_BLOCK_ROWS, self.n_samples - lo)
            points = rng.uniform(0.0, 2.0 * math.pi, (rows, gamma.n))
            vals[lo : lo + rows] = _evaluate(f, points, "on a sample")
        est = complex(vals.mean())
        se = math.sqrt(
            (np.var(vals.real, ddof=1) + np.var(vals.imag, ddof=1)) / self.n_samples
        )
        return HaarIntegralResult(est, se, f"mc({self.n_samples},seed={self.seed})")


Method = Union[QuadratureMethod, MCMethod]


def haar_cylinder_integral(gamma: FrequencySet, f: Callable, method: Method) -> HaarIntegralResult:
    """Normalized Haar integral of f over the torus of ``gamma`` by ``method``.

    ``f`` is called on row blocks that tile the quadrature grid or the
    draws, each an (M, n) array of phases with M at most 2^13, and returns
    M real or complex values; a callable of one phase vector raises its
    own error on such an array or returns another shape, an ``InputError``.
    ``f`` must not write to its phases: a block is read-only, and writing
    to it raises numpy's ``ValueError``.  The quadrature rewrites one buffer
    from block to block, so ``f`` must copy a block it keeps.
    The quadrature sums the values block by block, in numpy's pairwise
    order, so what it holds is a block and not the grid, and its report is
    the one that numpy's means of the whole grid's values would give.
    """
    return method.integrate(gamma, f)
