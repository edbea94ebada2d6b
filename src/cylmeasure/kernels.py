"""Translation-invariant covariance kernels on the line.

Two closed-form kernels are provided.  White noise has covariance
sigma * identity; its kernel is the point evaluation sigma * delta(x)
and is not a function, so bilinear forms against it collapse to a single
integral sigma * integral f g dx.  The massive free kernel at mass m > 0
is the Fourier integral

    (1/2pi) * integral dp cos(p x) / (m^2 + p^2)  =  exp(-m |x|) / (2 m),

whose 1/(2m) normalization this module pins by quadrature rather than
taking on faith.  Each kernel class carries its own operations: the
point value ``at`` with ``at_method``, the method a result names as its
provenance, the trapezoid ``bilinear`` form on a grid and the
``regularity`` flag.  Grid functions use trapezoid quadrature with the
usual O(dx^2) error model; smoothness of the inputs is the caller's
business.  The support flag is exact for the closed forms and
``undecided`` for a table.  numpy loads at the first array the code
builds, so ``at`` and ``regularity`` of a closed-form kernel never load
it, and then only numpy's core: the 24-point Gauss-Legendre rule of the
Fourier quadrature is a literal table, so no call imports
``numpy.polynomial``.
The kernels, ``GridFunction`` and ``FourierQuadResult`` are frozen
records (``_record.Record``).
"""

from __future__ import annotations

import enum
import math
from typing import Union

from . import _np as np
from ._record import Record
from .errors import InputError, NumericError, require_budget, require_count, require_real

__all__ = [
    "WhiteNoise",
    "MassiveFree1D",
    "TabulatedKernel",
    "KernelSpec",
    "GridFunction",
    "KernelRegularity",
    "FourierQuadResult",
    "kernel_fourier_quadrature",
    "gauss_legendre_panels",
    "MAX_FOURIER_NODES",
    "MAX_TABULATED_ENTRIES",
    "covariance_bilinear",
]


class KernelRegularity(str, enum.Enum):
    """Continuity class of a kernel, as a support-regularity flag.

    A kernel that is not a continuous function (white noise) puts the
    measure on distributions that are signed measures on no open set; a
    continuous kernel (massive free, d = 1) keeps typical paths function-
    like.  A table of finitely many values fixes no continuity class.
    """

    CONTINUOUS_KERNEL = "continuous-kernel"
    NOWHERE_SIGNED_MEASURE = "nowhere-signed-measure"
    UNDECIDED = "undecided"


class WhiteNoise(Record):
    """Covariance sigma * identity; kernel sigma * delta."""

    sigma: float
    regularity = KernelRegularity.NOWHERE_SIGNED_MEASURE
    at_method = "closed-form kernel evaluation"

    def __post_init__(self):
        require_real(self.sigma, "white noise sigma", "> 0")

    def at(self, x: float) -> float:
        """A delta has no point value: always an InputError."""
        raise InputError("the white noise kernel is sigma*delta, not a pointwise function")

    def bilinear(self, f: GridFunction, g: GridFunction) -> float:
        """sigma times the trapezoid L2 inner product: the delta collapses
        one integral, so no kernel matrix is involved."""
        return float(self.sigma * np.sum(f.weighted() * np.asarray(g.values)))


class MassiveFree1D(Record):
    """Kernel exp(-m|x|)/(2m) of the inverse of (m^2 - d^2/dx^2)."""

    m: float
    regularity = KernelRegularity.CONTINUOUS_KERNEL
    at_method = "closed-form kernel evaluation"

    def __post_init__(self):
        require_real(self.m, "massive free kernel m", "> 0")

    def at(self, x: float) -> float:
        require_real(x, "x")
        return math.exp(-self.m * abs(x)) / (2.0 * self.m)

    def bilinear(self, f: GridFunction, g: GridFunction) -> float:
        """On the grid the kernel is exp(-m dx)^|i-j| / (2m), which two
        first-order recursions apply in O(N) time and memory."""
        r = math.exp(-self.m * f.dx)
        return _semiseparable_form(f.weighted(), g.weighted(), r) / (2.0 * self.m)


# entries N^2 of the dense matrix a tabulated kernel builds over N grid points;
# the bilinear form holds one array of that size (80 MB at the budget)
MAX_TABULATED_ENTRIES = 10**7


class TabulatedKernel(Record):
    """Kernel values on a strictly increasing grid, interpolated linearly."""

    grid: tuple[float, ...]
    values: tuple[float, ...]
    regularity = KernelRegularity.UNDECIDED
    at_method = "linear interpolation of the table"

    def __post_init__(self):
        if len(self.grid) != len(self.values) or len(self.grid) < 2:
            raise InputError("tabulated kernel needs matching grid/values of length >= 2")
        for i, (x, v) in enumerate(zip(self.grid, self.values)):
            require_real(x, f"tabulated kernel grid point {i}")
            require_real(v, f"tabulated kernel value {i}")
        object.__setattr__(self, "grid", tuple(float(v) for v in self.grid))
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        if not all(a < b for a, b in zip(self.grid, self.grid[1:])):
            raise InputError("tabulated kernel grid must be strictly increasing")

    def at(self, x: float) -> float:
        """Linear interpolation; a point outside the grid is an InputError."""
        require_real(x, "x")
        if not (self.grid[0] <= x <= self.grid[-1]):
            raise InputError(
                f"x={x} outside the tabulated range [{self.grid[0]}, {self.grid[-1]}]"
            )
        return float(np.interp(x, self.grid, self.values))

    def bilinear(self, f: GridFunction, g: GridFunction) -> float:
        """The dense N x N matrix K((i - j) dx), read from the 2N - 1 lags
        k dx, |k| < N, which must lie in the table."""
        n = f.count
        require_budget(n * n, MAX_TABULATED_ENTRIES, "kernel matrix entries")
        lags = f.dx * np.arange(1 - n, n)
        lo, hi = self.grid[0], self.grid[-1]
        if lags[0] < lo or lags[-1] > hi:
            raise InputError(
                f"grid lags span [{lags[0]}, {lags[-1]}], outside the tabulated range [{lo}, {hi}]"
            )
        row = np.interp(lags, self.grid, self.values)
        s = row.strides[0]  # kmat[i, j] = row[n - 1 + i - j], a strided view copied once
        kmat = np.lib.stride_tricks.as_strided(row[n - 1 :], (n, n), (s, -s)).copy()
        return float(f.weighted() @ kmat @ g.weighted())


KernelSpec = Union[WhiteNoise, MassiveFree1D, TabulatedKernel]


class GridFunction(Record):
    """Values on the uniform grid x0 + i*dx, i = 0..count-1."""

    x0: float
    dx: float
    count: int
    values: tuple[float, ...]

    def __post_init__(self):
        require_count(self.count, "grid count", 2)
        require_real(self.x0, "grid x0")
        require_real(self.dx, "grid dx", "> 0")
        if len(self.values) != self.count:
            raise InputError(
                f"grid declares {self.count} points but carries {len(self.values)} values"
            )
        for i, v in enumerate(self.values):
            require_real(v, f"grid value {i}")
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))

    @property
    def xs(self) -> np.ndarray:
        return self.x0 + self.dx * np.arange(self.count)

    def trapezoid_weights(self) -> np.ndarray:
        w = np.full(self.count, self.dx)
        w[0] = w[-1] = 0.5 * self.dx
        return w

    def weighted(self) -> np.ndarray:
        """The values times their trapezoid weights."""
        return self.trapezoid_weights() * np.asarray(self.values)


class FourierQuadResult(Record):
    """Value of the truncated Fourier integral with a proved error bound."""

    value: float  # (1/2pi) int_{-A}^{A} cos(px)/(m^2 + p^2) dp by the panel rule
    error_bound: float  # tail_bound + quad_error: bounds |value - exp(-m|x|)/(2m)|
    tail_bound: float  # bound on the discarded |p| > A part
    quad_error: float  # proved bound on the rule's error on [-A, A], rounding included
    p_cutoff: float  # the truncation A actually used, at most the requested cutoff


# nodes per panel, and the node budget of one call, checked before allocation
_GAUSS_NODES = 24
MAX_FOURIER_NODES = 2**21
# Bernstein-ellipse parameters tried on every panel; the least valid bound counts
_RHOS = (1.25, 1.5, 2.0, 2.5, 2.9, 4.0, 6.0, 8.0, 12.0, 16.0, 32.0, 64.0)
# multiplies every bound; above 2^-32, the relative rounding of a float sum
# of MAX_FOURIER_NODES terms
_INFLATE = 1.0 + 2.0**-30


# the _GAUSS_NODES-point Gauss-Legendre rule on [-1, 1]: its positive nodes
# in increasing order and their weights, as numpy.polynomial.legendre.leggauss
# gives them; that function symmetrises its output, so the other nodes are
# the exact negatives of these and carry the same weights
_GAUSS_HALF_NODES = (
    0.06405689286260563, 0.1911188674736163, 0.3150426796961634, 0.4337935076260451,
    0.5454214713888396, 0.6480936519369755, 0.7401241915785544, 0.820001985973903,
    0.8864155270044011, 0.9382745520027328, 0.9747285559713095, 0.9951872199970213,
)
_GAUSS_HALF_WEIGHTS = (
    0.12793819534675202, 0.12583745634682825, 0.1216704729278033, 0.11550566805372552,
    0.10744427011596556, 0.09761865210411393, 0.0861901615319532, 0.07334648141108016,
    0.05929858491543636, 0.04427743881741941, 0.02853138862893356, 0.01234122979998869,
)


def _gauss_legendre_rule() -> tuple[np.ndarray, np.ndarray]:
    """The rule's nodes on [-1, 1], in increasing order, and its weights."""
    nodes, weights = np.array(_GAUSS_HALF_NODES), np.array(_GAUSS_HALF_WEIGHTS)
    return np.concatenate((-nodes[::-1], nodes)), np.concatenate((weights[::-1], weights))


def gauss_legendre_panels(edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights, each (panels, _GAUSS_NODES), of the Gauss-Legendre
    rule on every panel [edges[i], edges[i+1]]."""
    s, w = _gauss_legendre_rule()
    half = 0.5 * np.diff(edges)[:, None]
    return edges[:-1, None] + half * (1.0 + s), half * w


def kernel_fourier_quadrature(
    m: float, x: float, p_cutoff: float = 1e7, tol: float = 1e-6
) -> FourierQuadResult:
    """Evaluate (1/2pi) * int_{-A}^{A} cos(px)/(m^2 + p^2) dp with a proved bound.

    In units t = p/m this is J/(pi m), J = int_0^T cos(xi t)/(1+t^2) dt with
    xi = m|x| and T = A/m <= 2^500.  Panels double in width from 1 and are
    never wider than pi/xi.  On each, the n-point Gauss-Legendre error is at
    most h * 64 M rho^(2-2n) / (15 (rho^2 - 1)) when |f| <= M on a Bernstein
    ellipse E_rho off the poles +-i (Trefethen, Approximation Theory and
    Approximation Practice, Thm 19.3, whose rule has n + 1 points); a
    rounding term is added.
    The |p| > A tail is at most arctan(m/A)/(pi m) and, for x != 0, at most
    2/(pi |x| (m^2 + A^2)) by the second mean-value theorem, which lowers A
    below ``p_cutoff`` to where it is tol/2.  A bound that is not finite or
    exceeds ``tol``, or more than MAX_FOURIER_NODES nodes, is a NumericError.
    """
    require_real(m, "m", "> 0")
    require_real(x, "x")
    require_real(p_cutoff, "cutoff", "> 0")
    require_real(tol, "tolerance", "> 0")
    xi, scale = m * abs(x), 1.0 / (math.pi * m)
    t_max = min(p_cutoff / m, 2.0**500)  # keeps t^2 a float
    tail = math.atan2(1.0, t_max)
    if xi > 0:  # the second bound is 2 scale / (xi (1 + T^2))
        t_max = min(t_max, math.sqrt(max(4.0 * scale / xi / tol - 1.0, 0.0)))
        tail = min(math.atan2(1.0, t_max), 2.0 / xi / (1.0 + t_max * t_max))
    tail_bound = tail * scale * _INFLATE
    if not tail_bound <= tol:
        raise NumericError(f"tail bound {tail_bound:.3e} above tolerance {tol:.3e}",
                           achieved=tail_bound)
    cap = math.pi / xi if xi > 0 else math.inf
    edges = [0.0]
    while edges[-1] < t_max and edges[-1] + 1.0 < cap:
        edges.append(2.0 * edges[-1] + 1.0)
    rest = (t_max - edges[-1]) / cap if t_max > edges[-1] else 0.0
    needed = (len(edges) - 1 + rest) * _GAUSS_NODES
    if not needed <= MAX_FOURIER_NODES:
        raise NumericError(f"{needed:.3e} nodes exceed the budget of {MAX_FOURIER_NODES}")
    capped = edges[-1] + cap * np.arange(1, math.ceil(rest) + 1)
    edges = np.minimum(np.append(edges, capped), t_max)
    nodes, weights = gauss_legendre_panels(edges)
    half, sq = 0.5 * np.diff(edges)[:, None], 1.0 + nodes * nodes
    value = math.fsum((weights * np.cos(xi * nodes) / sq).sum(axis=1))
    # M <= cosh(xi V) / (1 + U^2 - V^2) on E_rho, as |Im t| <= V = h b and
    # |Re t| >= U = c - h a, for the semi-axes a, b of E_rho
    rhos = np.array(_RHOS)
    a, b = (rhos + 1 / rhos) / 2, (rhos - 1 / rhos) / 2
    den = 1.0 + np.maximum(edges[:-1, None] + half * (1.0 - a), 0.0) ** 2 - (half * b) ** 2
    gauss = half * np.cosh(xi * half * b) * (64 / 15) * rhos ** (2.0 - 2 * _GAUSS_NODES)
    gauss = np.divide(gauss / (rhos**2 - 1), den, out=np.full(den.shape, np.inf),
                      where=den > 0)
    # per term, (n + 36) u covers the panel sum, weight, cos, division and
    # node, 5 u xi (t + h) the argument xi t; 2^-1000 and 2^-1074 underflow
    sizes = weights * (_GAUSS_NODES + 36 + 5 * xi * (nodes + half)) / sq
    rounding = 2.0**-53 * (float(np.sum(sizes)) + 4.0 * abs(value))
    quad_error = (float(gauss.min(axis=1).sum()) + rounding + 2.0**-1000) * scale * _INFLATE
    quad_error += 2.0**-1074
    value *= scale
    bound = tail_bound + quad_error
    if not (math.isfinite(value) and bound <= tol):
        raise NumericError(f"value {value:.3e} with bound {bound:.3e} misses tolerance "
                           f"{tol:.3e}", achieved=bound)
    return FourierQuadResult(value, bound, tail_bound, quad_error, min(p_cutoff, t_max * m))


# length of the blocks in which _decay_scan runs its recursion as a
# small triangular matrix product
_SCAN_BLOCK = 64


def _decay_scan(b: np.ndarray, r: float) -> np.ndarray:
    """The first-order recursion y_i = r * y_(i-1) + b_i, for 0 <= r < 1.

    Blocks of _SCAN_BLOCK values are scanned at once by the triangular
    Toeplitz matrix of r^(i-j); the block ends then follow the same
    recursion with ratio r^_SCAN_BLOCK and carry into the next block.
    O(N) time and memory, and only powers r^k with k >= 0 appear, so
    nothing overflows.
    """
    n = len(b)
    width = min(n, _SCAN_BLOCK)
    lag = np.arange(width)[:, None] - np.arange(width)[None, :]
    tri = np.where(lag >= 0, r ** np.maximum(lag, 0), 0.0)
    if n <= _SCAN_BLOCK:
        return tri @ b
    rows = -(-n // _SCAN_BLOCK)
    padded = np.zeros(rows * _SCAN_BLOCK)
    padded[:n] = b
    local = padded.reshape(rows, _SCAN_BLOCK) @ tri.T
    ends = _decay_scan(local[:, -1], r**_SCAN_BLOCK)
    local[1:] += np.outer(ends[:-1], r ** np.arange(1, _SCAN_BLOCK + 1))
    return local.reshape(-1)[:n]


def _semiseparable_form(a: np.ndarray, b: np.ndarray, r: float) -> float:
    """sum_ij a_i r^|i-j| b_j in O(N), for 0 <= r < 1.

    The kernel splits into its lower triangle j <= i, which is the
    forward recursion of b, and its strict upper triangle, whose form
    with a and b is that of the strict lower triangle with a and b
    swapped: sum_{j<i} b_i r^(i-j) a_j = r * sum_i b_i y(a)_(i-1).
    """
    forward_a = _decay_scan(a, r)
    forward_b = _decay_scan(b, r)
    return float(a @ forward_b + r * (b[1:] @ forward_a[:-1]))


def covariance_bilinear(spec: KernelSpec, f: GridFunction, g: GridFunction) -> float:
    """Trapezoid value of the double integral f(x) K(x - x') g(x') dx dx'
    by ``spec.bilinear``, over the one grid that f and g must share.  A
    weight or sum that overflows is a NumericError."""
    if (f.x0, f.dx, f.count) != (g.x0, g.dx, g.count):
        raise InputError(
            f"incompatible grids: ({f.x0}, {f.dx}, {f.count}) vs ({g.x0}, {g.dx}, {g.count})"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        value = spec.bilinear(f, g)
    if not math.isfinite(value):
        raise NumericError("the bilinear form overflows", value=value)
    return value
