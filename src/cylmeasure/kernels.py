"""Translation-invariant covariance kernels on the line.

Two closed-form kernels are provided.  White noise has covariance
sigma * identity; its kernel is the point evaluation sigma * delta(x)
and is not a function, so bilinear forms against it collapse to a single
integral sigma * integral f g dx.  The massive free kernel at mass m > 0
is the Fourier integral

    (1/2pi) * integral dp cos(p x) / (m^2 + p^2)  =  exp(-m |x|) / (2 m),

whose 1/(2m) normalization this module pins by quadrature rather than
taking on faith.  Grid functions use trapezoid quadrature with the usual
O(dx^2) error model; smoothness of the inputs is the caller's business.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import InputError, NumericError

__all__ = [
    "WhiteNoise",
    "MassiveFree1D",
    "TabulatedKernel",
    "KernelSpec",
    "GridFunction",
    "KernelRegularity",
    "FourierQuadResult",
    "BilinearReport",
    "kernel_eval",
    "kernel_fourier_quadrature",
    "covariance_bilinear",
    "covariance_bilinear_report",
    "support_regularity_flag",
]


@dataclass(frozen=True)
class WhiteNoise:
    """Covariance sigma * identity; kernel sigma * delta."""

    sigma: float

    def __post_init__(self):
        if not (self.sigma > 0 and math.isfinite(self.sigma)):
            raise InputError(f"white noise needs sigma > 0, got {self.sigma}")


@dataclass(frozen=True)
class MassiveFree1D:
    """Kernel exp(-m|x|)/(2m) of the inverse of (m^2 - d^2/dx^2)."""

    m: float

    def __post_init__(self):
        if not (self.m > 0 and math.isfinite(self.m)):
            raise InputError(f"massive free kernel needs m > 0, got {self.m}")


@dataclass(frozen=True)
class TabulatedKernel:
    """Kernel values on a strictly increasing grid, interpolated linearly."""

    grid: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "grid", tuple(float(v) for v in self.grid))
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        if len(self.grid) != len(self.values) or len(self.grid) < 2:
            raise InputError("tabulated kernel needs matching grid/values of length >= 2")
        if not all(a < b for a, b in zip(self.grid, self.grid[1:])):
            raise InputError("tabulated kernel grid must be strictly increasing")


KernelSpec = Union[WhiteNoise, MassiveFree1D, TabulatedKernel]


@dataclass(frozen=True)
class GridFunction:
    """Values on the uniform grid x0 + i*dx, i = 0..count-1."""

    x0: float
    dx: float
    count: int
    values: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        if self.count < 2:
            raise InputError(f"grid needs count >= 2, got {self.count}")
        if not (self.dx > 0 and math.isfinite(self.dx)):
            raise InputError(f"grid needs dx > 0, got {self.dx}")
        if len(self.values) != self.count:
            raise InputError(
                f"grid declares {self.count} points but carries {len(self.values)} values"
            )

    @property
    def xs(self) -> np.ndarray:
        return self.x0 + self.dx * np.arange(self.count)

    def trapezoid_weights(self) -> np.ndarray:
        w = np.full(self.count, self.dx)
        w[0] = w[-1] = 0.5 * self.dx
        return w


def kernel_eval(spec: KernelSpec, x: float) -> float:
    """Point value of the covariance kernel at separation x.

    White noise has no pointwise kernel (it is a delta), so asking for
    one is an input error.  Tabulated kernels interpolate linearly and
    refuse points outside their grid.
    """
    if isinstance(spec, MassiveFree1D):
        return math.exp(-spec.m * abs(x)) / (2.0 * spec.m)
    if isinstance(spec, TabulatedKernel):
        if not (spec.grid[0] <= x <= spec.grid[-1]):
            raise InputError(
                f"x={x} outside the tabulated range [{spec.grid[0]}, {spec.grid[-1]}]"
            )
        return float(np.interp(x, spec.grid, spec.values))
    if isinstance(spec, WhiteNoise):
        raise InputError("the white noise kernel is sigma*delta, not a pointwise function")
    raise InputError(f"not a kernel spec: {spec!r}")


@dataclass(frozen=True)
class FourierQuadResult:
    """Numeric value of the truncated Fourier integral with its error budget."""

    value: float
    error_bound: float  # tail bound + quadrature error estimate
    tail_bound: float
    quad_error: float
    p_cutoff: float


def _fourier_tail_bound(m: float, p_cutoff: float) -> float:
    # |(1/pi) int_P^inf cos(px)/(m^2+p^2) dp| <= (1/pi) int_P^inf dp/(m^2+p^2)
    return math.atan(m / p_cutoff) / (math.pi * m)


def kernel_fourier_quadrature(
    m: float, x: float, p_cutoff: float = 1e7, tol: float = 1e-6
) -> FourierQuadResult:
    """Evaluate (1/2pi) * int_{-P}^{P} cos(px)/(m^2 + p^2) dp numerically.

    The momentum axis is split into decades so the adaptive rule sees
    moderate intervals; segments holding several oscillation periods use
    the oscillatory-weight rule.  The discarded |p| > P tail is bounded
    rigorously and the call fails (carrying the achieved bound) when the
    requested tolerance cannot be met under the given cutoff.
    """
    if not (m > 0 and math.isfinite(m)):
        raise InputError(f"need m > 0, got {m}")
    if not (p_cutoff > 0 and math.isfinite(p_cutoff)):
        raise InputError(f"need a finite cutoff > 0, got {p_cutoff}")
    if tol <= 0:
        raise InputError(f"tolerance must be positive, got {tol}")
    tail = _fourier_tail_bound(m, p_cutoff)
    if tail > tol:
        raise NumericError(
            f"tail bound {tail:.3e} above tolerance {tol:.3e}; raise p_cutoff",
            achieved=tail,
        )
    # imported here, not at module top: scipy.integrate takes about half a
    # second to load and no other path of the package needs it
    from scipy.integrate import quad

    xs = abs(x)
    edges = [0.0]
    edge = 1.0
    while edge < p_cutoff:
        edges.append(edge)
        edge *= 10.0
    edges.append(p_cutoff)

    budget = max((tol - tail) / (2 * len(edges)), 1e-14)
    total = 0.0
    err_total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        if xs * (b - a) > 2.0 * math.pi:
            cycles = int(xs * (b - a) / math.pi) + 50
            val, err = quad(
                lambda p: 1.0 / (m * m + p * p),
                a,
                b,
                weight="cos",
                wvar=xs,
                epsabs=budget,
                epsrel=0.0,
                limit=max(50, cycles),
            )
        else:
            val, err = quad(
                lambda p: math.cos(xs * p) / (m * m + p * p),
                a,
                b,
                epsabs=budget,
                epsrel=0.0,
                limit=200,
            )
        total += val
        err_total += err
    value = total / math.pi
    quad_error = err_total / math.pi
    if tail + quad_error > tol:
        raise NumericError(
            f"achieved bound {tail + quad_error:.3e} above tolerance {tol:.3e}",
            achieved=tail + quad_error,
        )
    return FourierQuadResult(
        value=value,
        error_bound=tail + quad_error,
        tail_bound=tail,
        quad_error=quad_error,
        p_cutoff=p_cutoff,
    )


def _check_same_grid(f: GridFunction, g: GridFunction) -> None:
    if (f.x0, f.dx, f.count) != (g.x0, g.dx, g.count):
        raise InputError(
            "incompatible grids: "
            f"({f.x0}, {f.dx}, {f.count}) vs ({g.x0}, {g.dx}, {g.count})"
        )


def covariance_bilinear(spec: KernelSpec, f: GridFunction, g: GridFunction) -> float:
    """Trapezoid value of the double integral f(x) K(x - x') g(x') dx dx'.

    For white noise the delta collapses one integral and the result is
    sigma times the (trapezoid) L2 inner product of f and g — exact at
    the quadrature level, no kernel matrix involved.
    """
    _check_same_grid(f, g)
    w = f.trapezoid_weights()
    fv = np.asarray(f.values)
    gv = np.asarray(g.values)
    if isinstance(spec, WhiteNoise):
        return float(spec.sigma * np.sum(w * fv * gv))
    xs = f.xs
    diff = xs[:, None] - xs[None, :]
    if isinstance(spec, MassiveFree1D):
        kmat = np.exp(-spec.m * np.abs(diff)) / (2.0 * spec.m)
    elif isinstance(spec, TabulatedKernel):
        lo, hi = spec.grid[0], spec.grid[-1]
        if diff.min() < lo or diff.max() > hi:
            raise InputError(
                f"grid differences span [{diff.min()}, {diff.max()}], outside the "
                f"tabulated range [{lo}, {hi}]"
            )
        kmat = np.interp(diff, spec.grid, spec.values)
    else:
        raise InputError(f"not a kernel spec: {spec!r}")
    return float((w * fv) @ kmat @ (w * gv))


@dataclass(frozen=True)
class BilinearReport:
    value: float
    error_estimate: float  # |fine - coarse| under 2*dx subsampling


def covariance_bilinear_report(
    spec: KernelSpec, f: GridFunction, g: GridFunction
) -> BilinearReport:
    """Bilinear value plus a Richardson-style error estimate.

    The estimate compares the full grid against the every-other-point
    subgrid (step 2*dx); for the O(dx^2) trapezoid model it tracks the
    true error up to a constant and shrinks under refinement.  Requires
    an odd point count so the subgrid shares both endpoints.
    """
    if f.count % 2 == 0 or f.count < 3:
        raise InputError(
            f"error estimate needs an odd point count >= 3, got {f.count}"
        )
    value = covariance_bilinear(spec, f, g)
    coarse_f = GridFunction(f.x0, 2 * f.dx, (f.count + 1) // 2, f.values[::2])
    coarse_g = GridFunction(g.x0, 2 * g.dx, (g.count + 1) // 2, g.values[::2])
    coarse = covariance_bilinear(spec, coarse_f, coarse_g)
    return BilinearReport(value=value, error_estimate=abs(value - coarse))


class KernelRegularity(str, enum.Enum):
    CONTINUOUS_KERNEL = "continuous-kernel"
    NOWHERE_SIGNED_MEASURE = "nowhere-signed-measure"


# a tabulated kernel is flagged discontinuous when one adjacent jump
# dwarfs the typical jump and is visible at the value scale
_JUMP_FACTOR = 10.0
_JUMP_SCALE = 1e-3


def support_regularity_flag(spec: KernelSpec) -> KernelRegularity:
    """Continuity class of the kernel, as a support-regularity flag.

    A kernel that is not a continuous function (white noise) puts the
    measure on distributions that are signed measures on no open set; a
    continuous kernel (massive free, d = 1) keeps typical paths function-
    like.  Tabulated kernels are classified by a jump heuristic, which is
    a documented judgment call, not a theorem.
    """
    if isinstance(spec, WhiteNoise):
        return KernelRegularity.NOWHERE_SIGNED_MEASURE
    if isinstance(spec, MassiveFree1D):
        return KernelRegularity.CONTINUOUS_KERNEL
    if isinstance(spec, TabulatedKernel):
        jumps = np.abs(np.diff(spec.values))
        if jumps.size == 0:
            return KernelRegularity.CONTINUOUS_KERNEL
        scale = float(np.max(np.abs(spec.values)))
        big = float(jumps.max())
        typical = float(np.median(jumps))
        if big > _JUMP_FACTOR * typical and big > _JUMP_SCALE * scale:
            return KernelRegularity.NOWHERE_SIGNED_MEASURE
        return KernelRegularity.CONTINUOUS_KERNEL
    raise InputError(f"not a kernel spec: {spec!r}")
