"""Support diagnostics for diagonal Gaussian measures.

A diagonal operator with entries h_n is Hilbert-Schmidt exactly when
sum h_n^2 converges.  For a Gaussian with variance sequence rho, the
weighted subspace { x : sum a_n^2 x_n^2 < infinity } carries full measure
exactly when sum a_n^2 rho_n converges — the coordinates contribute
independent a_n^2 x_n^2 with mean a_n^2 rho_n, so the weighted tail sum
is almost surely finite or almost surely infinite with it.  Both checks
are symbolic on decay classes; ``mc_tail_growth`` is the empirical
cross-check that watches the partial sums themselves.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .errors import InputError, NumericError
from .gaussian import CovarianceSeq, mc_mean
from .sequences import DecaySeq, require_positive, summable

__all__ = [
    "DiagonalOperator",
    "Support",
    "SupportReport",
    "TailGrowthReport",
    "hilbert_schmidt_check",
    "weighted_support_check",
    "mc_tail_growth",
    "MAX_MC_DRAWS",
]

# a diagonal operator is a positive decay class; the alias names the role
DiagonalOperator = DecaySeq


def hilbert_schmidt_check(h: DiagonalOperator) -> bool:
    """Whether the diagonal operator with entries h_n is Hilbert-Schmidt.

    Decided symbolically as convergence of sum h_n^2.  A tabulated input
    raises ``UndecidableError``: a finite table cannot settle a tail sum.
    """
    atoms = h.atoms()
    require_positive(h, "diagonal operator")
    return summable((atoms[0], 2))


class Support(str, enum.Enum):
    SUPPORTED = "supported"
    NOT_SUPPORTED = "not-supported"


@dataclass(frozen=True)
class SupportReport:
    """Verdict for the weighted subspace sum a_n^2 x_n^2 < infinity.

    ``series`` records the decision for sum a_n^2 rho_n.  ``partial_sums``
    is always None, kept so the payload keeps its key: every verdict is
    symbolic, and a tabulated input is refused rather than traced.
    """

    verdict: Support
    series: str  # "converges" | "diverges"
    partial_sums: None = None


def weighted_support_check(cov: CovarianceSeq, a: DiagonalOperator) -> SupportReport:
    """Does the weighted-l2 subspace defined by ``a`` carry full measure?

    Supported iff sum a_n^2 rho_n converges.  A tabulated input raises
    ``UndecidableError``: a finite table cannot settle a tail sum.
    """
    atoms_cov, atoms_a = cov.atoms(), a.atoms()
    require_positive(cov, "covariance")
    require_positive(a, "weight sequence")
    if summable((atoms_a[0], 2), (atoms_cov[0], 1)):
        return SupportReport(Support.SUPPORTED, "converges")
    return SupportReport(Support.NOT_SUPPORTED, "diverges")


@dataclass(frozen=True)
class TailGrowthReport:
    """Empirical growth of S_N = sum_{n<=N} a_n^2 x_n^2 under sampling.

    ``kind`` is "slope" with the fitted linear rate when the mean partial
    sums keep growing, or "plateau" with the terminal mean when they
    level off.  ``checkpoints`` holds (n, mean S_n) pairs for inspection
    and ``final_se`` is the standard error of the terminal mean.
    """

    kind: str
    value: float
    final_se: float
    checkpoints: tuple[tuple[int, float], ...]
    n_coords: int
    n_samples: int
    seed: int


_N_CHECKPOINTS = 16
_GROWTH_RATIO = 1.5  # mean S_N / mean S_{N/2} above this counts as growing

# coordinates x samples of one mc_tail_growth call; the chunking bounds its
# memory, not its time (the full budget runs 23-25 s on a two-vCPU VM,
# about 21 s of it drawing the normals)
MAX_MC_DRAWS = 10**9


def mc_tail_growth(
    cov: CovarianceSeq,
    a: DiagonalOperator,
    n_coords: int,
    n_samples: int,
    seed: int,
) -> TailGrowthReport:
    """Monte Carlo oracle for ``weighted_support_check``.

    Draws ``n_samples`` independent truncated sequences, accumulates the
    weighted square partial sums to ``n_coords`` coordinates, and
    classifies the mean curve: roughly doubling from N/2 to N means
    linear divergence (slope fitted on the second half), otherwise the
    curve has plateaued at the series value.  Sub-linear divergence (for
    instance logarithmic) will read as a plateau at these depths; the
    checkpoint trace is returned so callers can look for themselves.
    """
    if n_coords < 100:
        raise InputError(f"need n_coords >= 100, got {n_coords}")
    if n_samples < 100:
        raise InputError(f"need n_samples >= 100, got {n_samples}")
    if n_coords * n_samples > MAX_MC_DRAWS:
        raise InputError(
            f"{n_coords} coordinates x {n_samples} samples exceed "
            f"the budget of {MAX_MC_DRAWS} draws"
        )
    require_positive(cov, "covariance")
    require_positive(a, "weight sequence")
    import numpy as np

    rng = np.random.default_rng(seed)
    marks = np.unique((np.arange(1, _N_CHECKPOINTS + 1) * n_coords) // _N_CHECKPOINTS)
    with np.errstate(over="ignore", invalid="ignore"):
        weights = a.first(n_coords) ** 2 * cov.first(n_coords)
        if not np.isfinite(weights).all():  # refused before anything is drawn
            raise NumericError("the weights a_n^2 rho_n overflow")

        # one pass over the draws, chunk-by-chunk over coordinates to bound
        # memory: the mean of S_m over samples is sum_{n<=m} w_n mean(x_n^2),
        # so the checkpoints need only the column sums of the squared draws
        chunk = max(1, min(n_coords, 10_000_000 // n_samples))
        running = np.zeros(n_samples)
        col_sums = np.empty(n_coords)
        for start in range(0, n_coords, chunk):
            stop = min(start + chunk, n_coords)
            block_sq = rng.standard_normal((n_samples, stop - start))
            np.square(block_sq, out=block_sq)
            block_sq.sum(axis=0, out=col_sums[start:stop])
            running += block_sq @ weights[start:stop]

        means = np.cumsum(weights * col_sums) / n_samples
    try:
        final_se = mc_mean(running)[1]
    except NumericError:  # refused below, as an overflow of the partial sums
        final_se = math.inf
    if not (np.isfinite(means[-1]) and math.isfinite(final_se)):
        raise NumericError("the sampled partial sums of a_n^2 x_n^2 overflow")
    checkpoints = tuple((int(m), float(means[m - 1])) for m in marks)
    half = checkpoints[len(checkpoints) // 2 - 1][1]
    final = checkpoints[-1][1]
    kind, value = "plateau", final
    if half > 0 and final / half >= _GROWTH_RATIO:
        xs = np.array([m for m, _ in checkpoints[len(checkpoints) // 2 :]], dtype=float)
        ys = np.array([v for _, v in checkpoints[len(checkpoints) // 2 :]])
        kind, value = "slope", float(np.polyfit(xs, ys, 1)[0])
    return TailGrowthReport(kind, value, final_se, checkpoints, n_coords, n_samples, seed)

