"""Support diagnostics for diagonal Gaussian measures.

A diagonal operator with entries h_n is Hilbert-Schmidt exactly when
sum h_n^2 converges.  For a Gaussian with variance sequence rho, the
weighted subspace { x : sum a_n^2 x_n^2 < infinity } carries full measure
exactly when sum a_n^2 rho_n converges — the coordinates contribute
independent a_n^2 x_n^2 with mean a_n^2 rho_n, so the weighted tail sum
is almost surely finite or almost surely infinite with it.  Both checks
are symbolic on decay classes; ``mc_tail_growth`` is the empirical
cross-check that watches the partial sums themselves.  It loads numpy's
core and ``numpy.random`` only: its checkpoint counts are plain ints,
not ``np.unique`` of an array, which would import ``numpy.ma``.
Both reports are frozen records (``_record.Record``).
"""

from __future__ import annotations

import enum
import math
from typing import TYPE_CHECKING

from . import _np as np
from ._record import Record
from .errors import NumericError, require_budget, require_count, require_seed
from .sequences import DecaySeq, require_positive, summable

if TYPE_CHECKING:
    from .gaussian import CovarianceSeq

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


class SupportReport(Record):
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


class TailGrowthReport(Record):
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

# coordinates x samples of one mc_tail_growth call; the row blocks bound
# the draws it holds, not its time (the full budget runs 15-25 s on a
# two-vCPU VM, most of it drawing the normals)
MAX_MC_DRAWS = 10**9
# values of one row block of draws
_BLOCK_VALUES = 2**15


def _checkpoint_marks(n_coords: int) -> list[int]:
    """The coordinate counts k n_coords // _N_CHECKPOINTS, k = 1.._N_CHECKPOINTS.

    For n_coords >= _N_CHECKPOINTS they are distinct and increasing, so they
    equal np.unique of the same products, which would import numpy.ma.
    """
    return [k * n_coords // _N_CHECKPOINTS for k in range(1, _N_CHECKPOINTS + 1)]


def _row_spans(n_rows: int, rows: int) -> list[tuple[int, int]]:
    """Consecutive row ranges of ``rows`` rows; a last range of one row joins
    the one before.

    ``rows`` is a multiple of 4: OpenBLAS's gemv takes a matrix's rows in
    groups of four, so every row of a block is summed as in one gemv over
    all rows, while numpy hands a one-row block to ``dot``, which sums in
    another order.
    """
    stops = list(range(rows, n_rows, rows)) + [n_rows]
    if len(stops) > 1 and n_rows - stops[-2] == 1:
        del stops[-2]
    return list(zip([0] + stops[:-1], stops))


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

    The report is bit for bit that of each column chunk drawn whole: a
    chunk's row blocks are added in row order, as numpy adds them, and those
    of a one-column chunk, which numpy sums pairwise, go to a ``StreamSum``.
    """
    require_count(n_coords, "n_coords", 100)
    require_count(n_samples, "n_samples", 100)
    require_seed(seed)
    require_budget(n_coords * n_samples, MAX_MC_DRAWS, "coordinates x samples")
    require_positive(cov, "covariance")
    require_positive(a, "weight sequence")
    from .gaussian import mc_mean

    rng = np.random.default_rng(seed)
    marks = _checkpoint_marks(n_coords)
    with np.errstate(over="ignore", invalid="ignore"):
        weights = a.first(n_coords) ** 2 * cov.first(n_coords)
        if not np.isfinite(weights).all():  # refused before anything is drawn
            raise NumericError("the weights a_n^2 rho_n overflow")

        # one pass over the draws, chunk-by-chunk over coordinates to fix the
        # draw order: the mean of S_m over samples is sum_{n<=m} w_n mean(x_n^2),
        # so the checkpoints need only the column sums of the squared draws.
        # Each chunk is drawn in row blocks into one buffer, so the draws held
        # at once no longer grow with n_samples.
        chunk = max(1, min(n_coords, 10_000_000 // n_samples))
        rows = max(4, _BLOCK_VALUES // chunk // 4 * 4)
        buf = np.empty((rows + 2) * chunk)  # a carry row, a block and a last row merged into it
        running = np.zeros(n_samples)
        col_sums = np.empty(n_coords)
        for start in range(0, n_coords, chunk):
            stop = min(start + chunk, n_coords)
            w = weights[start:stop]
            column = None
            if stop == start + 1:  # numpy sums one column pairwise, not row by row
                from ._pairwise import StreamSum  # only a one-column chunk needs it
                column = StreamSum(n_samples, float, len(buf))  # a block may be 4 rows
            block = buf[: (rows + 2) * len(w)].reshape(rows + 2, len(w))
            block[0] = 0.0
            for lo, hi in _row_spans(n_samples, rows):
                draws = block[1 : 1 + hi - lo]
                rng.standard_normal(out=draws)
                np.square(draws, out=draws)
                if column is not None:
                    column.add(draws.reshape(-1))
                else:
                    # numpy sums the rows of a chunk one after another; row 0
                    # carries the sum so far, so the rows are added in that order
                    block[: 1 + hi - lo].sum(axis=0, out=col_sums[start:stop])
                    block[0] = col_sums[start:stop]
                running[lo:hi] += draws @ w
            if column is not None:
                col_sums[start] = column.total()

        # n_samples times the mean of S_m is the m-th prefix sum of
        # w_n col_sums_n, formed in place; only the values read are divided
        np.multiply(col_sums, weights, out=col_sums)
        np.cumsum(col_sums, out=col_sums)
    try:
        final_se = mc_mean(running)[1]
    except NumericError:  # refused below, as an overflow of the partial sums
        final_se = math.inf
    if not (np.isfinite(col_sums[-1]) and math.isfinite(final_se)):
        raise NumericError("the sampled partial sums of a_n^2 x_n^2 overflow")
    checkpoints = tuple((m, float(col_sums[m - 1] / n_samples)) for m in marks)
    half = checkpoints[len(checkpoints) // 2 - 1][1]
    final = checkpoints[-1][1]
    kind, value = "plateau", final
    if half > 0 and final / half >= _GROWTH_RATIO:
        xs = np.array([m for m, _ in checkpoints[len(checkpoints) // 2 :]], dtype=float)
        ys = np.array([v for _, v in checkpoints[len(checkpoints) // 2 :]])
        kind, value = "slope", float(np.polyfit(xs, ys, 1)[0])
    return TailGrowthReport(kind, value, final_se, checkpoints, n_coords, n_samples, seed)

