"""Support diagnostics for diagonal Gaussian measures.

A diagonal operator with entries h_n is Hilbert-Schmidt exactly when
sum h_n^2 converges.  For a Gaussian with variance sequence rho, the
weighted subspace { x : sum a_n^2 x_n^2 < infinity } carries full measure
exactly when sum a_n^2 rho_n converges — the coordinates contribute
independent a_n^2 x_n^2 with mean a_n^2 rho_n, so the weighted tail sum
is almost surely finite or almost surely infinite with it.  Both checks
are symbolic on decay classes; ``mc_tail_growth`` is the empirical
cross-check that watches the partial sums themselves.

The nuclear-embedding identity ties the weighted inner products
<y,z>_k = sum n^{2k} y_n z_n together through the Hilbert-Schmidt map
(Hy)_n = y_n / n: lowering the weight by one power pair is the same as
applying H on both slots one level up.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InputError
from .gaussian import CovarianceSeq
from .sequences import (
    DecaySeq,
    FiniteSequence,
    Tabulated,
    atoms_mul,
    require_positive,
    seq_values,
    series_converges,
    tail_atoms,
)

__all__ = [
    "DiagonalOperator",
    "Support",
    "SupportReport",
    "TailGrowthReport",
    "hilbert_schmidt_check",
    "weighted_support_check",
    "mc_tail_growth",
    "MAX_MC_DRAWS",
    "nuclear_embedding_check",
]

# a diagonal operator is a positive decay class; the alias names the role
DiagonalOperator = DecaySeq


def hilbert_schmidt_check(h: DiagonalOperator) -> bool:
    """Whether the diagonal operator with entries h_n is Hilbert-Schmidt.

    Decided symbolically as convergence of sum h_n^2.  Tabulated entries
    raise ``UndecidableError``: a finite table cannot settle a tail sum.
    """
    require_positive(h, "diagonal operator")
    atoms = tail_atoms(h)
    return series_converges(atoms_mul(atoms, atoms))


class Support(str, enum.Enum):
    SUPPORTED = "supported"
    NOT_SUPPORTED = "not-supported"
    HEURISTIC = "heuristic"


@dataclass(frozen=True)
class SupportReport:
    """Verdict for the weighted subspace sum a_n^2 x_n^2 < infinity.

    ``series`` records the decision for sum a_n^2 rho_n.  Hard verdicts
    come only from closed-form classes; tabulated tails yield HEURISTIC
    with the partial sums observed over the available range.
    """

    verdict: Support
    series: str  # "converges" | "diverges" | "unknown"
    partial_sums: tuple[float, ...] | None = None


_HEURISTIC_CHECKPOINTS = 8


def weighted_support_check(cov: CovarianceSeq, a: DiagonalOperator) -> SupportReport:
    """Does the weighted-l2 subspace defined by ``a`` carry full measure?

    Supported iff sum a_n^2 rho_n converges.  With any tabulated input
    the verdict is HEURISTIC and carries the partial-sum trace instead of
    a hard answer.
    """
    require_positive(cov, "covariance")
    require_positive(a, "weight sequence")
    if isinstance(cov, Tabulated) or isinstance(a, Tabulated):
        length = min(
            len(cov.values) if isinstance(cov, Tabulated) else np.inf,
            len(a.values) if isinstance(a, Tabulated) else np.inf,
        )
        length = int(length)
        terms = seq_values(a, length) ** 2 * seq_values(cov, length)
        csum = np.cumsum(terms)
        marks = np.unique(
            np.linspace(1, length, min(_HEURISTIC_CHECKPOINTS, length)).astype(int)
        )
        return SupportReport(
            Support.HEURISTIC, "unknown", tuple(float(csum[m - 1]) for m in marks)
        )
    a_atoms = tail_atoms(a)
    terms = atoms_mul(atoms_mul(a_atoms, a_atoms), tail_atoms(cov))
    if series_converges(terms):
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
# memory, not its time (the full budget runs about 15 s on two vCPUs)
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
    rng = np.random.default_rng(seed)
    marks = np.unique((np.arange(1, _N_CHECKPOINTS + 1) * n_coords) // _N_CHECKPOINTS)
    weights = seq_values(a, n_coords) ** 2 * seq_values(cov, n_coords)

    # accumulate sums chunk-by-chunk over coordinates to bound memory
    chunk = max(1, min(n_coords, 10_000_000 // n_samples))
    running = np.zeros(n_samples)
    mean_at_mark: dict[int, float] = {}
    next_mark = 0
    for start in range(0, n_coords, chunk):
        stop = min(start + chunk, n_coords)
        block_sq = rng.standard_normal((n_samples, stop - start))
        np.square(block_sq, out=block_sq)
        while next_mark < len(marks) and marks[next_mark] <= stop:
            m = int(marks[next_mark])
            partial = running + block_sq[:, : m - start] @ weights[start:m]
            mean_at_mark[m] = float(partial.mean())
            next_mark += 1
        running += block_sq @ weights[start:stop]

    checkpoints = tuple((int(m), mean_at_mark[int(m)]) for m in marks)
    final_se = float(running.std(ddof=1) / math.sqrt(n_samples))
    half = checkpoints[len(checkpoints) // 2 - 1][1]
    final = checkpoints[-1][1]
    if half > 0 and final / half >= _GROWTH_RATIO:
        xs = np.array([m for m, _ in checkpoints[len(checkpoints) // 2 :]], dtype=float)
        ys = np.array([v for _, v in checkpoints[len(checkpoints) // 2 :]])
        slope = float(np.polyfit(xs, ys, 1)[0])
        return TailGrowthReport(
            "slope", slope, final_se, checkpoints, n_coords, n_samples, seed
        )
    return TailGrowthReport(
        "plateau", final, final_se, checkpoints, n_coords, n_samples, seed
    )


def nuclear_embedding_check(
    k: int, vectors: Sequence[FiniteSequence], rel_tol: float = 1e-12
) -> bool:
    """Verify <xi,eta>_k = <H xi, H eta>_{k+1} with (Hy)_n = y_n / n.

    The weighted inner products are <y,z>_k = sum n^{2k} y_n z_n.  The
    identity is algebraic (n^{2k} = n^{2k+2} / n^2), so it must hold for
    every pair of finitely supported vectors up to floating round-off;
    checked to ``rel_tol`` relative accuracy over all pairs.
    """
    if k < 0:
        raise InputError(f"weight level k must be >= 0, got {k}")
    if not vectors:
        raise InputError("nuclear_embedding_check needs at least one vector")

    def weighted(y: FiniteSequence, z: FiniteSequence, level: int) -> float:
        z_map = dict(z.entries)
        total = 0.0
        for idx, val in y.entries:
            other = z_map.get(idx)
            if other is not None:
                total += float(idx) ** (2 * level) * val * other
        return total

    def lowered(y: FiniteSequence) -> FiniteSequence:
        return FiniteSequence(tuple((i, v / i) for i, v in y.entries))

    for i in range(len(vectors)):
        for j in range(i, len(vectors)):
            lhs = weighted(vectors[i], vectors[j], k)
            rhs = weighted(lowered(vectors[i]), lowered(vectors[j]), k + 1)
            scale = max(1.0, abs(lhs), abs(rhs))
            if abs(lhs - rhs) > rel_tol * scale:
                return False
    return True
