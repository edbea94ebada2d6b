"""Shift densities and equivalence classification for diagonal Gaussians.

Translating a diagonal Gaussian measure by y changes it absolutely
continuously exactly when the weighted series sum_n y_n^2 / rho_n
converges; the density of the shifted measure against the original, in a
truncation of length N, is

    exp( sum_n x_n y_n / rho_n  -  (1/2) sum_n y_n^2 / rho_n ).

Two diagonal Gaussians with variance sequences rho and rho' are either
equivalent or mutually singular.  With a_n = rho'_n / rho_n, equivalence
holds exactly when the ratio stays within positive bounds and
sum (a_n - 1)^2 converges; every failure of those conditions lands in
the singular branch of the dichotomy.  All series questions are decided
symbolically on the decay classes.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Union

from .errors import InputError, NumericError
from .gaussian import CovarianceSeq
from .sequences import (
    DecaySeq,
    FiniteSequence,
    Tabulated,
    leading_difference,
    require_positive,
    summable,
)

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "ShiftSpec",
    "Equivalence",
    "EquivalenceVerdict",
    "EmptyFamily",
    "FinitelySupportedFamily",
    "WeightedL2Family",
    "ShiftFamily",
    "rn_density",
    "shift_admissible",
    "equivalence_classify",
    "ergodicity_flag",
]

# a shift is either an explicit finite vector or a signed decay class
ShiftSpec = Union[FiniteSequence, DecaySeq]


def rn_density(
    x: np.ndarray, y: FiniteSequence, cov: CovarianceSeq
) -> float | np.ndarray:
    """Density at x of the y-shifted measure against the unshifted one.

    ``x`` holds truncated coordinates: shape (N,) for one point or (M, N)
    for a batch.  The shift must live inside the truncation.  The result
    is strictly positive.
    """
    import numpy as np

    require_positive(cov, "covariance")
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2):
        raise InputError(f"x must be a vector or a batch of vectors, got ndim={x.ndim}")
    n_coords = x.shape[-1]
    if y.max_index > n_coords:
        raise InputError(
            f"shift support reaches index {y.max_index}, beyond the truncation {n_coords}"
        )
    if y.is_zero():
        return np.ones(x.shape[0]) if x.ndim == 2 else 1.0
    idx = np.array(y.support) - 1
    y_vals = np.array([v for _, v in y.entries])
    rho = cov.first(y.max_index)[idx]
    weights = y_vals / rho
    quad = float(np.dot(y_vals, weights))
    exponent = x[..., idx] @ weights - 0.5 * quad
    # an overflow is left as inf for the caller to reject (the CLI exits 3)
    with np.errstate(over="ignore"):
        out = np.exp(exponent)
    return out if x.ndim == 2 else float(out)


def shift_admissible(y: ShiftSpec, cov: CovarianceSeq) -> bool:
    """Whether translating by y keeps the measure equivalent to itself.

    True exactly when sum_n y_n^2 / rho_n converges.  Finite shifts are
    always admissible; decay-class shifts are decided symbolically.
    Tabulated shift tails raise ``UndecidableError``.
    """
    require_positive(cov, "covariance")
    if isinstance(y, FiniteSequence):
        return True
    y_atoms, cov_atoms = y.atoms(), cov.atoms()
    return not y_atoms or summable((y_atoms[0], 2), (cov_atoms[0], -1))


class Equivalence(str, enum.Enum):
    EQUIVALENT = "equivalent"
    SINGULAR = "singular"
    UNDECIDED = "undecided"


@dataclass(frozen=True)
class EquivalenceVerdict:
    """Classification plus the evidence it rests on.

    ``ratio_inf``/``ratio_sup`` bound the variance ratio a_n over a scan
    of the first entries together with its tail limit; ``series`` records
    the symbolic decision for sum (a_n - 1)^2.
    """

    verdict: Equivalence
    ratio_inf: float
    ratio_sup: float
    series: str  # "converges" | "diverges" | "unknown"
    reason: str


_RATIO_SCAN = 1000


def _ratio_bounds(cov_a: CovarianceSeq, cov_b: CovarianceSeq) -> tuple[float, float]:
    import numpy as np

    tabulated = [len(cov.values) for cov in (cov_a, cov_b) if isinstance(cov, Tabulated)]
    scan = min([_RATIO_SCAN, *tabulated])
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        ratios = cov_b.first(scan) / cov_a.first(scan)
    # geometric tails under/overflow at deep indices; the scan is evidence,
    # the verdict itself is symbolic
    finite = ratios[np.isfinite(ratios)]
    if finite.size:
        return float(finite.min()), float(finite.max())
    if tabulated:
        raise NumericError("every scanned variance ratio over- or underflows", scan=scan)
    # no finite entry: the tail limit of a_n stands in for the scan
    (q_a, alpha_a, k_a), (q_b, alpha_b, k_b) = cov_a.atoms()[0], cov_b.atoms()[0]
    if (q_a, alpha_a) != (q_b, alpha_b):
        return 0.0, math.inf
    limit = k_b / k_a
    if not 0.0 < limit < math.inf:
        raise NumericError("the tail limit k_b/k_a over- or underflows", k_a=k_a, k_b=k_b)
    return limit, limit


def equivalence_classify(cov_a: CovarianceSeq, cov_b: CovarianceSeq) -> EquivalenceVerdict:
    """Equivalent / Singular / Undecided for two diagonal Gaussians.

    Decided exactly on decay-class quotients; tabulated inputs without a
    closed-form tail are the only Undecided case.  A failed condition
    yields Singular via the ergodic dichotomy for diagonal Gaussians
    (both measures are ergodic under their dense shift families, so
    non-equivalence forces mutual singularity).
    """
    require_positive(cov_a, "covariance")
    require_positive(cov_b, "covariance")
    lo, hi = _ratio_bounds(cov_a, cov_b)
    if isinstance(cov_a, Tabulated) or isinstance(cov_b, Tabulated):
        return EquivalenceVerdict(
            Equivalence.UNDECIDED, lo, hi, "unknown", "tabulated input carries no tail information"
        )
    lead_a = cov_a.atoms()[0]
    if lead_a[:2] != cov_b.atoms()[0][:2]:
        return EquivalenceVerdict(
            Equivalence.SINGULAR, lo, hi, "diverges",
            "variance ratio is unbounded or tends to zero",
        )
    # (a_n - 1)^2 = (rho'_n - rho_n)^2 / rho_n^2
    delta = leading_difference(cov_b, cov_a)
    if delta is None or summable((delta, 2), (lead_a, -2)):
        return EquivalenceVerdict(
            Equivalence.EQUIVALENT, lo, hi, "converges",
            "bounded ratio and square-summable ratio deviation",
        )
    return EquivalenceVerdict(Equivalence.SINGULAR, lo, hi, "diverges", "sum (a_n - 1)^2 diverges")


# ---------------------------------------------------------------------------
# ergodicity of shift families (symbolic classification)


@dataclass(frozen=True)
class EmptyFamily:
    """No shifts at all."""


@dataclass(frozen=True)
class FinitelySupportedFamily:
    """All finitely supported shift vectors."""


@dataclass(frozen=True)
class WeightedL2Family:
    """The admissible-shift space of some covariance: sum y_n^2 / rho_n < inf."""

    cov: CovarianceSeq


ShiftFamily = Union[EmptyFamily, FinitelySupportedFamily, WeightedL2Family]


def ergodicity_flag(family: ShiftFamily, cov: CovarianceSeq) -> bool:
    """Whether the measure is ergodic under the declared shift family.

    Ergodicity holds exactly when the family is dense in the space of
    admissible shifts of ``cov``.  Classified symbolically: finitely
    supported shifts are dense for every covariance; a weighted-l2 family
    is dense exactly when it matches the admissible-shift space of
    ``cov`` itself, i.e. when the two variance ratios stay bounded.  The
    empty family is never ergodic.
    """
    require_positive(cov, "covariance")
    if isinstance(family, EmptyFamily):
        return False
    if isinstance(family, FinitelySupportedFamily):
        return True
    if isinstance(family, WeightedL2Family):
        require_positive(family.cov, "covariance")
        return cov.atoms()[0][:2] == family.cov.atoms()[0][:2]
    raise InputError(f"unknown shift family: {family!r}")
