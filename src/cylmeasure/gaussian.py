"""Gaussian measures on sequence space with diagonal covariance.

A positive variance sequence rho defines the centered Gaussian product
measure whose coordinates are independent with variance rho_n.  Its
characteristic function on finitely supported test vectors is
exp(-<xi, xi>_rho / 2) with the covariance form

    <xi, eta>_rho = sum_n rho_n xi_n eta_n,

and its polynomial moments close under the pairing rule: odd moments
vanish, even moments are sums over perfect matchings of two-point
covariances.  Every operation here is exact given the covariance class;
Monte Carlo enters only through seeded draws (``sample``, ``mc_moment``) and
``mc_mean``, the one estimator of every real Monte Carlo oracle and the gate.
``GaussianSample`` and ``GramReport`` are frozen records
(``_record.Record``); a sample holds an array and compares by identity.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

from . import _np as np
from ._record import Record
from .errors import (
    InputError, NumericError, require_budget, require_count, require_real, require_seed,
)
from .sequences import DecaySeq, FiniteSequence, require_positive

__all__ = [
    "CovarianceSeq",
    "GaussianSample",
    "Pairing",
    "GramReport",
    "inner",
    "chi",
    "sample",
    "draw_coordinates",
    "pairings",
    "wick_moment",
    "mc_mean",
    "mc_moment",
    "positive_type_gram",
    "PAIRING_CAP",
    "MAX_SAMPLE_COORDS",
    "MAX_MC_VALUES",
    "MAX_GRAM_POINTS",
]

# A covariance is any positive decay class; the alias names the role.
CovarianceSeq = DecaySeq

# (2n-1)!! grows too fast beyond this to enumerate or sum pairings
PAIRING_CAP = 20

# one sample of this many coordinates is already about 22 MB of JSON
MAX_SAMPLE_COORDS = 10**6

# the CLI's cap on a ``moment --mc-samples`` call, samples x (coordinates
# drawn + factors), 80 MB of float64; ``mc_moment`` itself has no budget
MAX_MC_VALUES = 10**7

# points of one positive_type_gram matrix, a diagnostic at desk scale
MAX_GRAM_POINTS = 64

Pairing = tuple[tuple[int, int], ...]


def inner(xi: FiniteSequence, eta: FiniteSequence, cov: CovarianceSeq) -> float:
    """Covariance form sum_n rho_n xi_n eta_n (finite: both supports are)."""
    require_positive(cov, "covariance")
    eta_map = dict(eta.entries)
    total = 0.0
    for idx, val in xi.entries:
        other = eta_map.get(idx)
        if other is not None:
            total += cov.at(idx) * val * other
    return total


def chi(xi: FiniteSequence, cov: CovarianceSeq) -> float:
    """Characteristic function exp(-<xi,xi>/2); equals 1 at xi = 0."""
    return math.exp(-0.5 * inner(xi, xi, cov))


class GaussianSample(Record, eq=False):
    """A truncated draw: independent N(0, rho_n) for n = 1..truncation."""

    truncation: int
    values: np.ndarray
    seed: int
    cov: CovarianceSeq


def draw_coordinates(
    cov: CovarianceSeq, n_coords: int, n_samples: int, rng: np.random.Generator
) -> np.ndarray:
    """(n_samples, n_coords) matrix of independent centered Gaussians."""
    require_count(n_coords, "n_coords", 1)
    require_count(n_samples, "n_samples")
    sd = np.sqrt(require_positive(cov, "covariance").first(n_coords))
    draw = rng.standard_normal((n_samples, n_coords))
    return np.multiply(draw, sd, out=draw)  # in place: no scaled copy beside the draw


def sample(cov: CovarianceSeq, n_coords: int, seed: int) -> GaussianSample:
    """One truncated sample, reproducible from (seed, n_coords, cov)."""
    require_count(n_coords, "truncation", 1)
    require_budget(n_coords, MAX_SAMPLE_COORDS, "truncation")
    require_seed(seed)
    rng = np.random.default_rng(seed)
    values = draw_coordinates(cov, n_coords, 1, rng)[0]
    return GaussianSample(truncation=n_coords, values=values, seed=seed, cov=cov)


def pairings(two_n: int) -> list[Pairing]:
    """All perfect matchings of the labels 1..two_n, in canonical order.

    Each pairing stores pairs (i, j) with i < j, sorted by first element;
    the list enumerates the smallest free label against each partner in
    increasing order, recursively.  There are (two_n - 1)!! of them.
    """
    require_count(two_n, "label count")
    if two_n % 2 != 0:
        raise InputError(f"pairings are defined for even nonnegative counts, got {two_n}")
    require_budget(two_n, PAIRING_CAP, "label count")

    def rec(labels: tuple[int, ...]) -> list[Pairing]:
        if not labels:
            return [()]
        first, rest = labels[0], labels[1:]
        out = []
        for k, partner in enumerate(rest):
            remaining = rest[:k] + rest[k + 1 :]
            for sub in rec(remaining):
                out.append(((first, partner),) + sub)
        return out

    return rec(tuple(range(1, two_n + 1)))


def wick_moment(cov: CovarianceSeq, xs: Sequence[FiniteSequence]) -> float:
    """Gaussian moment E[phi(x_1) ... phi(x_k)] by the pairing rule.

    Zero for odd k.  For even k the sum over all perfect matchings of
    products of pairwise covariances is evaluated by contracting one
    remaining factor against every partner, without materializing the
    (k-1)!! list.  Equal factors are grouped and the contraction is
    memoized on the multiset of remaining factors (a count per group):
    one factor of the first nonempty group i pairs with group j >= i,
    weighted by the remaining count of j.  With distinct factors this
    is the recursion over sets of remaining labels.
    """
    k = len(xs)
    require_budget(k, PAIRING_CAP, "factor count")
    if k % 2 != 0:
        return 0.0
    if k == 0:
        return 1.0
    multiplicity: dict[FiniteSequence, int] = {}
    for x in xs:
        multiplicity[x] = multiplicity.get(x, 0) + 1
    groups = list(multiplicity)
    gram = [[inner(a, b, cov) for b in groups] for a in groups]

    memo: dict[tuple[int, ...], float] = {}

    def contract(counts: tuple[int, ...]) -> float:
        cached = memo.get(counts)
        if cached is not None:
            return cached
        i = next((g for g, c in enumerate(counts) if c), None)
        if i is None:
            return 1.0
        rest = list(counts)
        rest[i] -= 1
        total = 0.0
        for j in range(i, len(rest)):
            if rest[j]:
                rest[j] -= 1
                total += (rest[j] + 1) * gram[i][j] * contract(tuple(rest))
                rest[j] += 1
        memo[counts] = total
        return total

    return contract(tuple(multiplicity.values()))


def mc_mean(values: np.ndarray) -> tuple[float, float]:
    """Sample mean and standard error std(ddof=1)/sqrt(n); refuses n < 2 and non-finite.

    Where the sum or the squared deviations of finite values overflow, what
    overflowed is taken of the values divided by a power of two near their
    largest magnitude and multiplied back, which is exact in binary.
    """
    n = len(values)
    if n < 2:
        raise InputError(f"a standard error needs at least 2 samples, got {n}")
    with np.errstate(over="ignore", invalid="ignore"):
        est, se = float(values.mean()), float(values.std(ddof=1) / math.sqrt(n))
        if not math.isfinite(se) and np.isfinite(values).all():
            exp = math.frexp(float(np.abs(values).max()))[1]
            scaled = np.ldexp(values, -exp)
            if not math.isfinite(est):
                est = float(np.ldexp(scaled.mean(), exp))
            se = float(np.ldexp(scaled.std(ddof=1) / math.sqrt(n), exp))
    if not (math.isfinite(est) and math.isfinite(se)):
        raise NumericError("non-finite Monte Carlo estimate", estimate=est, standard_error=se)
    return est, se


def mc_moment(
    cov: CovarianceSeq, xs: Sequence[FiniteSequence], n_samples: int, seed: int
) -> tuple[float, float]:
    """Monte Carlo E[phi(x_1) ... phi(x_k)] as (sample mean, standard error).

    One seeded draw of coordinates 1..max index; the product starts from
    ones, so no factors give the empty product 1, as in ``wick_moment``.
    """
    require_count(n_samples, "n_samples", 2)
    require_seed(seed)
    dim = max((x.max_index for x in xs), default=1)
    coords = draw_coordinates(cov, dim, n_samples, np.random.default_rng(seed))
    prods = np.ones(n_samples)
    with np.errstate(over="ignore", invalid="ignore"):  # mc_mean refuses what overflows
        for x in xs:
            prods *= coords @ x.as_vector(dim)
    return mc_mean(prods)


class GramReport(Record):
    min_eigenvalue: float
    psd: bool
    size: int


def positive_type_gram(
    chi_fn: Callable[[FiniteSequence], complex],
    points: Sequence[FiniteSequence],
    tol: float = 1e-10,
) -> GramReport:
    """Positive-type diagnostic: spectrum of the matrix chi(xi_k - xi_l).

    For the Fourier transform of a probability measure this matrix is
    positive semi-definite at any point set.  The verdict is PSD when the
    minimum eigenvalue is >= -tol, which separates round-off from genuine
    indefiniteness at this size.  ``chi_fn`` may return complex values
    (Hermitian case); the centered Gaussian chi is real and symmetric.
    """
    require_real(tol, "tolerance", ">= 0")
    m = len(points)
    if m == 0:
        raise InputError("positive_type_gram needs at least one point")
    require_budget(m, MAX_GRAM_POINTS, "point count")
    if len(set(points)) != m:
        raise InputError("points must be distinct")
    gram = np.empty((m, m), dtype=complex)
    for a in range(m):
        for b in range(m):
            gram[a, b] = chi_fn(points[a] - points[b])
    if np.allclose(gram.imag, 0.0, atol=0.0):
        gram = gram.real
        gram = 0.5 * (gram + gram.T)
    else:
        gram = 0.5 * (gram + gram.conj().T)
    min_eig = float(np.linalg.eigvalsh(gram)[0])
    return GramReport(min_eigenvalue=min_eig, psd=min_eig >= -tol, size=m)
