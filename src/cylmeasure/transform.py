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

Ergodicity under shifts needs no function: a Gaussian measure is ergodic
under the shifts along a subspace of its Cameron-Martin space H exactly
when that subspace is dense in H (Bogachev, Gaussian Measures, 1998), and
every subspace of H that holds the finitely supported shifts is dense.

``EquivalenceVerdict`` is a frozen record (``_record.Record``).
"""

from __future__ import annotations

import enum
import math
import operator
import sys
from typing import TYPE_CHECKING, Union

from . import _np as np
from ._record import Record
from .errors import InputError, NumericError, require_real
from .sequences import (
    DecaySeq,
    FiniteSequence,
    leading_difference,
    require_positive,
    summable,
)

if TYPE_CHECKING:
    from collections.abc import Sequence

    from .gaussian import CovarianceSeq

__all__ = [
    "ShiftSpec",
    "Equivalence",
    "EquivalenceVerdict",
    "rn_density",
    "shift_admissible",
    "equivalence_classify",
]

# a shift is either an explicit finite vector or a signed decay class
ShiftSpec = Union[FiniteSequence, DecaySeq]


def rn_density(
    x: Sequence[float] | np.ndarray, y: FiniteSequence, cov: CovarianceSeq
) -> float | np.ndarray:
    """Density at x of the y-shifted measure against the unshifted one.

    ``x`` holds truncated coordinates: one point of N coordinates (a
    sequence or a vector, read as a plain sum) or an (M, N) batch (read
    with numpy).  The shift must live inside the truncation.  The result
    is strictly positive.
    """
    require_positive(cov, "covariance")
    try:  # a batch holds rows; a point holds numbers
        point = not len(x) or not hasattr(x[0], "__len__")
    except TypeError:  # a scalar
        point = False
    if point:
        if hasattr(x, "tolist"):  # a vector's numpy scalars as ints and floats
            x = x.tolist()
        for n, value in enumerate(x, 1):
            require_real(value, f"x coordinate {n}")
    else:
        x = np.asarray(x, dtype=float)
        if x.ndim != 2:
            raise InputError(f"x must be a vector or a batch of vectors, got ndim={x.ndim}")
    n_coords = len(x) if point else x.shape[1]
    if y.max_index > n_coords:
        raise InputError(
            f"shift support reaches index {y.max_index}, beyond the truncation {n_coords}"
        )
    # y_n / rho_n on the support; a variance that underflows to 0 weighs inf
    weights = [
        v / rho if rho else math.copysign(math.inf, v)
        for (_, v), rho in zip(y.entries, map(cov.at, y.support))
    ]
    quad = sum(v * w for (_, v), w in zip(y.entries, weights))
    if point:
        exponent = sum(x[n - 1] * w for n, w in zip(y.support, weights)) - 0.5 * quad
        try:
            return math.exp(exponent)
        except OverflowError:  # left as inf for the caller to reject (the CLI exits 3)
            return math.inf
    if not weights:
        return np.ones(x.shape[0])
    exponent = x[:, [n - 1 for n in y.support]] @ np.array(weights) - 0.5 * quad
    with np.errstate(over="ignore"):
        return np.exp(exponent)


def shift_admissible(y: ShiftSpec, cov: CovarianceSeq) -> bool:
    """Whether translating by y keeps the measure equivalent to itself.

    True exactly when sum_n y_n^2 / rho_n converges.  Finite shifts are
    always admissible, whatever the covariance; decay-class shifts are
    decided symbolically, and a tabulated shift or covariance then raises
    ``UndecidableError`` before any other check, as in the other verdicts.
    """
    if isinstance(y, FiniteSequence):
        require_positive(cov, "covariance")
        return True
    y_atoms, cov_atoms = y.atoms(), cov.atoms()
    require_positive(cov, "covariance")
    return not y_atoms or summable((y_atoms[0], 2), (cov_atoms[0], -1))


class Equivalence(str, enum.Enum):
    EQUIVALENT = "equivalent"
    SINGULAR = "singular"


class EquivalenceVerdict(Record):
    """Classification plus the evidence it rests on.

    ``ratio_inf``/``ratio_sup`` are the least and largest variance ratio
    a_n = rho'_n / rho_n over n <= 1000, read at a few candidate indices:
    every prefix index, both ends of the shared closed-form range and the
    integers next to each critical point of a_n there.  Inputs with a
    zero, subnormal or non-finite entry or ratio at a candidate take every
    index and keep the finite ratios; only where none is finite do the
    bounds report the tail limit of a_n instead.  ``series`` records the
    symbolic decision for sum (a_n - 1)^2.
    """

    verdict: Equivalence
    ratio_inf: float
    ratio_sup: float
    series: str  # "converges" | "diverges"
    reason: str


_RATIO_SCAN = 1000
_NORMAL = sys.float_info.min


# (B, K, alpha, lam): a closed-form tail s(t) = B + K t^alpha e^(lam t)
_Shape = tuple[float, float, float, float]


def _tail_shape(seq: CovarianceSeq) -> _Shape:
    """The shape of the tail of ``seq``.

    Only ``ConstantPlusPower`` has two atoms, a constant and then a power,
    so B != 0 comes with lam = 0.
    """
    atoms = seq.atoms()
    q, alpha, k = atoms[-1]
    return atoms[0][2] if len(atoms) == 2 else 0.0, k, alpha, math.log(q)


def _coef(*factors: float) -> float:
    """The product of ``factors``; OverflowError where it leaves the normal range."""
    value = math.prod(factors)
    if _NORMAL <= abs(value) < math.inf or value == 0.0 and 0.0 in factors:
        return value
    raise OverflowError("critical-point equation leaves the float range")


def _critical_equation(a: _Shape, b: _Shape) -> tuple[float, float, float, float, float]:
    """(c1, e1, c2, e2, c3): r = b/a has r'(t) = 0 iff c1 t^e1 + c2 t^e2 + c3 = 0.

    ``a`` and ``b`` are tail shapes; a constant-plus-power has
    alpha = -p.  The equation is d log r / dt times a positive power of
    t.  r and 1/r share their critical points, so a constant-plus-power
    goes first.
    """
    if b[0] and not a[0]:
        a, b = b, a
    (b_a, k_a, alpha_a, lam_a), (b_b, k_b, alpha_b, lam_b) = a, b
    if not b_a:  # (alpha_b - alpha_a)/t + (lam_b - lam_a)
        return _coef(lam_b - lam_a), 1.0, 0.0, 0.0, _coef(alpha_b - alpha_a)
    p_a = -alpha_a
    if b_b:  # both constant-plus-power
        p_b = -alpha_b
        return (_coef(-p_b, k_b, b_a), p_a, _coef(p_a, k_a, b_b), p_b,
                _coef(k_a, k_b, p_a - p_b))
    if lam_b:  # against a geometric tail (alpha_b = 0)
        return _coef(lam_b, b_a), 1.0 + p_a, _coef(lam_b, k_a), 1.0, _coef(p_a, k_a)
    return _coef(alpha_b, b_a), p_a, 0.0, 0.0, _coef(alpha_b + p_a, k_a)


def _integers_near(c: float, d: float, e: float, lo: int, hi: int) -> tuple[int, ...]:
    """The integers in [lo, hi] either side of the root t > 0 of c t^e + d = 0."""
    if not d or (c < 0.0) == (d < 0.0):
        return ()
    log_t = (math.log(abs(d)) - math.log(abs(c))) / e  # no quotient to over- or underflow
    if not math.log(lo) - 1.0 < log_t < math.log(hi) + 1.0:
        return ()
    m = math.floor(math.exp(log_t))
    return tuple(n for n in (m, m + 1) if lo <= n <= hi)


def _sign_change(g, m0: int, m1: int) -> tuple[int, ...]:
    """The integers on either side of the sign change of a monotone g on [m0, m1].

    Illinois false position on the integers: the next point is the
    secant root rounded into the bracket, and an end kept twice running
    has its value halved.  A step that leaves more than half the bracket
    is followed by a bisection step, so the evaluations stay within
    2 ceil(log2(m1 - m0)) + 2.
    """
    g0, g1 = g(m0), g(m1)
    below = g0 < 0.0
    if below == (g1 < 0.0):
        return ()
    kept, bisect = None, False  # kept: the end (0 or 1) the last step kept
    while m1 - m0 > 1:
        width = m1 - m0
        if bisect or g0 == g1:  # equal only where halving underflowed to zero
            mid = (m0 + m1) // 2
        else:
            mid = min(max(m0 + round(width * (g0 / (g0 - g1))), m0 + 1), m1 - 1)
        value = g(mid)
        if (value < 0.0) == below:
            m0, g0 = mid, value
            if kept == 1:
                g1 /= 2.0
            kept = 1
        else:
            m1, g1 = mid, value
            if kept == 0:
                g0 /= 2.0
            kept = 0
        bisect = not bisect and 2 * (m1 - m0) > width
    return m0, m1


def _critical_indices(a: _Shape, b: _Shape, lo: int, hi: int) -> tuple[int, ...]:
    """The integers in [lo, hi] next to each critical point of r = b/a.

    A two-term equation has its root in closed form.  A three-term one
    has a derivative with one closed-form root; g is monotone on either
    side of it, so each side holds at most one root, found by false
    position on the integers.
    """
    c1, e1, c2, e2, c3 = _critical_equation(a, b)
    if e1 == e2:
        c1, c2 = c1 + c2, 0.0
    if not c1:  # g is constant: r is monotone or constant
        return ()
    if not c2:
        return _integers_near(c1, c3, e1, lo, hi)
    # g'(t) = 0 where c1 e1 t^(e1 - e2) + c2 e2 = 0
    split = _integers_near(_coef(c1, e1), _coef(c2, e2), e1 - e2, lo, hi)

    def g(t: int) -> float:
        value = c1 * t**e1 + c2 * t**e2 + c3
        if not math.isfinite(value):
            raise OverflowError("critical-point equation leaves the float range")
        return value

    ends = (lo, *split, hi)
    found = list(split)
    for m0, m1 in zip(ends, ends[1:]):
        found += _sign_change(g, m0, m1)
    return tuple(found)


def _candidate_bounds(cov_a: CovarianceSeq, cov_b: CovarianceSeq) -> tuple[float, float] | None:
    """min and max of r_n = b_n/a_n over n <= _RATIO_SCAN from a few indices.

    The candidates are every prefix index, both ends of the shared
    closed-form range [L, N] and the integers next to each critical point
    of r(t) there; between them r is monotone, and so is every entry.
    None when the prefixes cover the whole range, when a candidate entry
    or ratio is zero, subnormal or not finite, or when the critical
    points leave the float range: the values there need not follow the
    closed form.
    """
    head = max(len(getattr(cov_a, "prefix", ())), len(getattr(cov_b, "prefix", ())))
    lo, hi = head + 1, _RATIO_SCAN
    if lo > hi:  # the prefixes cover the whole range: the scan reads it
        return None
    try:
        critical = _critical_indices(_tail_shape(cov_a), _tail_shape(cov_b), lo, hi)
    except ArithmeticError:
        return None
    candidates = {*range(1, lo), lo, hi, *critical}
    a, b = list(map(cov_a.at, candidates)), list(map(cov_b.at, candidates))
    if not (_NORMAL <= min(min(a), min(b)) and max(max(a), max(b)) < math.inf):
        return None
    ratios = list(map(operator.truediv, b, a))
    least, largest = min(ratios), max(ratios)
    return (least, largest) if _NORMAL <= least and largest < math.inf else None


def _scanned_bounds(cov_a: CovarianceSeq, cov_b: CovarianceSeq) -> tuple[float, float] | None:
    """min and max of the finite ratios b_n/a_n over n <= _RATIO_SCAN, or None.

    Entries are positive, so a 0 is a decreasing closed-form tail that has
    underflowed, and every later entry of that tail is 0 too: the scan
    stops there, since each later ratio is 0 (already counted) or not finite.
    """
    ratios = []
    for n in range(1, _RATIO_SCAN + 1):
        a, b = cov_a.at(n), cov_b.at(n)
        if a:
            ratio = b / a
            if ratio < math.inf:  # inf/inf is NaN and fails too
                ratios.append(ratio)
        if not (a and b):
            break
    return (min(ratios), max(ratios)) if ratios else None


def _ratio_bounds(cov_a: CovarianceSeq, cov_b: CovarianceSeq) -> tuple[float, float]:
    # a tail whose entries under/overflow before index 1000 is scanned index
    # by index; the bounds are evidence, the verdict is symbolic
    bounds = _candidate_bounds(cov_a, cov_b) or _scanned_bounds(cov_a, cov_b)
    if bounds:
        return bounds
    # no finite entry: the tail limit of a_n stands in for the scan
    (q_a, alpha_a, k_a), (q_b, alpha_b, k_b) = cov_a.atoms()[0], cov_b.atoms()[0]
    if (q_a, alpha_a) != (q_b, alpha_b):
        return 0.0, math.inf
    limit = k_b / k_a
    if not 0.0 < limit < math.inf:
        raise NumericError("the tail limit k_b/k_a over- or underflows", k_a=k_a, k_b=k_b)
    return limit, limit


def equivalence_classify(cov_a: CovarianceSeq, cov_b: CovarianceSeq) -> EquivalenceVerdict:
    """Equivalent / Singular for two diagonal Gaussians.

    Decided exactly on decay-class quotients.  A tabulated input raises
    ``UndecidableError``: a finite table cannot settle a tail sum.  A
    failed condition yields Singular via the ergodic dichotomy for
    diagonal Gaussians (both measures are ergodic under their dense shift
    families, so non-equivalence forces mutual singularity).
    """
    atoms_a, atoms_b = cov_a.atoms(), cov_b.atoms()
    require_positive(cov_a, "covariance")
    require_positive(cov_b, "covariance")
    lo, hi = _ratio_bounds(cov_a, cov_b)
    lead_a = atoms_a[0]
    if lead_a[:2] != atoms_b[0][:2]:
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
