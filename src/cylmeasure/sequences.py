"""Finitely supported sequences and closed-form decay classes.

Two kinds of data live here.

``FiniteSequence`` models real sequences indexed by the naturals
(1-based) that vanish after finitely many entries.  These are the test
vectors fed to covariance forms, the shifts applied to measures, and the
coefficient vectors of cylindrical functions.

The decay classes (``Constant``, ``PowerDecay``, ``Geometric``,
``ConstantPlusPower``, ``Prefixed``, ``Tabulated``) describe infinite
positive-or-signed sequences in closed form.  Their point is exactness:
questions like "does sum a_n^2 rho_n converge?" are decided symbolically,
never guessed from floating partial sums.  Each closed-form class lists
its tail as *atoms* ``k * n^alpha * q^n`` with ``atoms()``, as
(q, alpha, k) triples, largest (q, alpha) first.  The first is the
*leading atom*: the tail is eventually a constant multiple of it.

The lexicographic order on (q, alpha) is a group order (q multiplies,
alpha adds), so the leading atom of a product or quotient of sequences
is the product or quotient of their leading atoms.  A verdict therefore
needs only leading atoms, the leading atom of one difference
(``leading_difference``), and one test on the convergence boundary
(``summable``):

    sum n^alpha q^n  converges  iff  q < 1, or q = 1 and alpha < -1.

The boundary test is exact on the decimal each float prints as (its
``repr``, which is what a JSON document spells): q is compared with 1 by
cross-multiplying, alpha with -1 by adding, in decimal arithmetic that
raises rather than rounds.  A float filter answers first, within a
rigorous error bound, and leaves every result it cannot separate from
the boundary to that test.  Coefficients enter only by their sign and by
float equality, so no product of them can underflow to 0.

``Tabulated`` carries a finite table and no tail information; its
``atoms()`` raises ``UndecidableError``, so every series verdict refuses
it (the CLI exits 2).
"""

from __future__ import annotations

import decimal
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Union

from .errors import InputError, UndecidableError

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "FiniteSequence",
    "Constant",
    "PowerDecay",
    "Geometric",
    "ConstantPlusPower",
    "Prefixed",
    "Tabulated",
    "DecaySeq",
    "Atom",
    "require_positive",
    "leading_difference",
    "summable",
]


# ---------------------------------------------------------------------------
# finitely supported sequences


@dataclass(frozen=True)
class FiniteSequence:
    """A real sequence over indices 1, 2, ... with finite support.

    Stored canonically: strictly increasing indices, no explicit zeros.
    An absent index means the value 0.
    """

    entries: tuple[tuple[int, float], ...] = ()

    def __post_init__(self):
        seen = set()
        for idx, val in self.entries:
            if not isinstance(idx, int) or idx < 1:
                raise InputError(f"sequence index must be a natural >= 1, got {idx!r}")
            if idx in seen:
                raise InputError(f"duplicate sequence index {idx}")
            seen.add(idx)
            if not math.isfinite(val):
                raise InputError(f"sequence value at index {idx} is not finite")
        canonical = tuple(sorted((i, float(v)) for i, v in self.entries if v != 0.0))
        object.__setattr__(self, "entries", canonical)

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[int, float]]) -> "FiniteSequence":
        acc: dict[int, float] = {}
        for idx, val in pairs:
            acc[idx] = acc.get(idx, 0.0) + float(val)
        return cls(tuple(acc.items()))

    @classmethod
    def basis(cls, index: int, value: float = 1.0) -> "FiniteSequence":
        return cls(((index, value),))

    def value(self, index: int) -> float:
        for idx, val in self.entries:
            if idx == index:
                return val
        return 0.0

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(idx for idx, _ in self.entries)

    @property
    def max_index(self) -> int:
        return self.entries[-1][0] if self.entries else 0

    def is_zero(self) -> bool:
        return not self.entries

    def scale(self, factor: float) -> "FiniteSequence":
        return FiniteSequence(tuple((i, factor * v) for i, v in self.entries))

    def __add__(self, other: "FiniteSequence") -> "FiniteSequence":
        return FiniteSequence.from_pairs(self.entries + other.entries)

    def __sub__(self, other: "FiniteSequence") -> "FiniteSequence":
        return self + other.scale(-1.0)

    def __neg__(self) -> "FiniteSequence":
        return self.scale(-1.0)

    def as_vector(self, length: int) -> np.ndarray:
        """Dense coordinates 1..length; support must fit."""
        if self.max_index > length:
            raise InputError(
                f"sequence support reaches index {self.max_index}, beyond length {length}"
            )
        import numpy as np

        out = np.zeros(length)
        for idx, val in self.entries:
            out[idx - 1] = val
        return out


# ---------------------------------------------------------------------------
# decay classes

# (q, alpha, k): the tail term k * n**alpha * q**n
Atom = tuple[float, float, float]


def _atom(q: float, alpha: float, k: float) -> tuple[Atom, ...]:
    return ((q, alpha, k),) if k != 0.0 else ()


class _Decay:
    """Index checks and ``first`` from the atoms, shared by the decay classes; n starts at 1."""

    def at(self, n: int) -> float:
        """Entry s_n."""
        if n < 1:
            raise InputError(f"sequence entries are indexed from 1, got n={n}")
        try:
            return self._at(n)
        except OverflowError:  # n itself is past the float range
            raise InputError(f"sequence index {n} is beyond the float range") from None

    def first(self, n_max: int) -> np.ndarray:
        """Entries s_1..s_{n_max} as a dense vector."""
        if n_max < 1:
            raise InputError(f"need n_max >= 1, got {n_max}")
        return self._first(n_max)

    def _first(self, n_max: int) -> np.ndarray:
        """The sum of the atoms k * n**alpha * q**n, each factor of 1 left out."""
        import numpy as np

        n = np.arange(1, n_max + 1, dtype=float)
        total = None
        for q, alpha, k in self.atoms():
            term = k if alpha == 0.0 else k * n**alpha
            if q != 1.0:
                term = term * q**n
            total = term if total is None else total + term
        return np.full(n_max, 0.0 if total is None else total)


@dataclass(frozen=True)
class Constant(_Decay):
    """s_n = value for every n."""

    value: float

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise InputError("constant class needs a finite value")

    def _at(self, n: int) -> float:
        return self.value

    def is_positive(self) -> bool:
        return self.value > 0

    def atoms(self) -> tuple[Atom, ...]:
        return _atom(1.0, 0.0, self.value)


@dataclass(frozen=True)
class PowerDecay(_Decay):
    """s_n = c * n**(-p) with p > 0."""

    c: float
    p: float

    def __post_init__(self):
        if not (math.isfinite(self.c) and math.isfinite(self.p)):
            raise InputError("power class needs finite parameters")
        if self.p <= 0:
            raise InputError(f"power class needs p > 0, got p={self.p}")

    def _at(self, n: int) -> float:
        return self.c * float(n) ** (-self.p)

    def is_positive(self) -> bool:
        return self.c > 0

    def atoms(self) -> tuple[Atom, ...]:
        return _atom(1.0, -self.p, self.c)


@dataclass(frozen=True)
class Geometric(_Decay):
    """s_n = c * q**n with 0 < q < 1."""

    c: float
    q: float

    def __post_init__(self):
        if not (math.isfinite(self.c) and math.isfinite(self.q)):
            raise InputError("geometric class needs finite parameters")
        if not (0.0 < self.q < 1.0):
            raise InputError(f"geometric class needs 0 < q < 1, got q={self.q}")

    def _at(self, n: int) -> float:
        return self.c * self.q**n

    def is_positive(self) -> bool:
        return self.c > 0

    def atoms(self) -> tuple[Atom, ...]:
        return _atom(self.q, 0.0, self.c)


@dataclass(frozen=True)
class ConstantPlusPower(_Decay):
    """s_n = base + c * n**(-p) with base != 0, p > 0.

    Extends the multiplicative classes with a constant-plus-correction
    shape (e.g. 1 + 1/n), which is where equivalence-vs-singularity
    questions become non-trivial.
    """

    base: float
    c: float
    p: float

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.base, self.c, self.p)):
            raise InputError("constant-plus-power class needs finite parameters")
        if self.base == 0.0:
            raise InputError("constant-plus-power with base=0 is a plain power class")
        if self.c == 0.0:
            raise InputError("constant-plus-power with c=0 is a plain constant class")
        if self.p <= 0:
            raise InputError(f"constant-plus-power class needs p > 0, got p={self.p}")

    def _at(self, n: int) -> float:
        return self.base + self.c * float(n) ** (-self.p)

    def is_positive(self) -> bool:
        # monotone in n, so the extremes are n=1 and the limit
        return self.base > 0 and self.base + self.c > 0

    def atoms(self) -> tuple[Atom, ...]:
        return ((1.0, 0.0, self.base), (1.0, -self.p, self.c))


@dataclass(frozen=True)
class Prefixed(_Decay):
    """Finitely many explicit values, then a closed-form tail.

    The tail is evaluated at the absolute index, not shifted; the prefix
    alters finitely many terms and never a verdict, so ``atoms()`` are
    the tail's.
    """

    prefix: tuple[float, ...]
    tail: "Union[Constant, PowerDecay, Geometric, ConstantPlusPower]"

    def __post_init__(self):
        object.__setattr__(self, "prefix", tuple(float(v) for v in self.prefix))
        if not self.prefix:
            raise InputError("prefixed class needs a nonempty prefix")
        if not all(math.isfinite(v) for v in self.prefix):
            raise InputError("prefixed class needs finite prefix values")
        if isinstance(self.tail, (Prefixed, Tabulated)):
            raise InputError("prefixed tail must be a closed-form decay class")

    def _at(self, n: int) -> float:
        if n <= len(self.prefix):
            return self.prefix[n - 1]
        return self.tail.at(n)

    def _first(self, n_max: int) -> np.ndarray:
        import numpy as np

        head = np.asarray(self.prefix[:n_max])
        if n_max <= len(self.prefix):
            return head
        return np.concatenate([head, self.tail.first(n_max)[len(self.prefix) :]])

    def is_positive(self) -> bool:
        return all(v > 0 for v in self.prefix) and self.tail.is_positive()

    def atoms(self) -> tuple[Atom, ...]:
        return self.tail.atoms()


@dataclass(frozen=True)
class Tabulated(_Decay):
    """A finite table of values with *no* tail information.

    Symbolic series decisions are refused on this class: its ``atoms()``
    raises, and every series verdict reads them first.
    """

    values: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        if not self.values:
            raise InputError("tabulated class needs at least one value")
        if not all(math.isfinite(v) for v in self.values):
            raise InputError("tabulated class needs finite values")

    def _at(self, n: int) -> float:
        if n > len(self.values):
            raise InputError(
                f"tabulated sequence has {len(self.values)} entries, index {n} requested"
            )
        return self.values[n - 1]

    def _first(self, n_max: int) -> np.ndarray:
        if n_max > len(self.values):
            raise InputError(
                f"tabulated sequence has {len(self.values)} entries, {n_max} requested"
            )
        import numpy as np

        return np.asarray(self.values[:n_max])

    def is_positive(self) -> bool:
        return all(v > 0 for v in self.values)

    def atoms(self) -> tuple[Atom, ...]:
        raise UndecidableError(
            "tabulated values carry no tail information; symbolic decision refused"
        )


DecaySeq = Union[Constant, PowerDecay, Geometric, ConstantPlusPower, Prefixed, Tabulated]


def require_positive(seq: DecaySeq, what: str = "sequence") -> DecaySeq:
    """Validate s_n > 0 for all n; returns the input for chaining."""
    if not seq.is_positive():
        raise InputError(f"{what} must be strictly positive at every index")
    return seq


# ---------------------------------------------------------------------------
# leading-atom verdicts


def leading_difference(b: DecaySeq, a: DecaySeq) -> Atom | None:
    """Leading atom of the tail of b_n - a_n, or None if the tails cancel.

    Atoms of one (q, alpha) cancel exactly when their coefficients are
    equal floats; otherwise the difference of the two floats is nonzero
    and carries the sign of the exact difference.
    """
    diff = {(q, alpha): k for q, alpha, k in b.atoms()}
    for q, alpha, k in a.atoms():
        diff[q, alpha] = diff.get((q, alpha), 0.0) - k
    live = [(q, alpha, k) for (q, alpha), k in diff.items() if k != 0.0]
    return max(live) if live else None


# Operands are float reprs: at most 17 significant digits, decimal
# exponents in [-324, 308].  A sum of a few of them (times small integers)
# spans under 700 digits and a product of a few squares under 1000, so
# every result is exact; one that is not raises Inexact, never rounds.
_EXACT = decimal.Context(prec=1000, traps=[decimal.Inexact, decimal.InvalidOperation])


def _decimal(x: float) -> decimal.Decimal:
    return decimal.Decimal(repr(x))


# The float filter in front of the exact test.  u = 2**-53 bounds both the
# relative rounding of one float operation and the relative gap between a
# float and the decimal its repr spells (half an ulp).  Inside
# [2**-1000, 2**1000] every float is normal, so both bounds hold; a value
# outside that range goes to the exact test.  A side of at most
# _FILTER_FACTORS factors has under 1000 digits, so wherever the filter
# decides, the exact test would have decided too, and the same way.
_TINY, _HUGE = 2.0**-1000, 2.0**1000
_INV_U = 2.0**53
_SLACK = 1.0 + 2.0**-40  # covers the second-order terms and the bound's own rounding
_FILTER_FACTORS = 32


def _float_summable(powers: tuple[tuple[Atom, int], ...]) -> bool | None:
    """``summable`` decided in floats, or None where rounding could flip it.

    A side that multiplies n floats has carried n repr gaps and n - 1
    roundings (the first product 1.0 * q is exact), so it lies within
    a relative gamma_(2n-1) of the exact product of the decimals; the
    difference of two sides must clear the sum of the two.  The alpha
    sum of m terms, each a repr gap and a product away from exact, is
    off by at most gamma_(m+2) times the sum of magnitudes; one more u
    of margin takes up the rest.
    """
    num = den = 1.0
    n_num = n_den = 0
    for (q, _, _), e in powers:
        if q == 1.0:
            continue
        if e > 0:
            n_num += e
            if n_num > _FILTER_FACTORS:
                return None
            for _ in range(e):
                num *= q
                if not _TINY <= num <= _HUGE:
                    return None
        elif e < 0:
            n_den -= e
            if n_den > _FILTER_FACTORS:
                return None
            for _ in range(-e):
                den *= q
                if not _TINY <= den <= _HUGE:
                    return None
    if n_num or n_den:
        k = 2 * (n_num + n_den) - (n_num > 0) - (n_den > 0)
        if abs(den - num) * _INV_U <= k * _SLACK * max(num, den):
            return None  # too close to call, or a tie: the exact test decides
        return num < den
    if len(powers) > _FILTER_FACTORS:
        return None
    total = magnitude = 1.0
    for (_, alpha, _), e in powers:
        if abs(e) > _FILTER_FACTORS or alpha != 0.0 and not _TINY <= abs(alpha) <= _HUGE:
            return None
        term = e * alpha
        total += term
        magnitude += abs(term)
    if abs(total) * _INV_U <= (len(powers) + 3) * _SLACK * magnitude:
        return None
    return total < 0.0


def _exact_summable(powers: tuple[tuple[Atom, int], ...]) -> bool:
    num = den = decimal.Decimal(1)
    for (q, _, _), e in powers:
        if q != 1.0:
            q_e = _EXACT.power(_decimal(q), abs(e))
            if e > 0:
                num = _EXACT.multiply(num, q_e)
            else:
                den = _EXACT.multiply(den, q_e)
    if num != den:
        return num < den
    alpha = decimal.Decimal(0)
    for (_, a, _), e in powers:
        alpha = _EXACT.fma(e, _decimal(a), alpha)
    return alpha < -1


def summable(*powers: tuple[Atom, int]) -> bool:
    """Whether sum_n prod_i s_i(n)**e_i converges, from leading atoms.

    Each factor is given as (leading atom of s_i, integer power e_i).  The
    product must be eventually positive (callers square signed factors
    and check the others positive); its leading atom is
    (prod q_i**e_i, sum e_i * alpha_i).  q is compared with 1 by
    cross-multiplying the q_i with e_i > 0 against those with e_i < 0
    (factors with q_i = 1 change neither side), then, on a tie, alpha
    with -1; both exactly.  Floats decide first, within a rigorous error
    bound; a result too close to call, and so every tie, goes to the
    exact decimal test.
    """
    verdict = _float_summable(powers)
    return _exact_summable(powers) if verdict is None else verdict
