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
``repr``, which is what a JSON document spells), read as an integer m
times 10**k: q is compared with 1 by cross-multiplying the integers with
one power of ten, alpha with -1 by adding them on a common exponent.  A
float filter answers first and decides only where the result clears a
margin of 2**-40 of its scale, far beyond its rounding; every closer
result goes to that test.  Coefficients enter only by their sign and by
float equality, so no product of them can underflow to 0.

``Tabulated`` carries a finite table and no tail information; its
``atoms()`` raises ``UndecidableError``, so every series verdict refuses
it (the CLI exits 2).

``FiniteSequence`` and the decay classes are frozen records
(``_record.Record``), compared and hashed by their fields.
"""

from __future__ import annotations

from typing import Iterable, Union

from . import _np as np
from ._record import Record
from .errors import (
    InputError, UndecidableError, require_budget, require_count, require_indices, require_real,
)

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
    "MAX_TOTAL_POWER",
]


# ---------------------------------------------------------------------------
# finitely supported sequences


class FiniteSequence(Record):
    """A real sequence over indices 1, 2, ... with finite support.

    Stored canonically: strictly increasing indices, no explicit zeros.
    An absent index means the value 0.
    """

    entries: tuple[tuple[int, float], ...] = ()

    def __post_init__(self):
        require_indices([idx for idx, _ in self.entries], "sequence index")
        for idx, val in self.entries:
            require_real(val, f"sequence value at index {idx}")
        canonical = tuple(sorted((i, float(v)) for i, v in self.entries if v != 0.0))
        object.__setattr__(self, "entries", canonical)

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[int, float]]) -> "FiniteSequence":
        acc: dict[int, float] = {}
        for idx, val in pairs:
            require_real(val, f"sequence value at index {idx}")
            acc[idx] = acc.get(idx, 0.0) + val
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
        require_real(factor, "scale factor")
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


class _Decay(Record):
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
        require_count(n_max, "n_max", 1)
        return self._first(n_max)

    def _first(self, n_max: int) -> np.ndarray:
        """The sum of the atoms k * n**alpha * q**n, each factor of 1 left out."""
        n = np.arange(1, n_max + 1, dtype=float)
        total = None
        for q, alpha, k in self.atoms():
            term = k if alpha == 0.0 else k * n**alpha
            if q != 1.0:
                term = term * q**n
            total = term if total is None else total + term
        return np.full(n_max, 0.0 if total is None else total)


class Constant(_Decay):
    """s_n = value for every n."""

    value: float

    def __post_init__(self):
        require_real(self.value, "constant class value")

    def _at(self, n: int) -> float:
        return self.value

    def is_positive(self) -> bool:
        return self.value > 0

    def atoms(self) -> tuple[Atom, ...]:
        return _atom(1.0, 0.0, self.value)


class PowerDecay(_Decay):
    """s_n = c * n**(-p) with p > 0."""

    c: float
    p: float

    def __post_init__(self):
        require_real(self.c, "power class c")
        require_real(self.p, "power class p", "> 0")

    def _at(self, n: int) -> float:
        return self.c * float(n) ** (-self.p)

    def is_positive(self) -> bool:
        return self.c > 0

    def atoms(self) -> tuple[Atom, ...]:
        return _atom(1.0, -self.p, self.c)


class Geometric(_Decay):
    """s_n = c * q**n with 0 < q < 1."""

    c: float
    q: float

    def __post_init__(self):
        require_real(self.c, "geometric class c")
        require_real(self.q, "geometric class q", "(0, 1)")

    def _at(self, n: int) -> float:
        return self.c * self.q**n

    def is_positive(self) -> bool:
        return self.c > 0

    def atoms(self) -> tuple[Atom, ...]:
        return _atom(self.q, 0.0, self.c)


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
        require_real(self.base, "constant-plus-power class base")
        require_real(self.c, "constant-plus-power class c")
        require_real(self.p, "constant-plus-power class p", "> 0")
        if self.base == 0.0:
            raise InputError("constant-plus-power with base=0 is a plain power class")
        if self.c == 0.0:
            raise InputError("constant-plus-power with c=0 is a plain constant class")

    def _at(self, n: int) -> float:
        return self.base + self.c * float(n) ** (-self.p)

    def is_positive(self) -> bool:
        # monotone in n, so the extremes are n=1 and the limit
        return self.base > 0 and self.base + self.c > 0

    def atoms(self) -> tuple[Atom, ...]:
        return ((1.0, 0.0, self.base), (1.0, -self.p, self.c))


class Prefixed(_Decay):
    """Finitely many explicit values, then a closed-form tail.

    The tail is evaluated at the absolute index, not shifted; the prefix
    alters finitely many terms and never a verdict, so ``atoms()`` are
    the tail's.
    """

    prefix: tuple[float, ...]
    tail: "Union[Constant, PowerDecay, Geometric, ConstantPlusPower]"

    def __post_init__(self):
        for n, v in enumerate(self.prefix, 1):
            require_real(v, f"prefixed class value at index {n}")
        object.__setattr__(self, "prefix", tuple(float(v) for v in self.prefix))
        if not self.prefix:
            raise InputError("prefixed class needs a nonempty prefix")
        if isinstance(self.tail, (Prefixed, Tabulated)):
            raise InputError("prefixed tail must be a closed-form decay class")

    def _at(self, n: int) -> float:
        if n <= len(self.prefix):
            return self.prefix[n - 1]
        return self.tail.at(n)

    def _first(self, n_max: int) -> np.ndarray:
        head = np.asarray(self.prefix[:n_max])
        if n_max <= len(self.prefix):
            return head
        return np.concatenate([head, self.tail.first(n_max)[len(self.prefix) :]])

    def is_positive(self) -> bool:
        return all(v > 0 for v in self.prefix) and self.tail.is_positive()

    def atoms(self) -> tuple[Atom, ...]:
        return self.tail.atoms()


class Tabulated(_Decay):
    """A finite table of values with *no* tail information.

    Symbolic series decisions are refused on this class: its ``atoms()``
    raises, and every series verdict reads them first.
    """

    values: tuple[float, ...]

    def __post_init__(self):
        for n, v in enumerate(self.values, 1):
            require_real(v, f"tabulated class value at index {n}")
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        if not self.values:
            raise InputError("tabulated class needs at least one value")

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


# The float filter in front of the exact test.  u = 2**-53 bounds the
# relative rounding of one float operation and the relative gap between a
# float and the decimal its repr spells.  A call of at most _FILTER_FACTORS
# factors, each q within [_TINY, _HUGE], keeps every partial product inside
# [2**-992, 2**992], where floats are normal, so each q side lies within
# 64 u < 2**-46 of its exact decimal product.  The alpha sum of at most 32
# terms, each a repr gap and a product away from exact, lies within
# 34 u < 2**-46 of its scale 1 + sum |e alpha| (a subnormal alpha is off
# by under 2**-1074, nothing beside a scale of at least 1).  Floats decide
# only where the result clears _MARGIN of its scale; every closer case,
# ties included, goes to the exact test, and so does any inf or NaN.
_MARGIN = 2.0**-40
_FILTER_FACTORS = 32
_TINY, _HUGE = 2.0**-31, 2.0**31
# sum |e_i| of one summable call: the exact test raises each printed
# decimal to its power in integers, which took 0.5 ms at this budget with
# 17-digit decimals on a two-vCPU VM, 0.09 s at 30 times it and 34 s at
# 1,200 times it
MAX_TOTAL_POWER = 1000


def _float_summable(powers: tuple[tuple[Atom, int], ...]) -> bool | None:
    """``summable`` decided in floats, or None where rounding could flip it."""
    num = den = total = scale = 1.0
    factors, on_q = 0, False
    for (q, alpha, _), e in powers:
        factors += abs(e)
        if factors > _FILTER_FACTORS:
            return None
        if q != 1.0 and e:
            if not _TINY <= q <= _HUGE:
                return None
            on_q = True
            for _ in range(e):
                num *= q
            for _ in range(-e):
                den *= q
        term = e * float(alpha)
        total += term
        scale += abs(term)
    if on_q:
        return num < den if abs(num - den) > _MARGIN * max(num, den) else None
    return total < 0.0 if abs(total) > _MARGIN * scale else None


def _printed(x: float) -> tuple[int, int]:
    """(m, k) with m * 10**k the decimal that ``repr(x)`` spells."""
    digits, _, exponent = repr(x).partition("e")
    whole, _, fraction = digits.partition(".")
    return int(whole + fraction), int(exponent or 0) - len(fraction)


def _exact_summable(powers: tuple[tuple[Atom, int], ...]) -> bool:
    # integers only: num / den * 10**shift is the exact q of the product
    num = den = 1
    shift = 0
    for (q, _, _), e in powers:
        if q != 1.0:
            m, k = _printed(q)
            if e > 0:
                num *= m**e
            else:
                den *= m**-e
            shift += e * k
    if shift > 0:
        num *= 10**shift
    else:
        den *= 10**-shift
    if num != den:
        return num < den
    # alpha < -1 on a common exponent k_min <= 0
    alphas = [(e, *_printed(a)) for (_, a, _), e in powers]
    k_min = min([0] + [k for _, _, k in alphas])
    return sum(e * m * 10 ** (k - k_min) for e, m, k in alphas) < -(10**-k_min)


def summable(*powers: tuple[Atom, int]) -> bool:
    """Whether sum_n prod_i s_i(n)**e_i converges, from leading atoms.

    Each factor is given as (leading atom of s_i, integer power e_i).  The
    product must be eventually positive (callers square signed factors
    and check the others positive); its leading atom is
    (prod q_i**e_i, sum e_i * alpha_i).  q is compared with 1 by
    cross-multiplying the q_i with e_i > 0 against those with e_i < 0
    (factors with q_i = 1 change neither side), then, on a tie, alpha
    with -1; both exactly.  Floats decide first where the result clears
    2**-40 of its scale; a closer result, and so every tie, goes to the
    exact test in integers on the printed decimals.  A total power
    sum |e_i| above ``MAX_TOTAL_POWER`` (which the floats never decide, as
    it exceeds their 32 factors) is refused before that test computes.
    """
    verdict = _float_summable(powers)
    if verdict is not None:
        return verdict
    require_budget(sum(abs(e) for _, e in powers), MAX_TOTAL_POWER, "total power")
    return _exact_summable(powers)
