"""Independent oracles for every output the benchmark checks.

Nothing here imports cylmeasure.  Each oracle recomputes the answer from
the inputs by a different route than the program: exact rational
arithmetic on the decimal strings the benchmark wrote, closed forms,
classical series, or an O(N) recursion in place of a dense matrix.

Decay-class documents use the program's tagged JSON layout, but every
number is kept as the decimal string that is written into the JSON text,
so ``Fraction(text)`` is exactly the value a user typed.
"""

from __future__ import annotations

import itertools
import json
import math
import re
from decimal import Decimal, localcontext
from fractions import Fraction

# ---------------------------------------------------------------------------
# JSON text with decimal strings

_NUMERAL = re.compile(r"-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][-+]?[0-9]+)?$")


def to_json(doc) -> str:
    """Render a document whose leaves are decimal strings as JSON text."""
    if isinstance(doc, dict):
        return "{" + ",".join(f"{json.dumps(k)}:{to_json(v)}" for k, v in doc.items()) + "}"
    if isinstance(doc, (list, tuple)):
        return "[" + ",".join(to_json(v) for v in doc) + "]"
    if isinstance(doc, int) and not isinstance(doc, bool):
        return str(doc)
    if isinstance(doc, str) and _NUMERAL.match(doc):
        return doc
    raise ValueError(f"not a numeral document leaf: {doc!r}")


def strict_json(text: str):
    """Parse RFC 8259 JSON; ``NaN`` and ``Infinity`` tokens are errors."""

    def reject(token):
        raise ValueError(f"non-RFC 8259 token {token}")

    return json.loads(text, parse_constant=reject)


# ---------------------------------------------------------------------------
# exact series verdicts on decay classes
#
# A tail is a map (alpha, q) -> coefficient meaning sum k * n^alpha * q^n,
# all in Fractions.  Only tails matter for convergence.

_ZERO = Fraction(0)
_ONE = Fraction(1)


def tail_atoms(doc) -> dict:
    ((kind, body),) = doc.items()
    if kind == "constant":
        atoms = {(_ZERO, _ONE): Fraction(body["rho"])}
    elif kind == "power":
        atoms = {(-Fraction(body["p"]), _ONE): Fraction(body["c"])}
    elif kind == "geometric":
        atoms = {(_ZERO, Fraction(body["q"])): Fraction(body["c"])}
    elif kind == "constant_plus_power":
        atoms = {(_ZERO, _ONE): Fraction(body["base"]), (-Fraction(body["p"]), _ONE): Fraction(body["c"])}
    elif kind == "prefixed":
        return tail_atoms(body["tail"])
    else:
        raise ValueError(f"no exact tail for {kind!r}")
    return {key: k for key, k in atoms.items() if k}


def mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for (al1, q1), k1 in a.items():
        for (al2, q2), k2 in b.items():
            key = (al1 + al2, q1 * q2)
            out[key] = out.get(key, _ZERO) + k1 * k2
    return {key: k for key, k in out.items() if k}


def sub(a: dict, b: dict) -> dict:
    out = dict(a)
    for key, k in b.items():
        out[key] = out.get(key, _ZERO) - k
    return {key: k for key, k in out.items() if k}


def _leading(atoms: dict):
    """(q, alpha, coeff) of the eventually dominant atom, or None."""
    if not atoms:
        return None
    (alpha, q), k = max(atoms.items(), key=lambda item: (item[0][1], item[0][0]))
    return q, alpha, k


def _summable(q: Fraction, alpha: Fraction) -> bool:
    return q < 1 or (q == 1 and alpha < -1)


def ratio_summable(numer: dict, denom: dict) -> bool:
    """sum numer_n / denom_n < inf, for eventually positive numer and denom."""
    lead_n = _leading(numer)
    if lead_n is None:
        return True
    q_d, alpha_d, _ = _leading(denom)
    return _summable(lead_n[0] / q_d, lead_n[1] - alpha_d)


def shift_admissible(shift, cov) -> bool:
    """sum y_n^2 / rho_n < inf."""
    y = tail_atoms(shift)
    return ratio_summable(mul(y, y), tail_atoms(cov))


def hilbert_schmidt(h) -> bool:
    """sum h_n^2 < inf."""
    atoms = tail_atoms(h)
    return ratio_summable(mul(atoms, atoms), {(_ZERO, _ONE): _ONE})


def support(cov, weights) -> tuple[str, str]:
    """(verdict, series) for sum a_n^2 rho_n."""
    a = tail_atoms(weights)
    if ratio_summable(mul(mul(a, a), tail_atoms(cov)), {(_ZERO, _ONE): _ONE}):
        return "supported", "converges"
    return "not-supported", "diverges"


def equivalence(cov_a, cov_b) -> tuple[str, str]:
    """(verdict, series) by Feldman-Hajek for diagonal Gaussians."""
    a, b = tail_atoms(cov_a), tail_atoms(cov_b)
    if _leading(a)[:2] != _leading(b)[:2]:
        return "singular", "diverges"
    delta = sub(b, a)
    if ratio_summable(mul(delta, delta), mul(a, a)):
        return "equivalent", "converges"
    return "singular", "diverges"


def seq_values(doc, count: int) -> list[float]:
    """Entries s_1..s_count of a decay class, in floating point from the decimals."""
    ((kind, body),) = doc.items()
    ns = [float(n) for n in range(1, count + 1)]
    if kind == "constant":
        return [float(body["rho"])] * count
    if kind == "power":
        c, p = float(body["c"]), float(body["p"])
        return [c * n**-p for n in ns]
    if kind == "geometric":
        c, q = float(body["c"]), float(body["q"])
        return [c * q**n for n in ns]
    if kind == "constant_plus_power":
        base, c, p = float(body["base"]), float(body["c"]), float(body["p"])
        return [base + c * n**-p for n in ns]
    head = [float(v) for v in body["prefix"][:count]]
    return head + seq_values(body["tail"], count)[len(head):]


def seq_value(doc, n: int) -> float:
    return seq_values(doc, n)[-1]


def ratio_range(cov_a, cov_b, scan: int = 1000) -> tuple[float, float]:
    """min and max of rho'_n / rho_n over n = 1..scan."""
    ratios = [b / a for a, b in zip(seq_values(cov_a, scan), seq_values(cov_b, scan))]
    return min(ratios), max(ratios)


# ---------------------------------------------------------------------------
# Gaussian moments of basis vectors


def double_factorial(n: int) -> int:
    return math.prod(range(n, 0, -2)) if n > 0 else 1


def basis_moment(multiplicity: dict[int, int], rho: dict[int, float]) -> float:
    """E[prod_i x_i^{m_i}] for independent N(0, rho_i) coordinates."""
    if any(m % 2 for m in multiplicity.values()):
        return 0.0
    return math.prod(double_factorial(m - 1) * rho[i] ** (m // 2) for i, m in multiplicity.items())


# ---------------------------------------------------------------------------
# kernels


def massive_free(m: float, x: float) -> float:
    return math.exp(-m * abs(x)) / (2.0 * m)


def massive_free_bilinear(m: float, dx: float, f, g) -> float:
    """Trapezoid f^T W K W g for K_ij = exp(-m|i-j|dx)/(2m), in O(N).

    K is semiseparable: K v is a forward and a backward first-order
    recursion with ratio exp(-m dx), so no N x N matrix is formed.
    """
    n = len(f)
    w = [dx] * n
    w[0] = w[-1] = 0.5 * dx
    r = math.exp(-m * dx)
    v = [w[i] * g[i] for i in range(n)]
    forward = [0.0] * n
    acc = 0.0
    for i in range(n):
        acc = acc * r + v[i]
        forward[i] = acc
    acc = 0.0
    terms = [0.0] * n
    for i in range(n - 1, -1, -1):
        acc = acc * r + v[i]
        terms[i] = w[i] * f[i] * (forward[i] + acc - v[i]) / (2.0 * m)
    return math.fsum(terms)


# ---------------------------------------------------------------------------
# countable products


def euler_product(q: str, digits: int = 40) -> Decimal:
    """prod_{k>=1} (1 - q^k) by Euler's pentagonal number theorem.

    sum_{n in Z} (-1)^n q^{n(3n-1)/2}; the terms fall off like
    q^{1.5 n^2}, so a few dozen suffice for q <= 0.9.
    """
    with localcontext() as ctx:
        ctx.prec = digits + 10
        qd = Decimal(q)
        eps = Decimal(10) ** -(digits + 5)
        total = Decimal(1)
        n = 1
        while True:
            sign = -1 if n % 2 else 1
            a = qd ** (n * (3 * n - 1) // 2)
            b = qd ** (n * (3 * n + 1) // 2)
            total += sign * (a + b)
            if a < eps:
                return +total
            n += 1


def geometric_tail_product(c: str, q: str, digits: int = 40) -> Decimal:
    """prod_{k>=1} (1 - c q^k) through its logarithm.

    log prod = -sum_{m>=1} (c q)^m / (m (1 - q^m)), from expanding each
    log(1 - c q^k) and summing the geometric series in k first.  The
    terms fall off like (c q)^m.
    """
    with localcontext() as ctx:
        ctx.prec = digits + 10
        cd, qd = Decimal(c), Decimal(q)
        eps = Decimal(10) ** -(digits + 5)
        log = Decimal(0)
        m = 1
        while True:
            term = (cd * qd) ** m / (m * (1 - qd**m))
            log -= term
            if term < eps:
                return log.exp()
            m += 1


def product_report_error(report: dict, c: str, q: str, truth: Decimal, tol: float = 1e-12) -> str | None:
    """Check a countable-product report for a 1 - c q^k tail.

    The report must say converged, must have stopped only once a factor
    came within ``tol`` of 1 (up to the rounding of 1 - f), and its value
    must be the partial product of its ``n_factors`` factors: between the
    limit and the limit divided by the rigorous remainder bound
    1 - c q^(n+1) / (1 - q), widened by the rounding of n products.
    """
    n = report["n_factors"]
    value = report["value"]
    if report["verdict"] != "converged" or report["converged"] is not True:
        return f"verdict {report['verdict']!r}"
    cf, qf = float(c), float(q)
    last = cf * math.exp(n * math.log(qf))
    if not last <= tol * 1.01:
        return f"stopped at factor {n} with 1 - f = {last:.3e} > tol"
    remainder = cf * math.exp((n + 1) * math.log(qf)) / (1.0 - qf)
    rounding = 4 * n * 2.0**-53
    lo = float(truth) * (1 - rounding)
    hi = float(truth) / (1 - remainder) * (1 + rounding)
    if not lo <= value <= hi:
        return f"value {value!r} outside [{lo!r}, {hi!r}] (limit {float(truth)!r})"
    return None


# ---------------------------------------------------------------------------
# torus integrals and integer relations


def character_mean(modes) -> int:
    """Haar mean of exp(i m . theta) on the torus: 1 if m = 0, else 0."""
    return int(all(m == 0 for m in modes))


def _rank(rows: list[list[Fraction]]) -> int:
    rows = [list(r) for r in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                factor = rows[i][col] / rows[rank][col]
                rows[i] = [x - factor * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def minimal_relation(freqs: list[dict[int, int]], bound: int):
    """Minimal integer relation among sums of square roots, or None.

    Each frequency is {radicand: integer coefficient} over squarefree
    radicands (1 for the rational part).  Square roots of distinct
    squarefree integers are linearly independent over Q, so
    sum m_i f_i = 0 exactly when every radicand's coefficient cancels.
    When the coefficient matrix has full rank there is no relation at
    all; otherwise relations are enumerated by max-norm, and the
    smallest norm, then the lexicographically first vector with a
    positive leading entry, is returned.
    """
    radicands = sorted({r for f in freqs for r in f})
    matrix = [[Fraction(f.get(r, 0)) for r in radicands] for f in freqs]
    if _rank(matrix) == len(freqs):
        return None
    for norm in range(1, bound + 1):
        found = []
        for m in itertools.product(range(-norm, norm + 1), repeat=len(freqs)):
            if max(abs(v) for v in m) != norm or next(v for v in m if v) < 0:
                continue
            if all(sum(mi * row[j] for mi, row in zip(m, matrix)) == 0 for j in range(len(radicands))):
                found.append(m)
        if found:
            return min(found)
    return None


def sqrt_sum(expr: dict[int, int]) -> float:
    return sum(k * math.sqrt(r) for r, k in sorted(expr.items()))


# ---------------------------------------------------------------------------
# Monte Carlo tail growth


def weighted_partial_sum(cov, weights, n_coords: int) -> float:
    """sum_{n <= N} a_n^2 rho_n, the exact mean of the sampled partial sum."""
    return math.fsum(a * a * r for a, r in zip(seq_values(weights, n_coords), seq_values(cov, n_coords)))


def tail_growth_error(report: dict, exact: float, n_se: float = 6.0) -> str | None:
    """A convergent weighted series must plateau within n_se standard errors."""
    if report["kind"] != "plateau":
        return f"kind {report['kind']!r}, expected plateau"
    se = report["final_se"]
    if not se > 0 or abs(report["value"] - exact) > n_se * se:
        return f"plateau {report['value']!r} vs exact {exact!r} (se {se!r})"
    return None


# ---------------------------------------------------------------------------
# marginal tables


def marginals_consistent(small: dict, large: dict) -> bool:
    """Does the (1,2) table marginalize onto the (1,) table exactly?

    Tables map box keys to probability strings; the large table's keys
    are (box_1, box_2) and the small table's keys are box_1.
    """
    reduced: dict = {}
    for (b1, _), p in large.items():
        reduced[b1] = reduced.get(b1, _ZERO) + Fraction(p)
    return reduced == {b1: Fraction(p) for b1, p in small.items()}


# ---------------------------------------------------------------------------
# numeric comparison


def close(value: float, truth: float, rel: float, abs_: float = 0.0) -> bool:
    return abs(value - truth) <= max(rel * abs(truth), abs_)
