"""Each oracle agrees with a second derivation and rejects a perturbed answer.

    python -m pytest bench/test_oracles.py

These tests do not import cylmeasure.
"""

import math
from decimal import Decimal, localcontext

import pytest

import oracles


def power(c, p):
    return {"power": {"c": c, "p": p}}


def test_strict_json_rejects_non_finite_tokens():
    assert oracles.strict_json('{"a": [1, 2.5e-3]}') == {"a": [1, 0.0025]}
    for text in ('{"density": Infinity}', "[NaN]", "-Infinity"):
        with pytest.raises(ValueError):
            oracles.strict_json(text)


def test_to_json_writes_numerals_verbatim():
    assert oracles.to_json({"power": {"c": "1", "p": "1.10"}}) == '{"power":{"c":1,"p":1.10}}'
    with pytest.raises(ValueError):
        oracles.to_json({"power": {"c": "one"}})


@pytest.mark.parametrize(
    "py, pc, admissible",
    [("1.10", "1.20", False), ("1.07", "1.14", False), ("1.11", "1.20", True), ("0.5", "0.01", False)],
)
def test_shift_admissible_is_exact_on_the_boundary(py, pc, admissible):
    # sum n^(-2 p_y + p_c) converges iff 2 p_y - p_c > 1, decided on the decimals
    assert oracles.shift_admissible(power("1", py), power("1", pc)) is admissible


def test_hilbert_schmidt_and_support_boundaries():
    assert oracles.hilbert_schmidt(power("1", "0.5")) is False
    assert oracles.hilbert_schmidt(power("1", "0.51")) is True
    assert oracles.hilbert_schmidt({"geometric": {"c": "3.5", "q": "0.95"}}) is True
    assert oracles.support({"constant": {"rho": "1"}}, power("1", "0.5")) == ("not-supported", "diverges")
    assert oracles.support(power("1", "0.4"), power("1", "0.3")) == ("not-supported", "diverges")
    assert oracles.support(power("1", "0.4"), power("1", "0.31")) == ("supported", "converges")


def test_equivalence_follows_feldman_hajek():
    one = {"constant": {"rho": "1"}}
    assert oracles.equivalence(one, {"constant": {"rho": "2"}}) == ("singular", "diverges")
    assert oracles.equivalence(one, {"constant_plus_power": {"base": "1", "c": "1", "p": "1"}}) == (
        "equivalent",
        "converges",
    )
    assert oracles.equivalence(one, {"constant_plus_power": {"base": "1", "c": "1", "p": "0.5"}})[0] == "singular"
    prefixed = {"prefixed": {"prefix": ["4", "0.5"], "tail": power("2", "1.5")}}
    assert oracles.equivalence(power("2", "1.5"), prefixed)[0] == "equivalent"
    assert oracles.equivalence(power("2", "1.5"), power("2", "1.51"))[0] == "singular"


def test_ratio_range_scans_the_prefix():
    lo, hi = oracles.ratio_range({"constant": {"rho": "1"}}, {"prefixed": {"prefix": ["4"], "tail": power("1", "1")}})
    assert (lo, hi) == (1 / 1000, 4.0)


def test_basis_moment_is_the_double_factorial():
    assert oracles.basis_moment({1: 4}, {1: 2.0}) == 3 * 4.0
    assert oracles.basis_moment({1: 2, 2: 6}, {1: 2.0, 2: 0.5}) == 2.0 * 15 * 0.125
    assert oracles.basis_moment({1: 3, 2: 1}, {1: 1.0, 2: 1.0}) == 0.0
    assert not oracles.close(3.0 * (1 + 1e-9), oracles.basis_moment({1: 4}, {1: 1.0}), 1e-10)


def test_two_sweep_bilinear_matches_the_dense_sum():
    m, dx, n = 1.5, 0.05, 41
    f = [math.sin(0.3 * i) for i in range(n)]
    g = [math.exp(-0.01 * i * i) for i in range(n)]
    w = [dx] * n
    w[0] = w[-1] = dx / 2
    dense = math.fsum(
        w[i] * f[i] * math.exp(-m * abs(i - j) * dx) / (2 * m) * w[j] * g[j] for i in range(n) for j in range(n)
    )
    fast = oracles.massive_free_bilinear(m, dx, f, g)
    assert oracles.close(fast, dense, 1e-12)
    assert not oracles.close(fast * (1 + 1e-8), dense, 1e-9)


def test_kernel_closed_form():
    assert oracles.massive_free(1.0, 0.0) == 0.5
    assert oracles.massive_free(2.0, -1.5) == math.exp(-3.0) / 4.0


def test_euler_product_matches_the_direct_product_and_the_log_series():
    with localcontext() as ctx:
        ctx.prec = 60
        direct = Decimal(1)
        for k in range(1, 200):
            direct *= 1 - Decimal("0.5") ** k
    assert abs(oracles.euler_product("0.5") - direct) < Decimal("1e-38")
    assert abs(oracles.geometric_tail_product("1", "0.5") - direct) < Decimal("1e-38")


def _partial_product_report(c, q, tol=1e-12):
    value, k = 1.0, 0
    while True:
        k += 1
        f = 1.0 - c * q**k
        value *= f
        if 1.0 - f <= tol:
            return {"value": value, "n_factors": k, "converged": True, "verdict": "converged"}


@pytest.mark.parametrize("c, q", [("1", "0.5"), ("0.01", "0.9997")])
def test_product_check_accepts_the_partial_product_and_rejects_perturbations(c, q):
    truth = oracles.geometric_tail_product(c, q)
    report = _partial_product_report(float(c), float(q))
    assert oracles.product_report_error(report, c, q, truth) is None
    assert oracles.product_report_error({**report, "value": report["value"] * (1 + 1e-6)}, c, q, truth)
    assert oracles.product_report_error({**report, "value": float(truth) * (1 - 1e-6)}, c, q, truth)
    assert oracles.product_report_error({**report, "n_factors": report["n_factors"] // 2}, c, q, truth)
    assert oracles.product_report_error(
        {**report, "converged": False, "verdict": "decreasing-unconverged"}, c, q, truth
    )


def test_character_means():
    assert oracles.character_mean([0, 0, 0]) == 1
    assert oracles.character_mean([0, -2, 0]) == 0


def test_minimal_relation():
    assert oracles.minimal_relation([{2: 1}, {3: 1}, {5: 1}, {7: 1}], 15) is None
    assert oracles.minimal_relation([{2: 1}, {3: 1}, {2: 1, 3: 1}], 5) == (1, 1, -1)
    assert oracles.minimal_relation([{2: 1}, {3: 1}, {2: 2, 3: 1}], 5) == (2, 1, -1)
    assert oracles.minimal_relation([{1: 2}, {1: 3}], 5) == (3, -2)
    assert oracles.minimal_relation([{1: 2}, {1: 3}], 2) is None
    assert oracles.minimal_relation([{2: 1}, {3: 1}, {2: 1, 3: 1}], 5) != (2, 2, -2)


def test_tail_growth_plateau_check():
    report = {"kind": "plateau", "value": 1.64, "final_se": 0.01}
    assert oracles.tail_growth_error(report, 1.645) is None
    assert oracles.tail_growth_error({**report, "value": 1.645 + 0.07}, 1.645)
    assert oracles.tail_growth_error({**report, "kind": "slope"}, 1.645)
    assert oracles.tail_growth_error({**report, "final_se": 0.0}, 1.64)


def test_marginal_consistency():
    halves = (("0", "0.5"), ("0.5", "1"))
    small = {halves[0]: "0.25", halves[1]: "0.75"}
    large = {(a, b): str(float(small[a]) * 0.5) for a in halves for b in halves}
    assert oracles.marginals_consistent(small, large)
    large[(halves[0], halves[0])] = str(float(large[(halves[0], halves[0])]) + 0.0625)
    assert not oracles.marginals_consistent(small, large)
