"""Release-gate checks: every analytic formula against an independent route.

Each criterion function returns a ``CheckResult`` and is pure given the
master seed.  ``quick`` runs the deterministic content of every
criterion; ``full`` adds the Monte Carlo oracle suite at production
sample sizes.  The pytest acceptance module and the CLI ``selftest``
subcommand both dispatch here, so there is exactly one definition of
"passing".
``CheckResult`` is a frozen record (``_record.Record``).
"""

from __future__ import annotations

import json
import math
from typing import Callable

from . import _np as np
from . import bohr, gaussian, jsonio, kernels, measure_core, support, transform
from ._record import Record
from .seeding import derive_seed
from .sequences import (
    Constant,
    ConstantPlusPower,
    FiniteSequence,
    Geometric,
    PowerDecay,
    Prefixed,
)

__all__ = ["CheckResult", "run_selftest", "CRITERIA", "DEFAULT_SEED"]

DEFAULT_SEED = 20240901


class CheckResult(Record):
    criterion: str
    passed: bool
    detail: str


def _result(criterion: str, failures: list[str], notes: list[str]) -> CheckResult:
    if failures:
        return CheckResult(criterion, False, "; ".join(failures))
    return CheckResult(criterion, True, "; ".join(notes) if notes else "ok")


def _random_finite_sequence(
    rng: np.random.Generator, max_support: int, max_index: int
) -> FiniteSequence:
    size = int(rng.integers(1, max_support + 1))
    indices = rng.choice(np.arange(1, max_index + 1), size=size, replace=False)
    values = rng.normal(0.0, 1.0, size)
    values[values == 0.0] = 1.0
    return FiniteSequence(tuple((int(i), float(v)) for i, v in zip(indices, values)))


_COV_CATALOG = (
    Constant(1.0),
    Constant(2.0),
    PowerDecay(1.0, 1.0),
    Geometric(1.0, 0.5),
    Prefixed((2.0, 0.5), Constant(1.0)),
)


def criterion_wick_vs_mc(seed: int, full: bool) -> CheckResult:
    """1. Fourth moment 3 exactly; MC agreement on a randomized catalog."""
    failures: list[str] = []
    notes: list[str] = []
    e1 = FiniteSequence.basis(1)
    exact = gaussian.wick_moment(Constant(1.0), [e1] * 4)
    if exact != 3.0:
        failures.append(f"wick fourth moment {exact!r} != 3.0")
    notes.append("E[x1^4] = 3 exact")
    if full:
        m4, _ = gaussian.mc_moment(Constant(1.0), [e1] * 4, 1_000_000, derive_seed(seed, 101))
        if abs(m4 - 3.0) > 0.03:
            failures.append(f"MC fourth moment {m4:.4f} off 3 by more than 1%")
        notes.append(f"MC fourth moment {m4:.4f} (tol 1%)")
        bad = 0
        for case in range(50):
            case_rng = np.random.default_rng(derive_seed(seed, 102, case))
            two_n = int(case_rng.choice([2, 4, 6]))
            cov = _COV_CATALOG[case % len(_COV_CATALOG)]
            vectors = [_random_finite_sequence(case_rng, 5, 5) for _ in range(two_n)]
            analytic = gaussian.wick_moment(cov, vectors)
            est, se = gaussian.mc_moment(cov, vectors, 1_000_000, derive_seed(seed, 103, case))
            if abs(analytic - est) > 5.0 * se:
                bad += 1
                failures.append(
                    f"case {case}: wick {analytic:.5f} vs MC {est:.5f} (5*SE {5 * se:.5f})"
                )
        notes.append(f"catalog 50 cases, {50 - bad} within 5*SE")
    else:
        notes.append("MC parts skipped at quick level")
    return _result("wick-vs-mc", failures, notes)


def criterion_odd_moments(seed: int, full: bool) -> CheckResult:
    """2. Odd pairing moments vanish exactly; MC third moment near 0."""
    failures: list[str] = []
    notes: list[str] = []
    rng = np.random.default_rng(derive_seed(seed, 201))
    for length in (1, 3, 5):
        vectors = [_random_finite_sequence(rng, 4, 6) for _ in range(length)]
        val = gaussian.wick_moment(Constant(1.0), vectors)
        if val != 0.0:
            failures.append(f"odd moment of length {length} returned {val!r}")
    notes.append("odd moments 0 exact")
    if full:
        est, se = gaussian.mc_moment(
            Constant(1.0), [FiniteSequence.basis(1)] * 3, 1_000_000, derive_seed(seed, 202)
        )
        if abs(est) > 4.0 * se:
            failures.append(f"MC third moment {est:.5f} exceeds 4*SE {4 * se:.5f}")
        notes.append(f"MC E[x^3] = {est:.2e} (4*SE {4 * se:.2e})")
    else:
        notes.append("MC parts skipped at quick level")
    return _result("odd-moments", failures, notes)


def _double_factorial(n: int) -> int:
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def criterion_pairing_counts(seed: int, full: bool) -> CheckResult:
    """3. Enumerated pairings count (2n-1)!! and are valid matchings."""
    failures: list[str] = []
    for two_n, expected in ((2, 1), (4, 3), (6, 15), (8, 105)):
        ps = gaussian.pairings(two_n)
        if len(ps) != expected or expected != _double_factorial(two_n - 1):
            failures.append(f"pairings({two_n}) gave {len(ps)}, expected {expected}")
        if len(set(ps)) != len(ps):
            failures.append(f"pairings({two_n}) are not distinct")
        for p in ps:
            labels = sorted(l for pair in p for l in pair)
            if labels != list(range(1, two_n + 1)):
                failures.append(f"invalid matching in pairings({two_n}): {p}")
                break
    return _result("pairing-counts", failures, ["counts 1,3,15,105 verified"])


def criterion_rn_normalization(seed: int, full: bool) -> CheckResult:
    """4. Shift densities average to 1; change of measure moves polynomials."""
    failures: list[str] = []
    notes: list[str] = []
    y0 = FiniteSequence(())
    one = transform.rn_density(np.zeros(4), y0, Constant(1.0))
    if one != 1.0:
        failures.append(f"zero shift density {one!r} != 1")
    if not full:
        notes.append("density at zero shift is 1; MC parts skipped at quick level")
        return _result("rn-normalization", failures, notes)

    n_coords = 8
    n_samples = 1_000_000
    covs = (Constant(1.0), Constant(2.0), Prefixed((2.0, 0.5), Constant(1.0)))
    worst = 0.0
    for trial in range(10):
        rng = np.random.default_rng(derive_seed(seed, 401, trial))
        cov = covs[trial % len(covs)]
        y = _random_finite_sequence(rng, 4, n_coords)
        # scale the shift so sum y_n^2 / rho_n is a chosen value <= 4
        target = float(rng.uniform(0.5, 4.0))
        raw = sum(
            v * v / gaussian.inner(FiniteSequence.basis(i), FiniteSequence.basis(i), cov)
            for i, v in y.entries
        )
        y = y.scale(math.sqrt(target / raw))
        x = gaussian.draw_coordinates(
            cov, n_coords, n_samples, np.random.default_rng(derive_seed(seed, 402, trial))
        )
        dens = transform.rn_density(x, y, cov)
        est, se = gaussian.mc_mean(dens)
        worst = max(worst, abs(est - 1.0) / se)
        if abs(est - 1.0) > 4.0 * se:
            failures.append(
                f"trial {trial}: E[density] = {est:.5f}, off 1 by more than 4*SE ({se:.2e})"
            )
    notes.append(f"10 shifts, worst |E[density]-1| = {worst:.2f} SE")

    polys: tuple[tuple[str, Callable[[np.ndarray], np.ndarray]], ...] = (
        ("x1", lambda u: u[:, 0]),
        ("x1^2", lambda u: u[:, 0] ** 2),
        ("x1^3", lambda u: u[:, 0] ** 3),
        ("x1^4", lambda u: u[:, 0] ** 4),
        ("x1*x2+x2^2", lambda u: u[:, 0] * u[:, 1] + u[:, 1] ** 2),
        ("(x1+x2+x3)^2", lambda u: (u[:, 0] + u[:, 1] + u[:, 2]) ** 2),
    )
    cov = Constant(1.0)
    y = FiniteSequence(((1, 0.75), (2, -0.5), (3, 0.25)))
    x = gaussian.draw_coordinates(
        cov, n_coords, n_samples, np.random.default_rng(derive_seed(seed, 403))
    )
    dens = transform.rn_density(x, y, cov)
    shifted = x + y.as_vector(n_coords)
    for name, f in polys:
        diff = dens * f(x) - f(shifted)
        est, se = gaussian.mc_mean(diff)
        if abs(est) > 5.0 * se:
            failures.append(f"change of measure fails for {name}: diff {est:.4e} > 5*SE")
    notes.append("change-of-measure identity on 6 polynomials within 5*SE")
    return _result("rn-normalization", failures, notes)


def criterion_equivalence(seed: int, full: bool) -> CheckResult:
    """5. Singular for scaled white noise, equivalent for 1 + 1/n, symmetric."""
    failures: list[str] = []
    v = transform.equivalence_classify(Constant(1.0), Constant(2.0))
    if v.verdict is not transform.Equivalence.SINGULAR:
        failures.append(f"white noise 1 vs 2 classified {v.verdict}")
    v = transform.equivalence_classify(Constant(1.0), ConstantPlusPower(1.0, 1.0, 1.0))
    if v.verdict is not transform.Equivalence.EQUIVALENT:
        failures.append(f"1 vs 1+1/n classified {v.verdict}")
    catalog = (
        Constant(1.0),
        Constant(2.0),
        PowerDecay(1.0, 1.0),
        PowerDecay(2.0, 1.0),
        PowerDecay(1.0, 2.0),
        Geometric(1.0, 0.5),
        Geometric(1.0, 0.25),
        ConstantPlusPower(1.0, 1.0, 1.0),
        ConstantPlusPower(1.0, 1.0, 0.25),
        Prefixed((5.0,), Constant(1.0)),
    )
    rng = np.random.default_rng(derive_seed(seed, 501))
    asym = 0
    for _ in range(20):
        a, b = rng.choice(len(catalog), 2)
        va = transform.equivalence_classify(catalog[a], catalog[b])
        vb = transform.equivalence_classify(catalog[b], catalog[a])
        if va.verdict != vb.verdict:
            asym += 1
            failures.append(f"asymmetric verdict for pair ({a},{b}): {va.verdict}/{vb.verdict}")
    for c in catalog:
        if transform.equivalence_classify(c, c).verdict is not transform.Equivalence.EQUIVALENT:
            failures.append(f"reflexivity fails for {c}")
    return _result(
        "equivalence-classifier",
        failures,
        ["singular/equivalent landmarks and 20-case symmetry verified"],
    )


def criterion_support(seed: int, full: bool) -> CheckResult:
    """6. Weighted-support verdicts with matching Monte Carlo tail growth."""
    failures: list[str] = []
    notes: list[str] = []
    flat = support.weighted_support_check(Constant(1.0), Constant(1.0))
    if flat.verdict is not support.Support.NOT_SUPPORTED:
        failures.append(f"a_n = 1 classified {flat.verdict}")
    decaying = support.weighted_support_check(Constant(1.0), PowerDecay(1.0, 1.0))
    if decaying.verdict is not support.Support.SUPPORTED:
        failures.append(f"a_n = 1/n classified {decaying.verdict}")
    notes.append("symbolic verdicts: a=1 not supported, a=1/n supported")
    if full:
        slope = support.mc_tail_growth(
            Constant(1.0), Constant(1.0), 10_000, 100, derive_seed(seed, 601)
        )
        if slope.kind != "slope" or abs(slope.value - 1.0) > 0.05:
            failures.append(f"tail growth for a=1: kind={slope.kind}, value={slope.value:.4f}")
        notes.append(f"divergent slope {slope.value:.4f} (target 1 +- 5%)")
        plateau = support.mc_tail_growth(
            Constant(1.0), PowerDecay(1.0, 1.0), 10_000, 10_000, derive_seed(seed, 602)
        )
        target = math.pi**2 / 6.0
        if plateau.kind != "plateau" or abs(plateau.value - target) > 0.05 * target:
            failures.append(
                f"tail plateau for a=1/n: kind={plateau.kind}, value={plateau.value:.4f} "
                f"(target {target:.4f} +- 5%)"
            )
        notes.append(f"plateau {plateau.value:.4f} vs pi^2/6 = {target:.4f}")
    else:
        notes.append("MC parts skipped at quick level")
    return _result("support-diagnostics", failures, notes)


def criterion_kernel_oracle(seed: int, full: bool) -> CheckResult:
    """7. Closed-form kernel against its Fourier quadrature and mass 1/m^2."""
    failures: list[str] = []
    notes: list[str] = []
    xs = np.linspace(-5.0, 5.0, 101)
    for m in (0.5, 1.0, 2.0):
        kernel = kernels.MassiveFree1D(m)
        worst = 0.0
        for x in xs:
            res = kernels.kernel_fourier_quadrature(m, float(x), p_cutoff=1e7, tol=5e-7)
            worst = max(worst, abs(res.value - kernel.at(float(x))))
        if worst >= 1e-6:
            failures.append(f"m={m}: max |closed - quadrature| = {worst:.2e} >= 1e-6")
        notes.append(f"m={m}: max dev {worst:.1e}")
        # twice the same Gauss-Legendre rule on [0, X] plus the exact tail
        span = 40.0 / m
        nodes, weights = kernels.gauss_legendre_panels(np.linspace(0.0, span, 9))
        body = math.fsum(w * kernel.at(t) for t, w in zip(nodes.flat, weights.flat))
        mass = 2.0 * (body + math.exp(-m * span) / (2.0 * m * m))
        if abs(mass - 1.0 / m**2) > 1e-6:
            failures.append(f"m={m}: integral {mass:.8f} != 1/m^2 within 1e-6")
    return _result("kernel-oracle", failures, notes)


def criterion_bochner_gram(seed: int, full: bool) -> CheckResult:
    """8. Gaussian characteristic functions give PSD Gram matrices."""
    failures: list[str] = []
    worst = math.inf
    covs = (Constant(1.0), PowerDecay(1.0, 1.0), Geometric(1.0, 0.5))
    for trial in range(100):
        rng = np.random.default_rng(derive_seed(seed, 801, trial))
        cov = covs[trial % len(covs)]
        points: list[FiniteSequence] = []
        while len(points) < 8:
            cand = _random_finite_sequence(rng, 4, 6)
            if cand not in points:
                points.append(cand)
        report = gaussian.positive_type_gram(lambda xi: gaussian.chi(xi, cov), points)
        worst = min(worst, report.min_eigenvalue)
        if not report.psd or report.min_eigenvalue < -1e-10:
            failures.append(
                f"trial {trial}: min eigenvalue {report.min_eigenvalue:.3e} below -1e-10"
            )
    return _result(
        "bochner-gram", failures, [f"100 trials, smallest eigenvalue {worst:.2e}"]
    )


def _random_partition(rng: np.random.Generator) -> tuple:
    cut = float(rng.normal(0.0, 1.0))
    lo = measure_core.normalize_box((measure_core.Interval(-math.inf, cut),))
    hi = measure_core.normalize_box((measure_core.Interval(cut, math.inf),))
    return lo, hi


def criterion_product_measures(seed: int, full: bool) -> CheckResult:
    """9. Multiplicativity, marginal consistency, and the countable product."""
    failures: list[str] = []
    notes: list[str] = []
    for trial in range(100):
        rng = np.random.default_rng(derive_seed(seed, 901, trial))
        comps = (
            measure_core.Gaussian1D(float(rng.uniform(0.5, 2.0))),
            measure_core.Uniform1D(-1.0, float(rng.uniform(0.0, 2.0))),
        )
        spec = measure_core.ProductMeasureSpec.indexed(
            {1: comps[0], 2: comps[1]}, measure_core.Gaussian1D(1.0)
        )
        c1 = measure_core.CylinderSet.from_boxes(
            {1: [(-1.0, float(rng.uniform(0.0, 2.0)))]}
        )
        c2 = measure_core.CylinderSet.from_boxes(
            {2: [(float(rng.uniform(-1.0, 0.0)), 0.5)], 3: [(-0.5, 0.5)]}
        )
        both = measure_core.CylinderSet(c1.base + c2.base)
        lhs = measure_core.cylinder_measure(spec, both)
        rhs = measure_core.cylinder_measure(spec, c1) * measure_core.cylinder_measure(spec, c2)
        if abs(lhs - rhs) > 1e-12:
            failures.append(f"trial {trial}: multiplicativity off by {abs(lhs - rhs):.2e}")
        # marginal chain {1} in {1,2} built from the spec is consistent
        parts = {idx: _random_partition(rng) for idx in (1, 2)}
        probs = {
            idx: tuple(
                measure_core.box_prob(spec.component(idx), box) for box in parts[idx]
            )
            for idx in (1, 2)
        }
        small = measure_core.MarginalTable(
            (1,), tuple(((parts[1][i],), probs[1][i]) for i in range(2))
        )
        large = measure_core.MarginalTable(
            (1, 2),
            tuple(
                ((parts[1][i], parts[2][j]), probs[1][i] * probs[2][j])
                for i in range(2)
                for j in range(2)
            ),
        )
        res = measure_core.consistency_check([small, large])
        if not res.consistent:
            failures.append(f"trial {trial}: consistency check failed: {res.violation}")
        corrupted = measure_core.MarginalTable(
            (1,),
            (
                ((parts[1][0],), (probs[1][0] + 0.1) % 1.0),  # off by 0.1 or 0.9
                ((parts[1][1],), probs[1][1]),
            ),
        )
        res = measure_core.consistency_check([corrupted, large])
        if res.consistent:
            failures.append(f"trial {trial}: corrupted table passed the check")
    notes.append("100 randomized families: multiplicative and consistent")

    report = measure_core.countable_product_measure(
        measure_core.ProductMeasureSpec.identical(measure_core.Uniform1D(0.0, 1.0)),
        measure_core.TailConstraints(tail=measure_core.OneMinusGeometricTail(1.0, 0.5)),
    )
    # independent route: the pentagonal-number expansion of prod (1 - q^k)
    q = 0.5
    oracle = 1.0
    for k in range(1, 60):
        oracle += (-1) ** k * (q ** (k * (3 * k - 1) // 2) + q ** (k * (3 * k + 1) // 2))
    if abs(report.value - oracle) > 1e-9:
        failures.append(f"countable product {report.value!r} vs series oracle {oracle!r}")
    if abs(report.value - 0.288788) > 1e-6:
        failures.append(f"countable product {report.value:.9f} not 0.288788 within 1e-6")
    if not report.converged:
        failures.append("countable product did not report convergence")
    notes.append(f"prod(1 - 2^-k) = {report.value:.9f} after {report.n_factors} factors")
    return _result("product-measures", failures, notes)


def criterion_bohr_haar(seed: int, full: bool) -> CheckResult:
    """10. Character orthogonality, translation invariance, independence."""
    failures: list[str] = []
    notes: list[str] = []
    gamma3 = bohr.FrequencySet((1.0, math.sqrt(2.0), math.sqrt(3.0)))
    # 8 nodes per axis integrate characters up to frequency 7 exactly
    ortho_method = bohr.QuadratureMethod(points_per_axis=8)
    worst = 0.0
    # orthogonality <chi_a, chi_b> = delta_ab reduces to the integral of
    # the difference character chi_{a-b}; differences range over |d_i| <= 6
    for d1 in range(-6, 7):
        for d2 in range(-6, 7):
            for d3 in range(-6, 7):
                d = np.array([d1, d2, d3], dtype=float)
                res = bohr.haar_cylinder_integral(
                    gamma3, lambda th, d=d: np.exp(1j * (th @ d)), ortho_method
                )
                target = 1.0 if (d1, d2, d3) == (0, 0, 0) else 0.0
                worst = max(worst, abs(res.value - target))
    if worst > 1e-8:
        failures.append(f"character orthogonality deviation {worst:.2e} > 1e-8")
    notes.append(f"orthogonality over |m_i| <= 3 (n = 3): worst {worst:.1e}")

    method = bohr.QuadratureMethod(points_per_axis=16)
    gamma2 = bohr.FrequencySet((1.0, math.sqrt(2.0)))
    rng = np.random.default_rng(derive_seed(seed, 1001))
    worst_inv = 0.0
    for _ in range(20):
        modes = rng.integers(-3, 4, size=(3, 2))
        coeffs = rng.normal(size=3) + 1j * rng.normal(size=3)
        offset = rng.uniform(0.0, 2.0 * math.pi, size=2)

        def f(th, modes=modes, coeffs=coeffs, shift=None):
            point = th if shift is None else th + shift
            return sum(c * np.exp(1j * (point @ m)) for c, m in zip(coeffs, modes))

        base = bohr.haar_cylinder_integral(gamma2, f, method)
        moved = bohr.haar_cylinder_integral(
            gamma2, lambda th: f(th, shift=offset), method
        )
        dev = abs(base.value - moved.value)
        tol = base.error_bound + moved.error_bound + 1e-8
        worst_inv = max(worst_inv, dev)
        if dev > tol:
            failures.append(f"translation moved the integral by {dev:.2e} (tol {tol:.2e})")
    notes.append(f"translation invariance on 20 offsets: worst {worst_inv:.1e}")

    res = bohr.independence_check(gamma2, 100)
    if not res.independent:
        failures.append(f"{{1, sqrt2}} reported dependent with witness {res.witness}")
    notes.append("{1, sqrt2} certified independent up to coefficient bound 100")
    return _result("bohr-haar", failures, notes)


def criterion_determinism(seed: int, full: bool) -> CheckResult:
    """11. Stochastic payloads are byte-identical under a repeated seed."""
    failures: list[str] = []

    def payload_bytes(build: Callable[[], object]) -> str:
        return json.dumps(jsonio.encode_value(build()), sort_keys=True)

    probes: tuple[tuple[str, Callable[[], object]], ...] = (
        (
            "gaussian sample",
            lambda: gaussian.sample(Constant(1.0), 16, derive_seed(seed, 1101)).values,
        ),
        (
            "tail growth",
            lambda: support.mc_tail_growth(
                Constant(1.0), PowerDecay(1.0, 1.0), 200, 100, derive_seed(seed, 1102)
            ),
        ),
        (
            "haar mc integral",
            lambda: bohr.haar_cylinder_integral(
                bohr.FrequencySet((1.0, math.sqrt(2.0))),
                lambda th: np.exp(1j * th[..., 0]),
                bohr.MCMethod(10_000, derive_seed(seed, 1103)),
            ),
        ),
        (
            "pushforward mc",
            lambda: measure_core.pushforward_integral_mc(
                measure_core.ProductSampler(
                    measure_core.ProductMeasureSpec.identical(measure_core.Gaussian1D(1.0)), 2
                ),
                lambda x: x,
                lambda u: u[:, 0] + u[:, 1] ** 2,
                50_000,
                derive_seed(seed, 1104),
            ),
        ),
        (
            "mc moment",
            lambda: gaussian.mc_moment(
                Constant(2.0), [FiniteSequence.basis(1)] * 2, 10_000, derive_seed(seed, 1105)
            ),
        ),
    )
    for name, build in probes:
        if payload_bytes(build) != payload_bytes(build):
            failures.append(f"{name}: repeated seed changed the payload")
    return _result("determinism", failures, ["5 stochastic payloads byte-identical"])


CRITERIA: tuple[tuple[str, Callable[[int, bool], CheckResult]], ...] = (
    ("wick-vs-mc", criterion_wick_vs_mc),
    ("odd-moments", criterion_odd_moments),
    ("pairing-counts", criterion_pairing_counts),
    ("rn-normalization", criterion_rn_normalization),
    ("equivalence-classifier", criterion_equivalence),
    ("support-diagnostics", criterion_support),
    ("kernel-oracle", criterion_kernel_oracle),
    ("bochner-gram", criterion_bochner_gram),
    ("product-measures", criterion_product_measures),
    ("bohr-haar", criterion_bohr_haar),
    ("determinism", criterion_determinism),
)


def run_selftest(level: str = "full", seed: int = DEFAULT_SEED) -> list[CheckResult]:
    """Run every criterion; ``level`` is "quick" or "full"."""
    if level not in ("quick", "full"):
        raise ValueError(f"level must be 'quick' or 'full', got {level!r}")
    full = level == "full"
    return [fn(seed, full) for _, fn in CRITERIA]
