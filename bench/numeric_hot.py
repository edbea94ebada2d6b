"""numeric_hot: one pass over a fixed table of library hot paths.

One operation is one pass: a Wick moment, a massive-free bilinear form,
an integer-relation search, a torus quadrature, a Monte Carlo tail-growth
run and a slow countable product, in that order.  The sizes are fixed so
that each kind takes a comparable share of a pass; the seed changes the
data, never the amount of work.  Nothing here goes through ``cli`` or
``jsonio``.
"""

from __future__ import annotations

import dataclasses
import math
import random
import time
import tracemalloc
from decimal import Decimal

import oracles

WICK_FACTORS = 18
GRID_POINTS = 1201
RELATION_PRIMES = 4
RELATION_BOUND = 15
TORUS_AXES = 4
TORUS_POINTS = 10
MC_COORDS = 1000
MC_SAMPLES = 800
TAIL = ("0.01", "0.9997")  # 1 - c q^k: about 7.7e4 factors before c q^k <= 1e-12

PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59)
SPANS = (
    ("gaussian.wick_moment", "gaussian.wick_moment_s"),
    ("kernels.covariance_bilinear", "kernels.covariance_bilinear_s"),
    ("bohr.independence_check", "bohr.independence_check_s"),
    ("bohr.haar_integral", "bohr.haar_integral_s"),
    ("support.mc_tail_growth", "support.mc_tail_growth_s"),
    ("measure_core.countable_product", "measure_core.countable_product_s"),
)


class NumericHot:
    name = "numeric_hot"
    # sustained figures: windows of one pass, read at the 90th percentile
    window = 1
    sustained_pct = 90.0

    def __init__(self, seed: int) -> None:
        import cylmeasure as cm
        import numpy as np

        rng = random.Random(seed)

        # Wick: basis vectors over four coordinates, even multiplicities
        counts = {i: 2 for i in range(1, 5)}
        for _ in range((WICK_FACTORS - 8) // 2):
            counts[rng.randint(1, 4)] += 2
        self.wick_counts = counts
        self.wick_cov = {"power": {"c": rng.choice(("0.5", "1", "2")), "p": rng.choice(("0.5", "1", "1.5"))}}
        vectors = [cm.FiniteSequence.basis(i) for i, m in counts.items() for _ in range(m)]
        rng.shuffle(vectors)
        wick_cov = cm.PowerDecay(float(self.wick_cov["power"]["c"]), float(self.wick_cov["power"]["p"]))

        # bilinear form on a uniform grid
        x0, dx = -6.0, 12.0 / (GRID_POINTS - 1)
        a, b = rng.uniform(-1, 1), rng.uniform(-1, 1)
        xs = [x0 + dx * i for i in range(GRID_POINTS)]
        f = cm.GridFunction(x0, dx, GRID_POINTS, tuple(math.exp(-((x - a) ** 2)) for x in xs))
        g = cm.GridFunction(x0, dx, GRID_POINTS, tuple(1.0 / (1.0 + (x - b) ** 2) for x in xs))
        self.mass = rng.choice((0.5, 1.0, 2.0))
        kernel = cm.MassiveFree1D(self.mass)

        # integer relations among square roots of distinct primes
        primes = rng.sample(PRIMES, RELATION_PRIMES)
        self.relation_exprs = [{p: 1} for p in primes]
        relation_freqs = cm.FrequencySet(tuple(math.sqrt(p) for p in primes))

        # torus quadrature of exp(i m.theta) + 1
        self.modes = [0] * TORUS_AXES
        while not any(self.modes):
            self.modes = [rng.randint(-4, 4) for _ in range(TORUS_AXES)]
        m = np.asarray(self.modes, dtype=float)
        torus = cm.FrequencySet(tuple(math.sqrt(p) for p in rng.sample(PRIMES, TORUS_AXES)))
        quadrature = cm.QuadratureMethod(TORUS_POINTS)

        def integrand(theta):
            return np.exp(1j * (theta @ m)) + 1.0

        # Monte Carlo tail growth of a convergent weighted series
        self.mc_cov = {"constant": {"rho": rng.choice(("0.5", "1", "2"))}}
        self.mc_weights = {"power": {"c": "1", "p": rng.choice(("0.75", "1", "1.5"))}}
        mc_cov = cm.Constant(float(self.mc_cov["constant"]["rho"]))
        mc_weights = cm.PowerDecay(1.0, float(self.mc_weights["power"]["p"]))
        mc_seed = rng.getrandbits(63)

        # countable product: a prefix box, then the slow 1 - c q^k tail
        self.prefix_width = rng.choice(("0.25", "0.5", "0.75"))
        spec = cm.ProductMeasureSpec.identical(cm.Uniform1D(0.0, 1.0))
        constraints = cm.TailConstraints(
            prefix=cm.CylinderSet.from_boxes({1: [(0.0, float(self.prefix_width))]}),
            tail=cm.OneMinusGeometricTail(float(TAIL[0]), float(TAIL[1])),
        )

        self.calls = (
            lambda: cm.wick_moment(wick_cov, vectors),
            lambda: cm.covariance_bilinear(kernel, f, g),
            lambda: cm.independence_check(relation_freqs, RELATION_BOUND),
            lambda: cm.haar_cylinder_integral(torus, integrand, quadrature),
            lambda: cm.mc_tail_growth(mc_cov, mc_weights, MC_COORDS, MC_SAMPLES, mc_seed),
            lambda: cm.countable_product_measure(spec, constraints),
        )
        self._grid_values = (f.values, g.values, dx)

    def prepare(self) -> None:
        """Oracle values, then one untimed pass that also fixes the seeded reports."""
        rho = {i: oracles.seq_value(self.wick_cov, i) for i in self.wick_counts}
        self.wick_truth = oracles.basis_moment(self.wick_counts, rho)
        fv, gv, dx = self._grid_values
        self.bilinear_truth = oracles.massive_free_bilinear(self.mass, dx, fv, gv)
        self.relation_truth = oracles.minimal_relation(self.relation_exprs, RELATION_BOUND)
        self.mc_truth = oracles.weighted_partial_sum(self.mc_cov, self.mc_weights, MC_COORDS)
        self.product_truth = Decimal(self.prefix_width) * oracles.geometric_tail_product(*TAIL)
        self.first_mc = None
        results = [call() for call in self.calls]
        self.first_mc = results[4]
        errors = self.errors(results)
        if errors:
            raise RuntimeError(f"numeric_hot warm-up pass is wrong: {errors}")

    def errors(self, results) -> list[str]:
        wick, bilinear, relation, haar, mc, product = results
        out = []
        if not oracles.close(wick, self.wick_truth, 1e-10):
            out.append(f"wick_moment {wick!r} != {self.wick_truth!r}")
        if not oracles.close(bilinear, self.bilinear_truth, 1e-9):
            out.append(f"covariance_bilinear {bilinear!r} != {self.bilinear_truth!r}")
        witness = relation.witness
        if relation.independent != (self.relation_truth is None) or (
            witness is not None and tuple(witness) != self.relation_truth
        ):
            out.append(f"independence_check {relation} != {self.relation_truth}")
        if abs(haar.value - oracles.character_mean(self.modes) - 1) > 1e-12 or not haar.error_bound < 1e-9:
            out.append(f"haar_cylinder_integral {haar}")
        problem = oracles.tail_growth_error(dataclasses.asdict(mc), self.mc_truth)
        if problem or (self.first_mc is not None and mc != self.first_mc):
            out.append(f"mc_tail_growth {problem or 'differs from the first pass under the same seed'}")
        problem = oracles.product_report_error(dataclasses.asdict(product), *TAIL, self.product_truth)
        if problem:
            out.append(f"countable_product_measure {problem}")
        return out

    def run_round(self, samples, stats, tracer=None) -> None:
        clock = time.perf_counter
        op = stats.attempted
        stats.attempted += 1
        try:
            if tracer is None:
                t0 = clock()
                results = [call() for call in self.calls]
                samples.append(clock() - t0)
            else:
                results = self._traced(tracer, op, samples)
        except Exception as exc:  # a raising call is a failed operation
            stats.fail(f"pass raised {exc!r}")
            return
        errors = self.errors(results)
        if errors:
            stats.fail("; ".join(errors))

    def _traced(self, tracer, op: int, samples) -> list:
        root = tracer.begin("numeric.pass", op)
        results = []
        for call, (span, _) in zip(self.calls, SPANS):
            if span == "kernels.covariance_bilinear":
                tracemalloc.start()
                with tracer.span(span, op, root):
                    results.append(call())
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                tracer.counters.setdefault("bilinear_peak", []).append(peak / 2**20)
            else:
                with tracer.span(span, op, root):
                    results.append(call())
        tracer.finish(root)
        samples.append(tracer.end[root] - tracer.start[root])
        tracer.counters["factors_used"] = results[5].n_factors
        return results

    def probe(self, tracer, stats) -> None:
        for _ in range(3):
            self.run_round([], stats, tracer)

    def layer_metrics(self, tracer) -> dict:
        out = {metric: (tracer.median(span), "s") for span, metric in SPANS}
        peaks = sorted(tracer.counters["bilinear_peak"])
        out["kernels.covariance_bilinear_alloc_mb"] = (peaks[len(peaks) // 2], "MB")
        out["measure_core.factors_used"] = (tracer.counters["factors_used"], "count")
        return out
