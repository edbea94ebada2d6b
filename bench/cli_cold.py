"""cli_cold: one fresh ``python -m cylmeasure`` process per operation.

A round runs the twelve payload subcommands once each, with small seeded
inputs, so compute is a few milliseconds at most and the time is what a
shell user waits for: interpreter start, imports, parsing, output.  The
two stochastic subcommands then run once more with the same seed and must
print byte-identical payloads.  Every stdout is parsed as strict RFC 8259
JSON and its payload is checked against an oracle.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import statistics
import subprocess
import sys
import time

import oracles
from verdict_sweep import GRID, equivalence_pair, random_decay

PRIMES = (2, 3, 5, 7, 11, 13, 17, 19)
IMPORT_PROBES = 5
WARM_PASSES = 5
CALL_TIMEOUT_S = 60

_IMPORT_PROBE = (
    "import sys, time\n"
    "before = len(sys.modules)\n"
    "t0 = time.perf_counter()\n"
    "import cylmeasure.cli\n"
    "print(time.perf_counter() - t0, len(sys.modules) - before)\n"
)


def _canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


class CliCold:
    name = "cli_cold"
    # sustained figures: windows of one process, read at the median (a
    # process outlasts the host's speed states; see timing.py)
    window = 1
    sustained_pct = 50.0

    def __init__(self, seed: int) -> None:
        import cylmeasure.cli  # noqa: F401  the entry module of `python -m cylmeasure`

        rng = random.Random(seed)
        pick = rng.choice
        self.ops = []  # (argv, check(payload) -> error or None, seeded: payload must repeat)

        cov = {"power": {"c": pick(("0.5", "1", "2")), "p": pick(("0.5", "1", "2"))}}
        prog_seed = rng.getrandbits(63)
        self._add(["sample", "--cov", oracles.to_json(cov), "--n", "16", "--seed", str(prog_seed)],
                  lambda p: self._sample_error(p, prog_seed), seeded=True)

        cov = pick(({"constant": {"rho": pick(("0.5", "2"))}}, {"power": {"c": "1", "p": pick(("0.5", "1"))}}))
        xi = [[1, pick(("0.5", "-1", "1.5"))], [3, pick(("0.5", "-1", "1.5"))]]
        inner = sum(oracles.seq_value(cov, i) * float(v) ** 2 for i, v in xi)
        self._add(["chi", "--cov", oracles.to_json(cov), "--xi", oracles.to_json({"entries": xi})],
                  lambda p: None if oracles.close(p["inner"], inner, 1e-12)
                  and oracles.close(p["chi"], math.exp(-0.5 * inner), 1e-12) else f"chi {p}")

        cov = {"power": {"c": pick(("0.5", "1", "2")), "p": pick(("0.5", "1"))}}
        counts = {1: rng.randint(1, 4), 2: rng.randint(1, 4)}
        moment = oracles.basis_moment(counts, {i: oracles.seq_value(cov, i) for i in counts})
        vectors = ",".join(f"e{i}" for i, m in counts.items() for _ in range(m))
        self._add(["moment", "--cov", oracles.to_json(cov), "--vectors", vectors],
                  lambda p: None if oracles.close(p["moment"], moment, 1e-12) else f"moment {p} != {moment}")

        cov = {"constant": {"rho": pick(("0.5", "1", "2"))}}
        shift = [[1, pick(("0.5", "-1", "1.5"))], [2, pick(("0.5", "-1", "1.5"))]]
        x = [pick(("-1", "0.25", "2")) for _ in range(3)]
        rho = float(cov["constant"]["rho"])
        density = math.exp(sum(float(x[i - 1]) * float(y) / rho - 0.5 * float(y) ** 2 / rho for i, y in shift))
        self._add(["rn-density", "--cov", oracles.to_json(cov), "--shift", oracles.to_json({"entries": shift}),
                   "--x", oracles.to_json(x)],
                  lambda p: None if oracles.close(p["density"], density, 1e-12) else f"rn-density {p} != {density}")

        shift = {"power": {"c": pick(("0.5", "1", "2")), "p": pick(GRID)}}
        cov = pick(({"constant": {"rho": "1"}}, {"geometric": {"c": "1", "q": "0.5"}},
                    {"constant_plus_power": {"base": "1", "c": "1", "p": pick(GRID)}}))
        admissible = oracles.shift_admissible(shift, cov)
        self._add(["shift-admissible", "--cov", oracles.to_json(cov), "--shift", oracles.to_json(shift)],
                  lambda p: None if p == {"admissible": admissible} else f"shift-admissible {p}")

        a, b = equivalence_pair(rng)
        verdict, series = oracles.equivalence(a, b)
        lo, hi = oracles.ratio_range(a, b)
        self._add(["equivalence", "--cov-a", oracles.to_json(a), "--cov-b", oracles.to_json(b)],
                  lambda p: None if (p["verdict"], p["series"]) == (verdict, series)
                  and oracles.close(p["ratio_inf"], lo, 1e-12) and oracles.close(p["ratio_sup"], hi, 1e-12)
                  else f"equivalence {p} != {verdict}")

        cov = {"constant": {"rho": pick(("0.5", "1", "2"))}}
        weights = {"power": {"c": "1", "p": pick(("0.75", "1", "1.5"))}}
        report = dict(zip(("verdict", "series"), oracles.support(cov, weights)), partial_sums=None)
        exact = oracles.weighted_partial_sum(cov, weights, 1000)
        mc_seed = rng.getrandbits(63)
        self._add(["support", "--cov", oracles.to_json(cov), "--weights", oracles.to_json(weights),
                   "--mc", "1000", "100", "--seed", str(mc_seed)],
                  lambda p: None if p["report"] == report and not oracles.tail_growth_error(p["mc"], exact)
                  else f"support {p['report']} / {oracles.tail_growth_error(p['mc'], exact)}", seeded=True)

        h = random_decay(rng)
        hs = oracles.hilbert_schmidt(h)
        self._add(["hs-check", "--weights", oracles.to_json(h)],
                  lambda p: None if p == {"hilbert_schmidt": hs} else f"hs-check {p}")

        m, at = pick(("0.5", "1", "2")), pick(("0", "0.5", "1.5"))
        kernel = oracles.massive_free(float(m), float(at))
        self._add(["kernel", "--fourier", m, at, "--cutoff", "1e7", "--tol", "1e-6"],
                  lambda p: None if abs(p["value"] - kernel) <= p["error_bound"] <= 1e-6
                  else f"kernel {p} vs {kernel}")

        p1, p2 = rng.sample(PRIMES, 2)
        exprs = [{p1: 1}, {p2: 1}, {p1: rng.randint(1, 2), p2: rng.randint(1, 2)}]
        freqs = ",".join(repr(oracles.sqrt_sum(e)) for e in exprs)
        witness = oracles.minimal_relation(exprs, 5)
        self._add(["bohr", "--freqs", freqs, "--check-independence", "5"],
                  lambda p: None if p == {"bound": 5, "independent": False, "witness": list(witness)}
                  else f"bohr {p} != {witness}")

        width = pick(("0.25", "0.5", "0.75"))
        truth = oracles.Decimal(width) * oracles.euler_product("0.5")
        prefix = {"base": [{"index": 1, "boxes": [["0", width]]}]}
        self._add(["product", "--spec", '{"identical":{"uniform":{"a":0,"b":1}}}', "--prefix",
                   oracles.to_json(prefix), "--tail", '{"one_minus_geometric":{"c":1,"q":0.5}}'],
                  lambda p: oracles.product_report_error(p, "1", "0.5", truth))

        small, large = self._marginals(rng)
        consistent = oracles.marginals_consistent(small, large)
        doc = [
            {"indices": [1], "cells": [{"boxes": [[list(b1)]], "p": v} for b1, v in small.items()]},
            {"indices": [1, 2], "cells": [{"boxes": [[list(b1)], [list(b2)]], "p": v} for (b1, b2), v in large.items()]},
        ]
        self._add(["consistency", "--marginals", oracles.to_json(doc)],
                  lambda p: None if p["consistent"] is consistent and (p["violation"] is None) == consistent
                  else f"consistency {p}, expected {consistent}")
        self.ops += [op for op in self.ops if op[2]]

    def _add(self, argv, check, seeded=False) -> None:
        self.ops.append((argv, check, seeded))

    @staticmethod
    def _sample_error(p, seed) -> str | None:
        values = p["values"]
        if p["truncation"] != 16 or p["seed"] != seed or len(values) != 16:
            return f"sample {p}"
        if not all(isinstance(v, float) and math.isfinite(v) for v in values):
            return f"sample values {values}"
        return None

    @staticmethod
    def _marginals(rng: random.Random) -> tuple[dict, dict]:
        """A (1,) and a (1,2) table of dyadic probabilities, sometimes with mass moved."""
        halves = (("0", "0.5"), ("0.5", "1"))
        a = rng.choice((1, 2, 3))
        b = rng.choice((1, 2, 3))
        p1 = {halves[0]: a, halves[1]: 4 - a}
        large = {(h1, h2): p1[h1] * (b if h2 == halves[0] else 4 - b) for h1 in halves for h2 in halves}
        if rng.random() < 0.5:
            large[(halves[0], halves[0])] += 1
            large[(halves[1], halves[1])] -= 1
        small = {h: str(v / 4) for h, v in p1.items()}
        return small, {k: str(v / 16) for k, v in large.items()}

    def prepare(self) -> None:
        self.payloads: dict[tuple, str] = {}

    def run_round(self, samples, stats, tracer=None) -> None:
        clock = time.perf_counter
        for argv, check, seeded in self.ops:
            op = stats.attempted
            stats.attempted += 1
            span = tracer.begin("cli.process", op) if tracer else None
            t0 = clock()
            try:
                proc = subprocess.run([sys.executable, "-m", "cylmeasure", *argv], capture_output=True,
                                      text=True, timeout=CALL_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                stats.fail(f"{argv[0]} timed out")
                continue
            finally:
                if tracer:
                    tracer.finish(span)
            samples.append(clock() - t0)
            problem = self._problem(argv, proc.returncode, proc.stdout, proc.stderr, check, seeded)
            if problem:
                stats.fail(f"{' '.join(argv)}: {problem}")

    def _problem(self, argv, code, out, err, check, seeded) -> str | None:
        if code != 0:
            return f"exit {code}: {err.strip()[-300:]}"
        try:
            envelope = oracles.strict_json(out)
            payload = envelope["payload"]
            problem = check(payload)
        except (ValueError, KeyError, TypeError) as exc:
            return f"bad output {exc!r}: {out[:300]}"
        if problem:
            return problem
        text = _canonical(payload)
        if text not in out:
            return "payload is not printed canonically"
        if seeded and self.payloads.setdefault(tuple(argv), text) != text:
            return "payload differs from an earlier call with the same seed"
        return None

    # -- per-layer figures ------------------------------------------------------

    def probe(self, tracer, stats) -> None:
        """Fresh-import probes, then warm in-process cli.main calls on the round."""
        import cylmeasure.cli as cli

        for _ in range(IMPORT_PROBES):
            out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], capture_output=True, text=True,
                                 timeout=CALL_TIMEOUT_S, check=True).stdout.split()
            tracer.counters.setdefault("import_s", []).append(float(out[0]))
            tracer.counters.setdefault("modules", []).append(int(out[1]))

        real = cli.build_envelope
        calls = []  # (op, root span) of the cli.main call in progress

        def spy(args):
            with tracer.span("cli.build_envelope", *calls[-1]):
                return real(args)

        cli.build_envelope = spy
        try:
            for _ in range(WARM_PASSES + 1):
                for argv, _, _ in self.ops:
                    op = stats.attempted
                    stats.attempted += 1
                    with contextlib.redirect_stdout(io.StringIO()):
                        calls.append((op, tracer.begin("cli.main", op)))
                        code = cli.main(list(argv))
                        tracer.finish(calls[-1][1])
                    if code != 0:
                        stats.fail(f"warm cli.main {argv[0]} exit {code}")
        finally:
            cli.build_envelope = real
        # the first pass warms caches; parse time is main minus its envelope call
        first = len(self.ops)
        main = tracer.durations("cli.main")[first:]
        envelope = tracer.durations("cli.build_envelope")[first:]
        tracer.counters["parse_s"] = [m - e for m, e in zip(main, envelope)]

    def layer_metrics(self, tracer) -> dict:
        return {
            "cli.import_s": (statistics.median(tracer.counters["import_s"]), "s"),
            "cli.modules_loaded": (statistics.median(tracer.counters["modules"]), "count"),
            "cli.parse_s": (statistics.median(tracer.counters["parse_s"]), "s"),
        }
