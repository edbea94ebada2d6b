"""The process that sets up or runs one workload; started by run.py.

    worker.py setup <workload> <seed>
        import the entry module, build the inputs, print {"setup_s": ...}
    worker.py run <workload> <seed> <seconds> <trace 0|1> <trace file>
        run whole rounds until <seconds> have passed, check every output,
        print the counts and the timing summary (or the per-layer figures)

Both print one JSON object as the last line of stdout.
"""

from __future__ import annotations

import gc
import json
import resource
import sys
import time
from array import array

from timing import summary

WORKLOADS = {
    "cli_cold": ("cli_cold", "CliCold"),
    "verdict_sweep": ("verdict_sweep", "VerdictSweep"),
    "numeric_hot": ("numeric_hot", "NumericHot"),
}


class Stats:
    """Attempted and failed operations; failures outside the known fault make the run incorrect."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.unexpected = 0
        self.errors: list[str] = []

    def fail(self, message: str, known: bool = False) -> None:
        self.failed += 1
        if not known:
            self.unexpected += 1
            if len(self.errors) < 20:
                self.errors.append(message)


def load(name: str):
    module, cls = WORKLOADS[name]
    return getattr(__import__(module), cls)


def run(name: str, seed: int, seconds: float, trace: bool, trace_path: str) -> dict:
    workload = load(name)(seed)
    workload.prepare()
    # the inputs and expected values live for the whole run; keep them out of
    # the collector's way so its pauses reflect the program's own garbage
    gc.collect()
    gc.freeze()
    tracer = None
    if trace:
        from spans import Tracer

        tracer = Tracer()
    samples = array("d")
    stats = Stats()
    rounds = 0
    start = time.perf_counter()
    while rounds == 0 or time.perf_counter() - start < seconds:
        workload.run_round(samples, stats, tracer)
        rounds += 1
    elapsed = time.perf_counter() - start
    # read the high-water mark before the summary sorts the samples
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if name == "cli_cold" else resource.RUSAGE_SELF)
    result = {
        "attempted": stats.attempted,
        "failed": stats.failed,
        "unexpected": stats.unexpected,
        "errors": stats.errors,
        "rounds": rounds,
        "elapsed_s": elapsed,
        "timing": summary(samples, workload.window, workload.sustained_pct),
    }
    if not trace:
        result["ops_per_s"] = len(samples) / elapsed  # the plain rate, printed on stderr only
        result["peak_rss_mb"] = usage.ru_maxrss / 1024.0
        return result

    # every traced run yields every per-layer figure: the other workloads
    # contribute a short traced probe each
    probe_stats = Stats()
    probe_stats.attempted = stats.attempted
    per_layer = {}
    for other in WORKLOADS:
        w = workload if other == name else load(other)(seed)
        if w is not workload:
            w.prepare()
        w.probe(tracer, probe_stats)
        per_layer.update(w.layer_metrics(tracer))
    result["unexpected"] += probe_stats.unexpected
    result["errors"] += probe_stats.errors
    result["per_layer"] = per_layer
    tracer.write(trace_path)
    return result


def main(argv: list[str]) -> int:
    mode, name, seed = argv[0], argv[1], int(argv[2])
    if mode == "setup":
        start = time.perf_counter()
        load(name)(seed)
        print(json.dumps({"setup_s": time.perf_counter() - start}))
        return 0
    seconds, trace, trace_path = float(argv[3]), argv[4] == "1", argv[5]
    print(json.dumps(run(name, seed, seconds, trace, trace_path)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
