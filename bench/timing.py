"""The timing figures reported from the operation times of one run.

The host this benchmark runs on is a shared VM whose speed moves between
states up to 1.9x apart: a fast state whose level itself drifts from
minute to minute, and a contended state that comes back at much the same
level in every run.  The share of a run spent in each state changes from
run to run, so the plain median of a run follows that share, not the
program.  The sustained median is read from windows of a fixed number of
consecutive operations, each window with the same mix of operation kinds:
the median operation time of each window, taken at the run's
90th-percentile window.  It reports the level the program keeps up
through the slower phases of a run, which is the steady one.

A workload whose single operation outlasts the host's speed states (a cold
process of about a second) reads its windows at the median instead: each
sample already averages the states, and its 90th percentile would be one
of the three slowest of a few dozen samples.
"""

from __future__ import annotations

import statistics

# op_tail_s is the highest of these percentiles that leaves at least ten
# samples beyond it; with fewer than forty samples that is the median.  The
# ladder stops at p99: on a shared VM the slowest 0.1% of microsecond calls
# are host preemptions of several milliseconds, not the program.
TAIL_LADDER = (99.0, 95.0, 90.0, 75.0, 50.0)


def nearest_rank(sorted_values, pct: float) -> float:
    n = len(sorted_values)
    rank = max(1, -(-n * pct // 100))  # ceil(n * pct / 100)
    return sorted_values[int(rank) - 1]


def summary(samples, window: int, pct: float) -> dict:
    """Plain median and tail of ``samples``, and their sustained median.

    The sustained median is the ``pct`` percentile (nearest rank) of the
    medians of consecutive windows of ``window`` samples; a partial last
    window is left out.
    """
    n = len(samples)
    values = sorted(samples)
    tail_pct = next((p for p in TAIL_LADDER if n * (100 - p) / 100 >= 10), 50.0)
    p50 = statistics.median(values)
    medians = sorted(statistics.median(samples[i:i + window]) for i in range(0, n - window + 1, window))
    return {
        "n": n,
        "p50": p50,
        "tail_pct": tail_pct,
        "tail": p50 if tail_pct == 50.0 else nearest_rank(values, tail_pct),
        "windows": len(medians),
        "p50_sustained": nearest_rank(medians, pct),
    }
