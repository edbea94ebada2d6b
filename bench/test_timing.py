"""The run summary reads windows of consecutive operations.

    python -m pytest bench/test_timing.py
"""

from timing import nearest_rank, summary


def test_nearest_rank():
    values = list(range(1, 11))
    assert nearest_rank(values, 90.0) == 9
    assert nearest_rank(values, 10.0) == 1
    assert nearest_rank(values, 50.0) == 5
    assert nearest_rank([7.0], 99.0) == 7.0


def test_sustained_median_reads_the_slow_windows():
    # nine fast windows of four 1 ms operations, one slow window at 2 ms
    samples = [0.001] * 36 + [0.002] * 4
    out = summary(samples, 4, 90.0)
    assert out["windows"] == 10
    assert out["p50"] == 0.001
    assert out["p50_sustained"] == 0.001  # the 9th of ten window medians
    assert summary(samples, 4, 95.0)["p50_sustained"] == 0.002


def test_a_window_holds_the_whole_mix():
    # alternating 1 ms and 3 ms kinds: every window of four has median 2 ms,
    # while windows of one read the kinds themselves
    samples = [0.001, 0.003] * 20
    assert summary(samples, 4, 90.0)["p50_sustained"] == 0.002
    assert summary(samples, 1, 90.0)["p50_sustained"] == 0.003


def test_a_partial_last_window_is_left_out():
    out = summary([0.001] * 10, 4, 90.0)
    assert out["windows"] == 2 and out["n"] == 10


def test_tail_ladder():
    out = summary([0.001 * (i + 1) for i in range(1000)], 1, 50.0)
    assert out["tail_pct"] == 99.0 and out["tail"] == 0.001 * 990
    out = summary([0.001] * 39, 1, 50.0)
    assert out["tail_pct"] == 50.0 and out["tail"] == out["p50"]
