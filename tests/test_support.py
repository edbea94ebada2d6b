import math
import tracemalloc

import numpy as np
import pytest

from cylmeasure.errors import InputError, UndecidableError
from cylmeasure.gaussian import mc_mean
from cylmeasure.sequences import (
    Constant,
    Geometric,
    PowerDecay,
    Prefixed,
    Tabulated,
)
from cylmeasure import support
from cylmeasure.support import (
    Support,
    TailGrowthReport,
    hilbert_schmidt_check,
    mc_tail_growth,
    weighted_support_check,
)


class TestHilbertSchmidt:
    def test_inverse_index_is_hs(self):
        assert hilbert_schmidt_check(PowerDecay(1.0, 1.0)) is True

    def test_identity_is_not(self):
        assert hilbert_schmidt_check(Constant(1.0)) is False

    def test_geometric_is_hs(self):
        assert hilbert_schmidt_check(Geometric(1.0, 0.9)) is True

    def test_threshold_power(self):
        # sum n^-2p converges iff p > 1/2
        assert hilbert_schmidt_check(PowerDecay(1.0, 0.51)) is True
        assert hilbert_schmidt_check(PowerDecay(1.0, 0.5)) is False

    def test_positivity_required(self):
        with pytest.raises(InputError):
            hilbert_schmidt_check(Constant(-1.0))

    def test_tabulated_undecidable(self):
        with pytest.raises(UndecidableError):
            hilbert_schmidt_check(Tabulated((0.5, 0.25)))


class TestWeightedSupport:
    def test_inverse_index_weights_supported(self):
        for rho in (0.5, 1.0, 4.0):
            report = weighted_support_check(Constant(rho), PowerDecay(1.0, 1.0))
            assert report.verdict is Support.SUPPORTED

    def test_flat_weights_not_supported(self):
        report = weighted_support_check(Constant(1.0), Constant(1.0))
        assert report.verdict is Support.NOT_SUPPORTED
        assert report.series == "diverges"

    def test_geometric_weights_supported(self):
        report = weighted_support_check(Constant(1.0), Geometric(1.0, 0.5))
        assert report.verdict is Support.SUPPORTED

    def test_flat_weights_follow_the_variance_series(self):
        # with a_n = 1 the question reduces to summability of rho itself
        assert (
            weighted_support_check(PowerDecay(1.0, 2.0), Constant(1.0)).verdict
            is Support.SUPPORTED
        )
        assert (
            weighted_support_check(PowerDecay(1.0, 1.0), Constant(1.0)).verdict
            is Support.NOT_SUPPORTED
        )

    def test_prefix_never_changes_the_verdict(self):
        report = weighted_support_check(
            Prefixed((100.0, 100.0), Constant(1.0)), PowerDecay(1.0, 1.0)
        )
        assert report.verdict is Support.SUPPORTED

    @pytest.mark.parametrize(
        "cov,a,combined",
        [
            (Constant(4.0), PowerDecay(1.0, 1.0), PowerDecay(2.0, 1.0)),
            (Constant(1.0), Geometric(1.0, 0.5), Geometric(1.0, 0.5)),
            (PowerDecay(4.0, 2.0), Constant(3.0), PowerDecay(6.0, 1.0)),
            (PowerDecay(1.0, 1.0), PowerDecay(1.0, 0.25), PowerDecay(1.0, 0.75)),
            (Geometric(1.0, 0.25), Geometric(1.0, 0.5), Geometric(1.0, 0.25)),
        ],
    )
    def test_agrees_with_hs_check_of_combined_sequence(self, cov, a, combined):
        # the two decision paths must coincide: sum a^2 rho = sum (a sqrt(rho))^2
        report = weighted_support_check(cov, a)
        expected = hilbert_schmidt_check(combined)
        assert (report.verdict is Support.SUPPORTED) == expected

    def test_monotone_in_the_weights(self):
        # shrinking a entrywise never flips supported -> not supported
        supported_pairs = [
            (Constant(1.0), PowerDecay(1.0, 1.0), PowerDecay(0.5, 1.0)),
            (Constant(1.0), Geometric(1.0, 0.5), Geometric(1.0, 0.25)),
            (PowerDecay(1.0, 1.0), PowerDecay(1.0, 0.5), PowerDecay(1.0, 0.75)),
        ]
        for cov, a, smaller in supported_pairs:
            if weighted_support_check(cov, a).verdict is Support.SUPPORTED:
                assert weighted_support_check(cov, smaller).verdict is Support.SUPPORTED

    @pytest.mark.parametrize("cov, a", [
        (Constant(1.0), Tabulated((1.0, 0.5, 0.25, 0.125))),
        (Tabulated((1.0, 0.5, 0.25, 0.125)), Constant(1.0)),
        # the partial sums of this pair overflow; the refusal comes first
        (Tabulated((1e308, 1e308)), Tabulated((1e10, 1e10))),
    ])
    def test_tabulated_input_is_undecidable(self, cov, a):
        with pytest.raises(UndecidableError, match="symbolic decision refused"):
            weighted_support_check(cov, a)


def _report(checkpoints, running, n_coords, n_samples, seed):
    """The report of reference checkpoints and per-sample sums, classified as
    mc_tail_growth documents."""
    final_se = float(running.std(ddof=1) / math.sqrt(n_samples))
    half = checkpoints[len(checkpoints) // 2 - 1][1]
    final = checkpoints[-1][1]
    if half > 0 and final / half >= 1.5:
        xs = np.array([m for m, _ in checkpoints[len(checkpoints) // 2 :]], dtype=float)
        ys = np.array([v for _, v in checkpoints[len(checkpoints) // 2 :]])
        value, kind = float(np.polyfit(xs, ys, 1)[0]), "slope"
    else:
        value, kind = final, "plateau"
    return TailGrowthReport(kind, value, final_se, checkpoints, n_coords, n_samples, seed)


def _prefix_matvec_oracle(cov, a, n_coords, n_samples, seed):
    """Reference mc_tail_growth: the same seeded chunks, with each checkpoint
    mean taken over the samples of a prefix mat-vec up to that mark."""
    rng = np.random.default_rng(seed)
    marks = np.unique((np.arange(1, 17) * n_coords) // 16)
    weights = a.first(n_coords) ** 2 * cov.first(n_coords)
    chunk = max(1, min(n_coords, 10_000_000 // n_samples))
    running = np.zeros(n_samples)
    mean_at_mark = {}
    next_mark = 0
    for start in range(0, n_coords, chunk):
        stop = min(start + chunk, n_coords)
        block_sq = rng.standard_normal((n_samples, stop - start))
        np.square(block_sq, out=block_sq)
        while next_mark < len(marks) and marks[next_mark] <= stop:
            m = int(marks[next_mark])
            partial = running + block_sq[:, : m - start] @ weights[start:m]
            mean_at_mark[m] = float(partial.mean())
            next_mark += 1
        running += block_sq @ weights[start:stop]

    checkpoints = tuple((int(m), mean_at_mark[int(m)]) for m in marks)
    return _report(checkpoints, running, n_coords, n_samples, seed)


def _unblocked_oracle(cov, a, n_coords, n_samples, seed):
    """Reference mc_tail_growth: every chunk drawn as one (n_samples, chunk)
    array, whose column sums and per-sample mat-vec are taken at once."""
    rng = np.random.default_rng(seed)
    weights = a.first(n_coords) ** 2 * cov.first(n_coords)
    chunk = max(1, min(n_coords, 10_000_000 // n_samples))
    running = np.zeros(n_samples)
    col_sums = np.empty(n_coords)
    for start in range(0, n_coords, chunk):
        stop = min(start + chunk, n_coords)
        block_sq = rng.standard_normal((n_samples, stop - start))
        np.square(block_sq, out=block_sq)
        block_sq.sum(axis=0, out=col_sums[start:stop])
        running += block_sq @ weights[start:stop]
    means = np.cumsum(weights * col_sums) / n_samples
    checkpoints = tuple((m, float(means[m - 1])) for m in support._checkpoint_marks(n_coords))
    return _report(checkpoints, running, n_coords, n_samples, seed)


class TestMcTailGrowth:
    def test_flat_weights_grow_linearly(self):
        report = mc_tail_growth(Constant(1.0), Constant(1.0), 4000, 200, seed=31)
        assert report.kind == "slope"
        assert report.value == pytest.approx(1.0, rel=0.05)

    def test_variance_two_doubles_the_slope(self):
        report = mc_tail_growth(Constant(2.0), Constant(1.0), 4000, 200, seed=32)
        assert report.kind == "slope"
        assert report.value == pytest.approx(2.0, rel=0.05)

    def test_inverse_index_weights_plateau(self):
        report = mc_tail_growth(Constant(1.0), PowerDecay(1.0, 1.0), 2000, 4000, seed=33)
        assert report.kind == "plateau"
        assert report.value == pytest.approx(math.pi**2 / 6.0, rel=0.08)

    def test_checkpoints_are_monotone_for_positive_terms(self):
        report = mc_tail_growth(Constant(1.0), Constant(1.0), 500, 150, seed=34)
        values = [v for _, v in report.checkpoints]
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_verdicts_match_the_symbolic_check(self):
        # randomized catalog of linearly divergent vs convergent classes:
        # the empirical curve should agree with the symbolic verdict in at
        # least 19 of 20 seeded trials
        catalog = [
            (Constant(1.0), Constant(1.0)),
            (Constant(2.0), Constant(1.0)),
            (Constant(1.0), PowerDecay(1.0, 1.0)),
            (Constant(1.0), Geometric(1.0, 0.5)),
            (Constant(0.5), Constant(2.0)),
            (Constant(1.0), PowerDecay(1.0, 0.75)),
        ]
        agree = 0
        for trial in range(20):
            cov, a = catalog[trial % len(catalog)]
            symbolic = weighted_support_check(cov, a)
            report = mc_tail_growth(cov, a, 2000, 300, seed=100 + trial)
            if symbolic.verdict is Support.SUPPORTED:
                agree += report.kind == "plateau"
            else:
                agree += report.kind == "slope"
        assert agree >= 19, f"only {agree}/20 verdicts matched"

    def test_logarithmic_divergence_reads_as_plateau(self):
        # sum rho_n a_n^2 = sum 1/n diverges, but too slowly to double
        # between N/2 and N at desk scale; the documented behavior is a
        # plateau classification with the trace left for inspection
        symbolic = weighted_support_check(PowerDecay(1.0, 1.0), Constant(1.0))
        assert symbolic.verdict is Support.NOT_SUPPORTED
        report = mc_tail_growth(PowerDecay(1.0, 1.0), Constant(1.0), 2000, 300, seed=77)
        assert report.kind == "plateau"
        values = [v for _, v in report.checkpoints]
        assert values[-1] > values[0]  # still visibly increasing

    @pytest.mark.parametrize(
        "cov, a, n_coords, n_samples, seed",
        [
            (Constant(1.0), Constant(1.0), 1000, 200, 41),
            (Constant(1.0), PowerDecay(1.0, 1.0), 1234, 150, 42),
            (Constant(2.0), PowerDecay(1.0, 0.75), 101, 100, 43),
            # 1.2e7 draws: two chunks of 1,666 and 334 coordinates
            (Constant(1.0), PowerDecay(1.0, 1.5), 2000, 6000, 44),
        ],
        ids=["slope", "plateau-1234-coords", "plateau-101-coords", "two-chunks"],
    )
    def test_column_sums_match_the_prefix_matvec_oracle(self, cov, a, n_coords, n_samples, seed):
        report = mc_tail_growth(cov, a, n_coords, n_samples, seed)
        expected = _prefix_matvec_oracle(cov, a, n_coords, n_samples, seed)
        assert report.kind == expected.kind
        assert report.final_se == expected.final_se
        assert report.value == pytest.approx(expected.value, rel=1e-12, abs=0)
        assert [m for m, _ in report.checkpoints] == [m for m, _ in expected.checkpoints]
        for (_, got), (_, want) in zip(report.checkpoints, expected.checkpoints):
            assert got == pytest.approx(want, rel=1e-12, abs=0)

    @pytest.mark.parametrize(
        "cov, a, n_coords, n_samples, seed",
        [
            # n_samples = 1 (mod 4): a row block of one row would go to dot, not gemv
            (Constant(1.0), PowerDecay(1.0, 1.0), 5000, 101, 51),
            (Constant(2.0), Constant(1.0), 333, 517, 52),
            (Constant(1.0), PowerDecay(1.0, 0.75), 1000, 800, 53),
            (Constant(1.0), Constant(1.0), 100, 20_001, 54),
            # a last chunk of one column, which numpy sums pairwise
            (Constant(1.0), Constant(1.0), 2001, 5000, 55),
            (Constant(1.0), PowerDecay(1.0, 1.5), 2000, 6000, 56),
        ],
        ids=["5000x101", "333x517", "1000x800", "100x20001", "one-column-chunk", "two-chunks"],
    )
    def test_row_blocks_reproduce_the_unblocked_arithmetic(self, cov, a, n_coords, n_samples, seed):
        report = mc_tail_growth(cov, a, n_coords, n_samples, seed)
        expected = _unblocked_oracle(cov, a, n_coords, n_samples, seed)
        assert report.kind == expected.kind
        assert report.checkpoints == expected.checkpoints
        assert report.value == expected.value
        # another CPU's BLAS kernel may group the mat-vec's rows otherwise
        assert report.final_se == pytest.approx(expected.final_se, rel=1e-15, abs=0)

    def test_row_spans_tile_in_fours_and_never_end_on_one_row(self):
        for n_rows in range(100, 300):
            spans = support._row_spans(n_rows, 16)
            assert [lo for lo, _ in spans[1:]] == [hi for _, hi in spans[:-1]]
            assert spans[0][0] == 0 and spans[-1][1] == n_rows
            assert all(hi - lo == 16 for lo, hi in spans[:-1])
            assert spans[-1][1] - spans[-1][0] > 1
        assert support._row_spans(97, 16)[-1] == (80, 97)

    @pytest.mark.parametrize(
        "n_coords, n_samples",
        # a chunk of 305 columns in 104-row blocks, then a column of 2^15
        # draws, more than one block buffer holds: several runs of numpy's tree;
        # a chunk of 9,765 columns in 4-row blocks, then a column of 1,024
        [(306, 2**15), (9766, 2**10)],
        ids=["tree-runs", "four-row-blocks"],
    )
    def test_one_column_chunk_is_summed_as_numpy_sums_the_whole_column(self, n_coords, n_samples):
        # weights of 1e-30 before the last column vanish from its prefix sum, and
        # a power-of-two sample count divides exactly: the last checkpoint times
        # n_samples is the last column's sum, bit for bit
        chunk = n_coords - 1
        cov = Prefixed((1e-30,) * chunk, Constant(1.0))
        tiny = cov.first(chunk)
        in_order_differs = 0
        # among these seeds, runs cut at 16 or 104 values change a column's sum
        for seed in range(66, 74):
            report = mc_tail_growth(cov, Constant(1.0), n_coords, n_samples, seed)
            rng = np.random.default_rng(seed)
            running = np.zeros(n_samples)
            for lo in range(0, n_samples, 64):  # the chunk before, drawn in the same order
                block = rng.standard_normal((min(64, n_samples - lo), chunk)) ** 2
                running[lo : lo + len(block)] = block @ tiny
            column = rng.standard_normal(n_samples) ** 2
            running += column * 1.0
            assert report.checkpoints[-1][1] * n_samples == column.sum(), seed
            assert report.final_se == mc_mean(running)[1], seed
            in_order_differs += bool(np.cumsum(column)[-1] != column.sum())
        assert in_order_differs >= 4  # the columns tell summation orders apart

    def test_draws_held_at_once_do_not_grow_with_the_sample_count(self):
        # 10^7 draws in 5 chunks of 2,000 columns, each drawn 16 rows at a time;
        # unblocked, one chunk alone was 80 MB
        mc_tail_growth(Constant(1.0), Constant(1.0), 100, 100, seed=1)  # warm imports
        tracemalloc.start()
        try:
            mc_tail_growth(Constant(1.0), PowerDecay(1.0, 1.0), 2000, 5000, seed=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    def test_vectors_held_at_once_stay_few_per_coordinate(self):
        # the weights with the factors they are formed from, and the column
        # sums, which become the prefix sums in place: about 40 bytes a
        # coordinate, where a cumsum and its quotient as two more N-vectors
        # took 56
        n_coords = 200_000
        mc_tail_growth(Constant(1.0), Constant(1.0), 100, 100, seed=1)  # warm imports
        tracemalloc.start()
        try:
            mc_tail_growth(Constant(1.0), PowerDecay(1.0, 1.0), n_coords, 100, seed=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 48 * n_coords

    def test_checkpoint_marks_match_np_unique(self):
        # the marks are plain ints, without np.unique (which imports numpy.ma)
        for n_coords in range(100, 2001):
            want = np.unique((np.arange(1, 17) * n_coords) // 16).tolist()
            assert support._checkpoint_marks(n_coords) == want, n_coords
        report = mc_tail_growth(Constant(1.0), Constant(1.0), 1234, 100, seed=5)
        marks = [m for m, _ in report.checkpoints]
        assert marks == support._checkpoint_marks(1234)
        assert all(type(m) is int for m in marks)

    def test_input_floors(self):
        with pytest.raises(InputError):
            mc_tail_growth(Constant(1.0), Constant(1.0), 50, 200, seed=1)
        with pytest.raises(InputError):
            mc_tail_growth(Constant(1.0), Constant(1.0), 200, 50, seed=1)

    def test_seed_determinism(self):
        a = mc_tail_growth(Constant(1.0), PowerDecay(1.0, 1.0), 300, 120, seed=9)
        b = mc_tail_growth(Constant(1.0), PowerDecay(1.0, 1.0), 300, 120, seed=9)
        assert a.checkpoints == b.checkpoints and a.value == b.value
