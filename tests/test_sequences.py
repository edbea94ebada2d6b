import numpy as np
import pytest
from hypothesis import given, strategies as st

from cylmeasure.errors import InputError, UndecidableError
from cylmeasure.sequences import (
    Constant,
    ConstantPlusPower,
    FiniteSequence,
    Geometric,
    PowerDecay,
    Prefixed,
    Tabulated,
    leading_difference,
    require_positive,
    summable,
)


class TestFiniteSequence:
    def test_canonical_form_drops_zeros_and_sorts(self):
        fs = FiniteSequence(((4, 0.0), (2, 1.0), (7, -3.0)))
        assert fs.entries == ((2, 1.0), (7, -3.0))
        assert fs.support == (2, 7)
        assert fs.max_index == 7

    def test_absent_index_reads_zero(self):
        fs = FiniteSequence(((3, 2.0),))
        assert fs.value(3) == 2.0
        assert fs.value(1) == 0.0

    def test_duplicate_index_rejected(self):
        with pytest.raises(InputError):
            FiniteSequence(((1, 1.0), (1, 2.0)))

    def test_index_zero_rejected(self):
        with pytest.raises(InputError):
            FiniteSequence(((0, 1.0),))

    def test_from_pairs_accumulates(self):
        fs = FiniteSequence.from_pairs([(1, 1.0), (1, 2.0), (2, -1.0)])
        assert fs.entries == ((1, 3.0), (2, -1.0))

    def test_arithmetic(self):
        a = FiniteSequence.basis(1) + FiniteSequence.basis(2)
        b = FiniteSequence.basis(1) - FiniteSequence.basis(2)
        assert (a + b).entries == ((1, 2.0),)
        assert (a - a).is_zero()
        assert a.scale(2.0).value(2) == 2.0

    def test_as_vector(self):
        fs = FiniteSequence(((2, 5.0),))
        assert fs.as_vector(3).tolist() == [0.0, 5.0, 0.0]
        with pytest.raises(InputError):
            fs.as_vector(1)


class TestDecayValues:
    def test_closed_forms(self):
        assert Constant(2.0).at(10) == 2.0
        assert PowerDecay(1.0, 2.0).at(3) == pytest.approx(1.0 / 9.0)
        assert Geometric(1.0, 0.5).at(3) == pytest.approx(0.125)
        assert ConstantPlusPower(1.0, 1.0, 1.0).at(4) == pytest.approx(1.25)

    def test_first_from_atoms_is_bitwise_the_closed_forms(self):
        # reference: each class's closed form, written out per class
        n = np.arange(1, 501, dtype=float)
        reference = {
            Constant: lambda s: np.full(len(n), s.value),
            PowerDecay: lambda s: s.c * n ** (-s.p),
            Geometric: lambda s: s.c * s.q**n,
            ConstantPlusPower: lambda s: s.base + s.c * n ** (-s.p),
        }
        rng = np.random.default_rng(20)

        def amplitude():
            return float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3.0, 3.0))

        for _ in range(750):
            p, q = float(10.0 ** rng.uniform(-2.0, 2.6)), float(rng.uniform(0.01, 0.999))
            for seq in (Constant(amplitude()), PowerDecay(amplitude(), p),
                        Geometric(amplitude(), q), ConstantPlusPower(amplitude(), amplitude(), p)):
                assert seq.first(len(n)).tobytes() == reference[type(seq)](seq).tobytes(), seq
        for seq in (Constant(0.0), PowerDecay(0.0, 1.0), Geometric(0.0, 0.5)):
            assert seq.first(len(n)).tobytes() == reference[type(seq)](seq).tobytes(), seq

    def test_prefix_overrides_then_tail(self):
        seq = Prefixed((9.0, 8.0), Constant(1.0))
        assert seq.first(4).tolist() == [9.0, 8.0, 1.0, 1.0]
        # the tail is evaluated at the absolute index, not shifted
        seq = Prefixed((9.0,), PowerDecay(1.0, 1.0))
        assert seq.at(2) == pytest.approx(0.5)

    def test_tabulated_bounds(self):
        tab = Tabulated((1.0, 2.0))
        assert tab.at(2) == 2.0
        with pytest.raises(InputError):
            tab.at(3)
        with pytest.raises(InputError):
            tab.first(5)

    def test_indices_start_at_one(self):
        for seq in (Constant(1.0), Tabulated((1.0, 2.0)), Prefixed((3.0,), Constant(1.0))):
            with pytest.raises(InputError):
                seq.at(0)
            with pytest.raises(InputError):
                seq.first(0)

    def test_parameter_validation(self):
        with pytest.raises(InputError):
            Geometric(1.0, 1.5)
        with pytest.raises(InputError):
            PowerDecay(1.0, 0.0)
        with pytest.raises(InputError):
            ConstantPlusPower(0.0, 1.0, 1.0)
        with pytest.raises(InputError):
            Prefixed((), Constant(1.0))
        with pytest.raises(InputError):
            Prefixed((1.0,), Prefixed((1.0,), Constant(1.0)))

    def test_require_positive(self):
        require_positive(Constant(1.0))
        require_positive(ConstantPlusPower(1.0, -0.5, 1.0))
        with pytest.raises(InputError):
            require_positive(Constant(-1.0))
        with pytest.raises(InputError):
            require_positive(ConstantPlusPower(1.0, -1.5, 1.0))  # negative at n=1
        with pytest.raises(InputError):
            require_positive(Prefixed((1.0, -2.0), Constant(1.0)))
        with pytest.raises(InputError):
            require_positive(Tabulated((1.0, 0.0)))
        assert not Prefixed((1.0,), Constant(-1.0)).is_positive()


def lead(seq):
    return seq.atoms()[0]


class TestSeriesEngine:
    def test_square_summability_rules(self):
        # sum h_n^2 for h = 1/n, 1, 0.9^n
        for seq, expected in (
            (PowerDecay(1.0, 1.0), True),
            (Constant(1.0), False),
            (Geometric(1.0, 0.9), True),
            (PowerDecay(1.0, 0.5), False),  # sum 1/n diverges
            (ConstantPlusPower(1.0, -0.5, 1.0), False),
        ):
            assert summable((lead(seq), 2)) is expected

    def test_ratio_rules(self):
        one = lead(Constant(1.0))
        inv_n = lead(PowerDecay(1.0, 1.0))
        # sum (1/n)^2 / 1 converges, sum (n^-1/2)^2 / 1 diverges
        assert summable((inv_n, 2), (one, -1))
        half = lead(PowerDecay(1.0, 0.5))
        assert not summable((half, 2), (one, -1))

    def test_boundary_is_exact_on_printed_decimals(self):
        # 2 * 1.1 - 1.2 is 1 in decimals but 1.0000000000000002 in floats
        assert not summable((lead(PowerDecay(1.0, 1.1)), 2), (lead(PowerDecay(1.0, 1.2)), -1))
        # 0.3^2 = 0.09 in decimals: (0.3^2 / 0.09)^n = 1 diverges
        assert not summable((lead(Geometric(1.0, 0.3)), 2), (lead(Geometric(1.0, 0.09)), -1))
        # coefficients enter by sign only: 1e-200^2 is not 0
        assert not summable((lead(Constant(1e-200)), 2))

    def test_boundedness(self):
        # the variance ratio stays within positive bounds exactly when the
        # leading atoms share (q, alpha)
        assert lead(Constant(2.0))[:2] == lead(Constant(1.0))[:2]
        assert lead(ConstantPlusPower(1.0, 1.0, 1.0))[:2] == lead(Constant(1.0))[:2]
        assert lead(PowerDecay(1.0, 1.0))[:2] != lead(Constant(1.0))[:2]
        assert lead(Geometric(1.0, 0.5))[:2] != lead(Geometric(1.0, 0.25))[:2]

    def test_exact_cancellation(self):
        a = ConstantPlusPower(1.0, 2.0, 1.5)
        assert leading_difference(a, a) is None
        assert leading_difference(Prefixed((5.0,), a), a) is None
        # the constants cancel, the corrections do not
        assert leading_difference(ConstantPlusPower(1.0, 1e-170, 0.2), Constant(1.0)) == (
            1.0,
            -0.2,
            1e-170,
        )

    def test_dominant_atom_ordering(self):
        # q = 1 beats any q < 1 regardless of the power
        assert leading_difference(PowerDecay(1.0, 2.0), Geometric(-3.0, 0.5)) == (1.0, -2.0, 1.0)
        assert summable(((0.5, 5.0, 2.0), 1))
        # atoms are listed largest (q, alpha) first
        assert ConstantPlusPower(2.0, 3.0, 0.5).atoms() == ((1.0, 0.0, 2.0), (1.0, -0.5, 3.0))

    def test_tabulated_refuses_symbolic_decision(self):
        with pytest.raises(UndecidableError):
            Tabulated((1.0, 2.0)).atoms()

    @given(
        st.lists(st.floats(0.1, 10.0), min_size=1, max_size=6),
        st.sampled_from(
            [Constant(1.0), PowerDecay(1.0, 1.0), Geometric(1.0, 0.5), Constant(0.25)]
        ),
    )
    def test_prefix_never_changes_decisions(self, prefix, tail):
        plain = tail.atoms()
        prefixed = Prefixed(tuple(prefix), tail).atoms()
        assert plain == prefixed

    def test_values_match_value_pointwise(self):
        for seq in (
            Constant(2.0),
            PowerDecay(0.5, 1.5),
            Geometric(2.0, 0.25),
            ConstantPlusPower(1.0, -0.5, 2.0),
            Prefixed((3.0, 4.0), Geometric(1.0, 0.5)),
        ):
            dense = seq.first(7)
            assert dense.tolist() == [seq.at(n) for n in range(1, 8)]
            assert isinstance(dense, np.ndarray)
