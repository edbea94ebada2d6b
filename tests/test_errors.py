"""One rule for every index and count: ``errors.require_count`` and
``errors.require_indices``, and the public calls that route through them."""

import re

import numpy as np
import pytest

import cylmeasure as cm
from cylmeasure.errors import InputError, require_count, require_indices
from cylmeasure.measure_core import Interval, normalize_box
from cylmeasure.sequences import FiniteSequence


def re_repr(value):
    return re.escape(repr(value))


class TestRequireCount:
    @pytest.mark.parametrize("value", [0, 3, 10**30])
    def test_accepts_an_int_at_least_its_minimum(self, value):
        require_count(value, "n")

    @pytest.mark.parametrize("value", [True, False, 2.0, 2.5, np.int64(2), "2", None])
    def test_refuses_what_is_not_an_int(self, value):
        with pytest.raises(InputError, match=rf"^n must be an integer, got {re_repr(value)}$"):
            require_count(value, "n", 1)

    def test_refuses_a_value_below_its_minimum(self):
        require_count(2, "n_samples", 2)
        with pytest.raises(InputError, match=r"^n_samples must be >= 2, got 1$"):
            require_count(1, "n_samples", 2)
        with pytest.raises(InputError, match=r"^n_max must be >= 0, got -3$"):
            require_count(-3, "n_max")


class TestRequireIndices:
    def test_accepts_distinct_naturals(self):
        require_indices((), "index")
        require_indices([3, 1, 2], "index")

    @pytest.mark.parametrize("index", [0, -3, True, 1.0, np.int64(1), "1"])
    def test_refuses_what_is_not_a_natural(self, index):
        with pytest.raises(
            InputError, match=rf"^cylinder index must be a natural >= 1, got {re_repr(index)}$"
        ):
            require_indices([2, index], "cylinder index")

    def test_refuses_a_repeated_index(self):
        with pytest.raises(InputError, match=r"^duplicate override index 2$"):
            require_indices([2, 1, 2], "override index")


_BOX = normalize_box((Interval(0.0, 1.0),))


# each index was accepted before the rule held everywhere
@pytest.mark.parametrize("call, message", [
    (lambda: FiniteSequence(((True, 2.0),)), "sequence index must be a natural >= 1, got True"),
    (lambda: cm.CylinderSet(((True, (Interval(0, 1),)),)),
     "cylinder index must be a natural >= 1, got True"),
    (lambda: cm.ProductMeasureSpec(cm.Gaussian1D(1.0), ((True, cm.Uniform1D(0, 1)),)),
     "override index must be a natural >= 1, got True"),
    (lambda: cm.MarginalTable((0,), ()), "marginal table index must be a natural >= 1, got 0"),
    (lambda: cm.MarginalTable((-3, True), (((_BOX, _BOX), 1.0),)),
     "marginal table index must be a natural >= 1, got -3"),
    (lambda: cm.MarginalTable((np.int64(1),), (((_BOX,), 1.0),)),
     f"marginal table index must be a natural >= 1, got {np.int64(1)!r}"),
    (lambda: cm.MarginalTable((), ()), "marginal table needs at least one index"),
], ids=["finite-sequence-bool", "cylinder-bool", "override-bool", "marginal-zero",
        "marginal-negative", "marginal-numpy", "marginal-empty"])
def test_public_indices_follow_one_rule(call, message):
    with pytest.raises(InputError) as info:
        call()
    assert str(info.value) == message
