"""Every record behaves as the frozen dataclass it replaces.

The package's value types derive from ``_record.Record`` rather than
``@dataclass(frozen=True)``.  For each of them an instance is compared with
a frozen dataclass made from the same annotations, defaults and qualname:
repr, equality, hash, the error raised on assignment and deletion, and the
answers of ``dataclasses.is_dataclass``, ``fields``, ``asdict`` and
``replace``.  ``GaussianSample`` keeps identity equality (``eq=False``).
"""

import dataclasses
import importlib
import math

import numpy as np
import pytest

from cylmeasure import jsonio
from cylmeasure._record import Record
from cylmeasure.bohr import (
    FrequencySet,
    HaarIntegralResult,
    IndependenceResult,
    MCMethod,
    QuadratureMethod,
)
from cylmeasure.gaussian import GaussianSample, GramReport
from cylmeasure.kernels import (
    FourierQuadResult,
    GridFunction,
    MassiveFree1D,
    TabulatedKernel,
    WhiteNoise,
)
from cylmeasure.measure_core import (
    ConsistencyResult,
    ConstantFactorTail,
    CylinderSet,
    FullTail,
    Gaussian1D,
    IncreasingLimitReport,
    Interval,
    MarginalTable,
    OneMinusGeometricTail,
    PointMass1D,
    ProductLimitReport,
    ProductMeasureSpec,
    TabulatedTail,
    TailConstraints,
    Uniform1D,
    consistency_check,
)
from cylmeasure.selftest import CheckResult
from cylmeasure.sequences import (
    Constant,
    ConstantPlusPower,
    FiniteSequence,
    Geometric,
    PowerDecay,
    Prefixed,
    Tabulated,
)
from cylmeasure.support import Support, SupportReport, TailGrowthReport
from cylmeasure.transform import Equivalence, EquivalenceVerdict

CYLINDER = CylinderSet.from_boxes({2: [(0.0, 1.0)], 1: [(-math.inf, 0.5), (1.0, 2.0)]})
MARGINAL = MarginalTable((1,), (((CYLINDER.box_at(1),), 0.5),))

# one instance of every record class, with nested records and defaults left out
INSTANCES = [
    Interval(0, 1),
    CYLINDER,
    CylinderSet(),
    Gaussian1D(2.0),
    Uniform1D(0.0, 1.0),
    PointMass1D(0.5),
    ProductMeasureSpec(Gaussian1D(1.0), ((3, Uniform1D(0.0, 2.0)), (1, PointMass1D(0.0)))),
    ProductLimitReport(0.25, 3, True, "converged"),
    FullTail(),
    ConstantFactorTail(0.5),
    OneMinusGeometricTail(1.0, 0.5),
    TabulatedTail((0.5, 1, 0.25)),
    TailConstraints(),
    TailConstraints(CYLINDER, OneMinusGeometricTail(0.5, 0.25)),
    IncreasingLimitReport(0.5, 2),
    MARGINAL,
    ConsistencyResult(True),
    ConsistencyResult(False, "cell 1"),
    FiniteSequence(((3, 2.0), (1, -1.0), (2, 0.0))),
    FiniteSequence(),
    Constant(1.0),
    PowerDecay(1.0, 2.0),
    Geometric(2.0, 0.5),
    ConstantPlusPower(1.0, -0.5, 1.0),
    Prefixed((2, 3.5), PowerDecay(1.0, 0.5)),
    Tabulated((1, 0.5)),
    WhiteNoise(1.0),
    MassiveFree1D(2.0),
    TabulatedKernel((-1, 0, 1), (0.5, 1, 0.5)),
    GridFunction(-1.0, 0.5, 3, (1, 2, 3)),
    FourierQuadResult(0.5, 1e-7, 1e-8, 1e-9, 100.0),
    FrequencySet((1.0, math.sqrt(2.0))),
    IndependenceResult(True, 10),
    IndependenceResult(False, 10, (2, -1)),
    HaarIntegralResult(1 + 0.5j, 1e-14, "quadrature(16x2)"),
    QuadratureMethod(),
    MCMethod(100, 7),
    GaussianSample(3, np.array([0.5, -1.0, 2.0]), 7, Constant(1.0)),
    GramReport(-1e-17, True, 4),
    SupportReport(Support.SUPPORTED, "converges"),
    TailGrowthReport("slope", 1.5, 0.1, ((10, 1.0), (20, 2.5)), 20, 100, 7),
    EquivalenceVerdict(Equivalence.SINGULAR, 2.0, 2.0, "diverges", "sum (a_n - 1)^2 diverges"),
    CheckResult("wick", True, "ok"),
]

MODULES = ["bohr", "gaussian", "kernels", "measure_core", "selftest", "sequences", "support",
           "transform"]


def _record_classes():
    for module in MODULES:
        importlib.import_module(f"cylmeasure.{module}")
    found, stack = set(), [Record]
    while stack:
        for cls in stack.pop().__subclasses__():
            stack.append(cls)
            if not cls.__name__.startswith("_"):
                found.add(cls)
    return found


def _twin(record):
    """A frozen dataclass of the same declaration, holding the record's values."""
    cls = type(record)
    types = {}
    for klass in reversed(cls.__mro__):
        types.update(getattr(klass, "__annotations__", {}))
    specs = [(name, types[name]) for name in cls._fields]
    defaults = {name: getattr(cls, name) for name in cls._fields if hasattr(cls, name)}
    twin_cls = dataclasses.make_dataclass(
        cls.__name__, specs, namespace=defaults, frozen=True, eq=cls.__eq__ is not object.__eq__
    )
    twin_cls.__qualname__ = cls.__qualname__
    return twin_cls(*(getattr(record, name) for name in cls._fields))


def _field_view(fields):
    return [(f.name, f.type, f.default, f.default_factory, f.init, f.repr, f.hash, f.compare,
             f.kw_only) for f in fields]


def test_every_record_class_has_an_instance():
    assert _record_classes() == {type(record) for record in INSTANCES}
    assert len(_record_classes()) == 38


@pytest.mark.parametrize("record", INSTANCES, ids=lambda r: type(r).__name__)
def test_record_matches_its_dataclass_twin(record):
    twin = _twin(record)
    cls = type(record)
    assert repr(record) == repr(twin)
    rebuilt = cls(*(getattr(record, name) for name in cls._fields))
    twin_rebuilt = type(twin)(*(getattr(twin, name) for name in cls._fields))
    assert (record == rebuilt) == (twin == twin_rebuilt)
    assert (record != rebuilt) == (twin != twin_rebuilt)
    assert record == record and twin == twin
    assert record != object() and record != twin
    if cls is GaussianSample:
        assert record != rebuilt and hash(record) == object.__hash__(record)
    else:
        assert hash(record) == hash(twin) == hash(rebuilt)
    for name in {*cls._fields[:1], "extra"}:
        for action in (lambda obj: setattr(obj, name, 1), lambda obj: delattr(obj, name)):
            with pytest.raises(dataclasses.FrozenInstanceError) as got:
                action(record)
            with pytest.raises(dataclasses.FrozenInstanceError) as expected:
                action(twin)
            assert str(got.value) == str(expected.value)
    assert cls.__match_args__ == type(twin).__match_args__


@pytest.mark.parametrize("record", INSTANCES, ids=lambda r: type(r).__name__)
def test_dataclasses_functions_accept_records(record):
    twin = _twin(record)
    assert dataclasses.is_dataclass(record) and dataclasses.is_dataclass(type(record))
    assert _field_view(dataclasses.fields(record)) == _field_view(dataclasses.fields(twin))
    # repr: GaussianSample holds an array, which == compares elementwise
    assert repr(dataclasses.asdict(record)) == repr(dataclasses.asdict(twin))
    replaced = dataclasses.replace(record)
    assert type(replaced) is type(record) and repr(replaced) == repr(record)
    if record._fields:
        name = record._fields[-1]
        value = getattr(record, name)
        assert getattr(dataclasses.replace(record, **{name: value}), name) == value
    assert repr(jsonio.encode_value(record)) == repr(jsonio.encode_value(twin))


def test_defaults_and_keywords_reach_the_compiled_init():
    assert TailConstraints() == TailConstraints(prefix=CylinderSet(), tail=FullTail())
    assert QuadratureMethod().points_per_axis == 16
    assert IndependenceResult(bound=3, independent=True).witness is None
    assert Interval(hi=1, lo=0) == Interval(0.0, 1.0)  # __post_init__ still runs
    with pytest.raises(TypeError):
        Interval(0.0)
    with pytest.raises(TypeError):
        Interval(0.0, 1.0, lo=0.0)


def test_consistency_violation_names_intervals_by_their_repr():
    box = (Interval(0.0, 1.0),)
    small = MarginalTable((1,), (((box,), 1.0),))
    large = MarginalTable((1, 2), (((box, box), 0.5),))
    report = consistency_check([small, large])
    assert not report.consistent
    assert "Interval(lo=0.0, hi=1.0)" in report.violation


def test_records_of_different_classes_are_unequal():
    assert Gaussian1D(1.0) != PointMass1D(1.0)
    assert Constant(2.0) != WhiteNoise(2.0) and Constant(2.0) != Constant(3.0)


class _Base(Record):
    a: int
    b: int = 2


class _Child(_Base):
    c: int = 3
    a: int = 1  # a redeclared field keeps its place and takes the new default


def test_a_subclass_inherits_fields_in_dataclass_order():
    @dataclasses.dataclass(frozen=True)
    class Base:
        a: int
        b: int = 2

    @dataclasses.dataclass(frozen=True)
    class Child(Base):
        c: int = 3
        a: int = 1

    assert _Child._fields == tuple(f.name for f in dataclasses.fields(Child)) == ("a", "b", "c")
    assert _field_view(dataclasses.fields(_Child)) == _field_view(dataclasses.fields(Child))
    assert _Child()._values() == (1, 2, 3) and _Child(5, c=7)._values() == (5, 2, 7)
    assert _Child(5) != _Base(5) and hash(_Child(5)) == hash(Child(5))
