"""JSON schemas for every exchangeable object, with strict decoding.

One interchange format: JSON documents with a single-key tagged-union
convention for variants.  ``SCHEMA`` is the reference for every kind:

    decay            {"constant": {"rho": 1.0}}
                     {"power": {"c": 1.0, "p": 2.0}}
                     {"geometric": {"c": 1.0, "q": 0.5}}
                     {"constant_plus_power": {"base": 1.0, "c": 1.0, "p": 1.0}}
                     {"prefixed": {"prefix": [2.0, 0.5], "tail": decay}}
                     {"tabulated": {"values": [1.0, 0.9, 0.8]}}
    component        {"gaussian": {"rho": 1.0}} | {"uniform": {"a": 0, "b": 1}}
                     | {"point_mass": {"c": 0.0}}
    measure_rule     {"identical": component}
                     | {"indexed": {"map": {"1": component}, "default": component}}
    cylinder         {"base": [{"index": 1, "boxes": [[0.0, 0.5]]}]}
    finite_sequence  {"entries": [[1, 1.0], [4, -2.0]]}
    kernel           {"white_noise": {"sigma": 1.0}} | {"massive_free_1d": {"m": 1.0}}
                     | {"tabulated": {"grid": [...], "values": [...]}}
    grid_function    {"x0": -5.0, "dx": 0.1, "count": 101, "values": [...]}
    tail_rule        {"full": {}} | {"constant_factor": {"f": 0.5}}
                     | {"one_minus_geometric": {"c": 1.0, "q": 0.5}}
                     | {"tabulated": {"factors": [...]}}
    marginal_tables  [{"indices": [1, 2],
                       "cells": [{"boxes": [[[0.0, 0.5]], [["-inf", "inf"]]], "p": 0.5}]}]
    numbers          [1.0, -2.5]
    shift            a finite_sequence if the object has "entries", else a decay

Numbers are finite; an infinite interval end is spelled as the string
"inf" / "-inf".  Unknown keys are rejected, and every error names the
offending path.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import math
import sys
from typing import TYPE_CHECKING, Any, NamedTuple

from .errors import InputError

if TYPE_CHECKING:
    from . import measure_core, sequences, transform

__all__ = ["SCHEMA", "decode", "decode_decay", "decode_shift", "encode_value"]


class _Fault(Exception):
    """A schema violation at ``where``, the path below the decoded root.

    Each level of the walk prepends its own step as the fault passes up,
    so a path string is built only for a rejected document.
    """

    def __init__(self, message: str, where: str = "") -> None:
        super().__init__(message)
        self.where = where

    def under(self, step: str) -> "_Fault":
        self.where = step + self.where
        return self


class _Object(NamedTuple):
    """A JSON object with exactly the keys of ``fields``, read into ``build(*values)``."""

    build: Any
    fields: tuple[tuple[str, Any], ...]
    keys: frozenset


class _List(NamedTuple):
    """A JSON array of any length whose items are all read as ``item``, as a tuple."""

    item: Any


class _Tuple(NamedTuple):
    """A JSON array of exactly one item per shape in ``items``, read into ``build(*values)``."""

    build: Any
    items: tuple


def _object(build, **fields) -> _Object:
    return _Object(build, tuple(fields.items()), frozenset(fields))


def _pack(*values):
    return values


# ---------------------------------------------------------------------------
# leaf readers


def _number(value: Any, allow_inf: bool = False) -> float:
    kind = type(value)
    if kind is not float:
        if kind is not int:  # bool is a subclass of int, not int itself
            if isinstance(value, str):
                if allow_inf and value in ("inf", "-inf"):
                    return math.inf if value == "inf" else -math.inf
                raise _Fault(f"expected a number, got string {value!r}")
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise _Fault(f"expected a number, got {type(value).__name__}")
        try:
            value = float(value)
        except OverflowError:  # a JSON integer past the float range
            raise _Fault("must be finite") from None
    if not math.isfinite(value):
        raise _Fault("must be finite")
    return value


def _interval_end(value: Any) -> float:
    return _number(value, allow_inf=True)


def _natural(value: Any) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise _Fault(f"expected a natural >= 1, got {value!r}")
    return value


def _index_map(doc: Any) -> dict[int, measure_core.Component1D]:
    if not isinstance(doc, dict):
        raise _Fault(f"expected an object, got {type(doc).__name__}")
    mapping, keys = {}, {}
    for raw_index, comp_doc in doc.items():
        digits = raw_index.removeprefix("-")
        if not (digits.isascii() and digits.isdigit()):
            raise _Fault("index keys must be integers", f".{raw_index}")
        index = int(raw_index)
        if index in keys:
            raise _Fault(f"repeats index {index}, already named by key {keys[index]!r}",
                         f".{raw_index}")
        keys[index] = raw_index
        try:
            mapping[_natural(index)] = _read("component", comp_doc)
        except _Fault as fault:
            raise fault.under(f".{raw_index}")
    return mapping


# ---------------------------------------------------------------------------
# the schema: kind -> shape.  A shape is a dict of tagged variants, an
# _Object, a _List, a _Tuple, the name of another kind, or a leaf reader.
# A constructor is a function or the name of a package export, such as
# "Gaussian1D" or "ProductMeasureSpec.indexed".  A kind's shape is compiled
# into one reader closure on its first read; the names resolve then, so
# the package loads the module behind them (``measure_core``, ``kernels``)
# only for a call that reads such a kind.


def _identical(doc: Any) -> measure_core.ProductMeasureSpec:
    from .measure_core import ProductMeasureSpec

    return ProductMeasureSpec.identical(_read("component", doc))


def _cell(boxes: tuple, p: float) -> tuple:
    from .measure_core import normalize_box

    if not 0.0 <= p <= 1.0:
        raise _Fault(f"probability must lie in [0,1], got {p}", ".p")
    return tuple(normalize_box(box) for box in boxes), p


def _marginal_table(indices: tuple[int, ...], cells: tuple) -> measure_core.MarginalTable:
    from .measure_core import MarginalTable

    if not indices:
        raise _Fault("expected a nonempty array of naturals", ".indices")
    for j, (boxes, _) in enumerate(cells):
        if len(boxes) != len(indices):
            raise _Fault(f"expected {len(indices)} boxes (one per index)", f".cells[{j}].boxes")
    return MarginalTable(indices, cells)


def _shift(doc: Any) -> transform.ShiftSpec:
    return _read("finite_sequence" if isinstance(doc, dict) and "entries" in doc else "decay", doc)


_NUMBERS = _List(_number)
_BOX = _List(_Tuple("Interval", (_interval_end, _interval_end)))

SCHEMA: dict[str, Any] = {
    "decay": {
        "constant": _object("Constant", rho=_number),
        "power": _object("PowerDecay", c=_number, p=_number),
        "geometric": _object("Geometric", c=_number, q=_number),
        "constant_plus_power": _object("ConstantPlusPower", base=_number, c=_number, p=_number),
        "prefixed": _object("Prefixed", prefix=_NUMBERS, tail="decay"),
        "tabulated": _object("Tabulated", values=_NUMBERS),
    },
    "component": {
        "gaussian": _object("Gaussian1D", rho=_number),
        "uniform": _object("Uniform1D", a=_number, b=_number),
        "point_mass": _object("PointMass1D", c=_number),
    },
    "measure_rule": {
        "identical": _identical,
        "indexed": _object("ProductMeasureSpec.indexed", map=_index_map, default="component"),
    },
    "cylinder": _object("CylinderSet", base=_List(_object(_pack, index=_natural, boxes=_BOX))),
    "finite_sequence": _object(
        "FiniteSequence", entries=_List(_Tuple(_pack, (_natural, _number)))
    ),
    "kernel": {
        "white_noise": _object("WhiteNoise", sigma=_number),
        "massive_free_1d": _object("MassiveFree1D", m=_number),
        "tabulated": _object("TabulatedKernel", grid=_NUMBERS, values=_NUMBERS),
    },
    "grid_function": _object(
        "GridFunction", x0=_number, dx=_number, count=_natural, values=_NUMBERS
    ),
    "tail_rule": {
        "full": _object("FullTail"),
        "constant_factor": _object("ConstantFactorTail", f=_number),
        "one_minus_geometric": _object("OneMinusGeometricTail", c=_number, q=_number),
        "tabulated": _object("TabulatedTail", factors=_NUMBERS),
    },
    "marginal_tables": _List(
        _object(
            _marginal_table,
            indices=_List(_natural),
            cells=_List(_object(_cell, boxes=_List(_BOX), p=_number)),
        )
    ),
    "numbers": _NUMBERS,
    "shift": _shift,
}


def _constructor(build: Any) -> Any:
    """``build`` itself, or the package export it names (loading its module)."""
    if type(build) is not str:
        return build
    value = sys.modules[__package__]
    for name in build.split("."):
        value = getattr(value, name)
    return value


def _build(build, values: list) -> Any:
    try:
        return build(*values)
    except InputError as exc:
        raise _Fault(str(exc)) from None


def _object_fault(doc: Any) -> _Fault:
    return _Fault(f"expected an object, got {type(doc).__name__}")


def _variants(shape: dict) -> Any:
    readers = {tag: _compile(variant) for tag, variant in shape.items()}
    tags = list(shape)

    def read(doc: Any) -> Any:
        if not isinstance(doc, dict):
            raise _object_fault(doc)
        if len(doc) != 1:
            raise _Fault(f"expected exactly one of {tags}, got keys {list(doc)}")
        ((tag, body),) = doc.items()
        reader = readers.get(tag)
        if reader is None:
            raise _Fault(f"unknown variant; expected one of {tags}", f".{tag}")
        try:
            return reader(body)
        except _Fault as fault:
            raise fault.under(f".{tag}")

    return read


def _fields(shape: _Object) -> Any:
    build, keys = _constructor(shape.build), shape.keys
    fields = tuple((key, _compile(field)) for key, field in shape.fields)

    def read(doc: Any) -> Any:
        if not isinstance(doc, dict):
            raise _object_fault(doc)
        if doc.keys() != keys:
            unknown = sorted(doc.keys() - keys)
            if unknown:
                raise _Fault("unknown key", f".{unknown[0]}")
            missing = next(key for key, _ in fields if key not in doc)
            raise _Fault("missing required key", f".{missing}")
        values = []
        for key, field in fields:
            try:
                values.append(field(doc[key]))
            except _Fault as fault:
                raise fault.under(f".{key}")
        return _build(build, values)

    return read


def _array(doc: Any) -> list:
    if not isinstance(doc, list):
        raise _Fault(f"expected an array, got {type(doc).__name__}")
    return doc


def _list(shape: _List) -> Any:
    item = _compile(shape.item)

    def read(doc: Any) -> tuple:
        values = []
        for i, value in enumerate(_array(doc)):
            try:
                values.append(item(value))
            except _Fault as fault:
                raise fault.under(f"[{i}]")
        return tuple(values)

    return read


def _tuple(shape: _Tuple) -> Any:
    build, items = _constructor(shape.build), tuple(_compile(item) for item in shape.items)

    def read(doc: Any) -> Any:
        if len(_array(doc)) != len(items):
            raise _Fault(f"expected an array of {len(items)} items, got {len(doc)}")
        values = []
        for i, item in enumerate(items):
            try:
                values.append(item(doc[i]))
            except _Fault as fault:
                raise fault.under(f"[{i}]")
        return _build(build, values)

    return read


def _compile(shape: Any) -> Any:
    """The reader of ``shape``: a function from a document to its value, raising ``_Fault``."""
    form = type(shape)
    if form is str:  # another kind, resolved at read time, so kinds may nest
        return functools.partial(_read, shape)
    if form is dict:
        return _variants(shape)
    if form is _Object:
        return _fields(shape)
    if form is _List:
        return _list(shape)
    if form is _Tuple:
        return _tuple(shape)
    return shape


_READERS: dict[str, Any] = {}  # kind -> compiled reader, filled on each kind's first read


def _read(kind: str, doc: Any) -> Any:
    """Read ``doc`` as the ``SCHEMA`` kind ``kind``: the one decoder behind every kind."""
    reader = _READERS.get(kind)
    if reader is None:
        reader = _READERS[kind] = _compile(SCHEMA[kind])
    return reader(doc)


def decode(kind: str, doc: Any, path: str) -> Any:
    """Read ``doc`` as the ``SCHEMA`` kind ``kind``; errors name ``path`` and below."""
    try:
        return _read(kind, doc)
    except _Fault as fault:
        raise InputError(f"{path}{fault.where}: {fault}") from None


def decode_decay(doc: Any, path: str = "cov") -> sequences.DecaySeq:
    return decode("decay", doc, path)


def decode_shift(doc: Any, path: str = "shift") -> transform.ShiftSpec:
    return decode("shift", doc, path)


# ---------------------------------------------------------------------------
# encoding (payloads are plain JSON types; infinities become strings)


def encode_value(value: Any) -> Any:
    """Recursively convert results to JSON-safe structures."""
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, (bool, int, str)) or value is None:
        return value
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return value
    if isinstance(value, complex):
        return {"re": encode_value(value.real), "im": encode_value(value.imag)}
    np = sys.modules.get("numpy")  # no numpy value exists unless numpy is loaded
    if np is not None:
        if isinstance(value, np.integer):
            return int(value)
        if isinstance(value, np.floating):
            return encode_value(float(value))
        if isinstance(value, np.ndarray):
            return [encode_value(v) for v in value.tolist()]
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            field.name: encode_value(getattr(value, field.name))
            for field in dataclasses.fields(value)
        }
    if isinstance(value, dict):
        return {str(k): encode_value(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [encode_value(v) for v in value]
    raise InputError(f"cannot encode {type(value).__name__} to JSON")
