"""The immutable record base of the package's value types.

Specifications, cylinder sets, decay classes and reports are small frozen
records.  ``Record`` gives a subclass what ``@dataclass(frozen=True)``
gave it, read from its class annotations once, when the class is made:
fields in declaration order (inherited ones first), a class-level value
as a field's default, equality and hashing by the field values, a
``Name(field=value, ...)`` repr, and ``FrozenInstanceError`` on any
assignment or deletion.  ``class C(Record, eq=False)`` keeps identity
equality and hashing.  ``_fields`` names the fields in order.

Importing ``dataclasses`` takes about 4 ms (it loads ``inspect``,
``ast``, ``dis`` and ``tokenize``), and making a frozen dataclass about
0.3 ms, more than a symbolic CLI call spends on its computation.  Here
each class gets two functions compiled from its field list: ``__init__``,
which calls ``__post_init__`` when the class defines one and builds a
record no slower than the dataclass's generated one, and ``_values``, the
tuple of field values that equality and hashing compare.

The ``dataclasses`` functions (``is_dataclass``, ``fields``, ``asdict``,
``replace``) still accept a record: its class answers
``__dataclass_fields__`` on the first read with the fields of an
equivalent ``dataclasses.make_dataclass``, so only a caller who asks
loads ``dataclasses``.
"""

__all__ = ["Record"]


class _DataclassFields:
    """``__dataclass_fields__`` of a record class, made and cached on first read."""

    def __get__(self, instance, cls):
        import dataclasses

        types = {}
        for klass in reversed(cls.__mro__):
            types.update(getattr(klass, "__annotations__", {}))
        specs = [(name, types[name], getattr(cls, name)) if hasattr(cls, name)
                 else (name, types[name]) for name in cls._fields]
        made = dataclasses.make_dataclass(cls.__name__, specs)
        cls.__dataclass_fields__ = made.__dataclass_fields__
        return made.__dataclass_fields__


class Record:
    """Base of a frozen record whose fields are its class annotations."""

    _fields: tuple[str, ...] = ()
    __dataclass_fields__ = _DataclassFields()

    def __init_subclass__(cls, eq: bool = True, **kwargs):
        super().__init_subclass__(**kwargs)
        # a redeclared field keeps its inherited place, as in a dataclass
        fields = tuple({**dict.fromkeys(cls._fields), **cls.__annotations__})
        cls._fields = cls.__match_args__ = fields
        defaults = {name: getattr(cls, name) for name in fields if hasattr(cls, name)}
        params = [f"{name}=_defaults[{name!r}]" if name in defaults else name for name in fields]
        lines = [f"def __init__({', '.join(['self', *params])}):", "    pass"]
        lines += [f"    _set(self, {name!r}, {name})" for name in fields]
        if hasattr(cls, "__post_init__"):
            lines.append("    self.__post_init__()")
        values = "".join(f"self.{name}, " for name in fields)
        lines += ["def _values(self):", f"    return ({values})"]
        namespace = {"_set": object.__setattr__, "_defaults": defaults}
        exec("\n".join(lines), namespace)
        cls.__init__, cls._values = namespace["__init__"], namespace["_values"]
        cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"
        if not eq:
            cls.__eq__, cls.__hash__ = object.__eq__, object.__hash__

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot delete field {name!r}")
