"""Plain record classes built on __slots__.

A record's fields are its class's __slots__, listed in constructor order.
A record that writes no __init__ gets one when its class is created,
compiled from its __slots__ as `collections.namedtuple` compiles its
constructor; it sets each slot once through `setfield`.  `DigitSet`,
`IntPoly` and `Decomposition` write their own to check or convert their
input, and `Certificate` to give its optional fields defaults.  The base
compares records of the same class field by field and prints them as
`Name(field=value, ...)`.  A frozen record also refuses assignment and
hashes by its fields.
"""

setfield = object.__setattr__


class Record:
    """Mutable record: field-wise equality, so not hashable."""

    __slots__ = ()
    __hash__ = None

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # Only where no class on the way up wrote an __init__, so that a
        # subclass never loses a constructor that checks its input.
        if cls.__slots__ and cls.__init__ is object.__init__:
            fields = cls.__slots__
            body = "".join(f"\n    setfield(self, {f!r}, {f})" for f in fields)
            namespace = {"setfield": setfield}
            exec(f"def __init__(self, {', '.join(fields)}):{body}", namespace)
            init = namespace["__init__"]
            init.__qualname__ = f"{cls.__qualname__}.__init__"
            cls.__init__ = init

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({shown})"

    def __reduce__(self):
        # Rebuilt through the constructor, so copy and pickle work without
        # assigning to a frozen record's slots.
        return type(self), self._fields()


class FrozenRecord(Record):
    """Immutable record: hashable when its field values are."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a frozen record")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a frozen record")
