"""Plain record classes built on __slots__.

A record's fields are its class's __slots__, listed in constructor order,
and each record writes its own __init__, so building one costs no more
than setting its slots.  The base compares records of the same class field
by field and prints them as `Name(field=value, ...)`.  A frozen record
also refuses assignment and hashes by its fields; its __init__ sets each
slot once through `setfield`.
"""

setfield = object.__setattr__


class Record:
    """Mutable record: field-wise equality, so not hashable."""

    __slots__ = ()
    __hash__ = None

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
