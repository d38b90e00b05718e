"""Record base classes: fields in ``__slots__``, set by a hand-written
``__init__``; equality, hash and repr as ``dataclasses`` defines them, without
importing ``dataclasses`` and ``inspect`` or compiling methods at cold start.
"""

set_field = object.__setattr__  # for a FrozenRecord's own __init__ only


class Record:
    """A mutable record: field-wise equality and repr, unhashable."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"


class FrozenRecord(Record):
    """An immutable record, hashed by its field tuple."""

    __slots__ = ()

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
