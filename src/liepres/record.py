"""Plain record classes: named fields in __slots__, with no generated code."""


class Record:
    """An immutable record whose fields are the subclass's __slots__, in order.

    The constructor takes every field, by position or by keyword.  `_hidden`
    names fields left out of repr.  Two records are equal when they have the same
    class and equal fields.  A field cannot be reassigned or deleted, and a
    record is hashable when its fields are.
    """

    __slots__ = ()
    _hidden: tuple = ()

    def __init__(self, *args, **kwargs):
        fields = self.__slots__
        if len(args) > len(fields):
            raise TypeError(f"{type(self).__name__}() takes {len(fields)} fields, got {len(args)}")
        for name, value in zip(fields, args):
            if name in kwargs:
                raise TypeError(f"{type(self).__name__}() got multiple values for {name!r}")
            object.__setattr__(self, name, value)
        for name in fields[len(args):]:
            if name not in kwargs:
                raise TypeError(f"{type(self).__name__}() missing field {name!r}")
            object.__setattr__(self, name, kwargs.pop(name))
        if kwargs:
            raise TypeError(f"{type(self).__name__}() got unexpected fields {sorted(kwargs)}")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a {type(self).__name__}")

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__ if name not in self._hidden)
        return f"{type(self).__qualname__}({shown})"
