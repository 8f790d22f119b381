"""Immutable value classes without ``dataclasses``.

Every command is a fresh process, and importing ``dataclasses`` (with
``inspect``, ``ast`` and ``dis``) and generating a class's methods cost a
``bs`` verb more than its answer.  So the word layer and the CLI build their
value classes on ``Frozen``: a subclass lists its two or more fields in
``__slots__``, checks its arguments in ``__init__`` and stores them with
``set_field``, and gets the value equality, hash, repr text and
immutability of a frozen dataclass with those fields.
"""

import operator

# stores a field from __init__, past Frozen.__setattr__
set_field = object.__setattr__


class Frozen:
    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if len(cls.__slots__) < 2:  # one name would read a bare value
            raise TypeError(f"{cls.__name__} needs two or more fields")
        # _fields(x): the tuple of x's fields, read in C
        cls._fields = staticmethod(operator.attrgetter(*cls.__slots__))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields(self) == self._fields(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._fields(self))

    def __repr__(self):
        fields = ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self.__slots__
        )
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):  # copy and pickle rebuild through __init__
        return type(self), self._fields(self)
