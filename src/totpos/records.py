"""Immutable value classes on ``__slots__``, written out by hand.

Every value class of the package is a :class:`Record`: its fields are its
``__slots__``, set with ``object.__setattr__`` in its own ``__init__``.
The rest comes from here: equality and hashing on the tuple of its
fields, an ``AttributeError`` on assignment or deletion, copy and pickle
through the constructor, and a ``Name(field=value, ...)`` repr that a
class may replace.  Two classes depart from the contract: ``MinorSpec``
overrides equality and hashing for speed, and ``LaurentPoly`` overrides
hashing because its ``terms`` field is a dict.  A record whose fields
hold lists or dicts, such as ``MoveGraph``, is not hashable.  Every
``totpos`` command runs in a fresh interpreter, so classes generated by
the standard library's class decorator would cost each one the import of
``inspect`` (with ``ast``, ``dis`` and ``tokenize``) and an ``exec`` per
class.
"""

from __future__ import annotations


class Record:
    """Base of the package's immutable value classes; the fields are the
    subclass's ``__slots__``, in order."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(map(self.__getattribute__, self.__slots__))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value
                           in zip(self.__slots__, self._fields()))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._fields()
