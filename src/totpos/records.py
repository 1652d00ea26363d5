"""Immutable value classes on ``__slots__``, written out by hand.

Every ``totpos`` command runs in a fresh interpreter.  Generating value
classes at import time with the standard library's class decorator would
cost each command a noticeable share of its run: the decorator's module
imports ``inspect`` (and with it ``ast``, ``dis`` and ``tokenize``), and
each decorated class ``exec``s its generated methods.  A :class:`Record`
subclass lists its fields as ``__slots__`` and sets them with
``object.__setattr__`` in its own ``__init__``; the rest comes from here:
the ``Name(field=value, ...)`` repr, equality and hashing on the tuple of
its fields, and an ``AttributeError`` on assignment.  A class on a hot
path overrides ``__eq__`` and ``__hash__`` with direct field comparisons.
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
