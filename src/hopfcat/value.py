"""Plain classes compared field by field.

Every class of the package that holds data (the data kinds, ``Field``,
``CheckItem``, ``Report`` and the rest) writes its ``__init__`` out in its
own module and names its fields, in constructor order, in ``_fields``.
``Value`` gives it the rest from that tuple: ``==`` by class and fields,
through one ``operator.attrgetter`` per class, a ``Name(field=value, ...)``
repr, and no hash, so that a mutable instance cannot sit in a set.
``FrozenValue`` adds a hash by fields and refuses assignment and deletion;
its ``__init__`` sets fields with ``object.__setattr__``.

The package generates no code when it is imported, because every CLI run
imports it: a decorator that generates these methods writes them out as
source text and ``exec``s them on every import.
"""

from __future__ import annotations

from operator import attrgetter


class Value:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "_fields" in cls.__dict__:
            cls._values = attrgetter(*cls._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        values = self._values
        return values(self) == values(other)

    __hash__ = None

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"


class FrozenValue(Value):
    __slots__ = ()

    def __hash__(self):
        return hash(self._values(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field '{name}'")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field '{name}'")
