"""Immutable records: the base of every value class in berkline.

A record class lists its fields in ``_fields`` and writes its own
``__init__``, which stores each field with ``setfield`` (that is,
``object.__setattr__``, past the frozen guard) and runs any validation.
``Record`` supplies what a frozen dataclass would generate, with the same
results: ``==`` on the field tuple between instances of one class only
(``NotImplemented`` otherwise), ``hash`` of the field tuple, the repr
``Name(f=..., ...)``, ``__match_args__`` (the fields, for positional
``match`` patterns), and ``AttributeError`` on setting or deleting an
attribute, the guard it shares with ``LogValue`` through ``Frozen``.  The
``dataclasses`` helpers (``replace``, ``fields``, ``asdict``) do not apply
to records; ``type(x)(*x._values(x))`` rebuilds one through its
``__init__``.  A class may define its own ``__eq__``, ``__hash__`` or
``__repr__`` instead; one that defines ``__eq__`` alone must name its hash,
as Python otherwise sets it to None.  Instances keep a ``__dict__``, so
``field.cached`` values and default pickling and copying work unchanged.
"""

from operator import attrgetter

setfield = object.__setattr__


class Frozen:
    """Refuses setting and deleting attributes, as a frozen dataclass does."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Record(Frozen):
    __slots__ = ()
    _fields = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.__match_args__ = cls._fields
        get = attrgetter(*cls._fields)
        if len(cls._fields) == 1:
            one = get

            def get(x):
                return (one(x),)
        cls._values = staticmethod(get)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"
