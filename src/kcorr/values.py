"""Base classes of the package's value types.

Two values are equal when they are of the same class with equal field
tuples, and a frozen value hashes as that tuple, so set and dict orders
follow its fields.  A class's fields are the parameters of its own
``__init__``, read once when the class is created.  Each class writes out
that ``__init__``: a generic ``*args`` one was 1-2 µs slower per object,
and a four-case ``law_suite`` round builds about 4,300 values.  The shared
``==`` and ``hash`` cost one call more than written-out ones (``timeit`` on
a shared 2-core Xeon, Python 3.11.7: ``CorrObject ==`` 0.19 -> 0.36 µs,
``CorrMorphism`` hash 2.2 -> 2.6 µs), under 1 ms of the 220 ms of such a
round, which makes about 2,700 of these calls.

These take the place of ``dataclasses``: importing that module and
generating the classes with it was about half of ``import kcorr.cli``,
which every ``kcorr run`` pays (README, "Start-up").
"""

from operator import attrgetter

setfield = object.__setattr__


class Value:
    """Equality by class and field tuple, no hash, and the default repr,
    naming each field listed in ``_fields``."""

    __slots__ = ()
    _fields = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "__init__" in cls.__dict__:
            code = cls.__init__.__code__
            cls._fields = fields = code.co_varnames[1:code.co_argcount]
            get = attrgetter(*fields)  # a 1-tuple for one field too
            cls._key = staticmethod(get if len(fields) > 1 else lambda v: (get(v),))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            key = self._key
            return key(self) == key(other)
        return NotImplemented

    __hash__ = None

    def __repr__(self):
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({body})"


class Frozen(Value):
    """A value that refuses assignment and hashes as its field tuple;
    ``__init__`` stores each field with ``setfield``."""

    __slots__ = ()

    def __hash__(self):
        return hash(self._key(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
