"""Base classes of the package's value types.

Each value type writes its own ``__init__``, ``__eq__`` and, when frozen,
``__hash__``, all reading its fields in declaration order: two values are
equal when they are of the same class with equal field tuples, and a frozen
value hashes as that tuple, so set and dict orders follow its fields.  The
methods are written out rather than shared through a key method, because a
second Python call per ``==`` or ``hash`` measurably slows the nested values
(a morphism hashes two objects, each hashing two varieties).

These take the place of ``dataclasses``: importing that module and
generating the classes with it was about half of ``import kcorr.cli``,
which every ``kcorr run`` pays (README, "Start-up").
"""

setfield = object.__setattr__


class Value:
    """The default repr, naming each field listed in ``_fields``."""

    __slots__ = ()
    _fields = ()

    def __repr__(self):
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({body})"


class Frozen(Value):
    """A value that refuses assignment; ``__init__`` stores each field with
    ``setfield``."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
