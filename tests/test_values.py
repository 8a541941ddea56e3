"""The value types: equality, hash, immutability, defaults and reprs.

Hashes feed set and dict orders, which reach printed output, so each frozen
type must hash as the tuple of its fields in declaration order.  The field
lists here are the declaration orders; each field's test value is its name.
"""

import importlib

import pytest

from kcorr import values
from kcorr.bimod import BigBimodule, big_lift
from kcorr.corrcat import CorrMorphism, CorrObject, IsoCertificate, identity_object
from kcorr.exactalg import QQ
from kcorr.functors import AutMorphism, AutObject
from kcorr.k0 import K0Class
from kcorr.laws import LawFailure, LawReport, LawResult
from kcorr.randomgen import GenBounds
from kcorr.session import Session
from kcorr.varieties import AffVariety, VarMorphism, make_variety

FROZEN = [
    (CorrObject, ("X", "Y", "n", "p", "gen_images")),
    (CorrMorphism, ("src", "dst", "mat")),
    (IsoCertificate, ("fwd", "bwd")),
    (AffVariety, ("name", "vars", "ideal_gens", "field", "factors")),
    (VarMorphism, ("source", "target", "images")),
    (AutObject, ("base", "thetas")),
    (AutMorphism, ("src", "dst", "underlying")),
    (BigBimodule, ("root", "morphism")),
    (K0Class, ("terms",)),
    (GenBounds, ("max_n", "max_deg", "max_elementary", "zero_weight")),
]
MUTABLE = [
    (Session, ("field", "varieties", "maps", "corrs", "morphisms", "auts",
               "refs", "decls", "commands", "command_lines")),
    (LawReport, ("seed", "cases", "fields", "results", "wall_time")),
    (LawResult, ("law", "field", "cases", "failures")),
    (LawFailure, ("law", "check", "field", "case_index", "seed", "message",
                  "inputs")),
]
DEFAULT_REPR = {IsoCertificate, AutObject, AutMorphism, GenBounds, Session,
                LawReport, LawResult, LawFailure}
ALL = FROZEN + MUTABLE


def _ids(table):
    return [cls.__name__ for cls, _ in table]


@pytest.mark.parametrize("cls, fields", ALL, ids=_ids(ALL))
def test_fields_by_position_and_keyword(cls, fields):
    a = cls(*fields)
    assert tuple(getattr(a, name) for name in fields) == fields
    assert cls(**{name: name for name in fields}) == a


@pytest.mark.parametrize("cls, fields", ALL, ids=_ids(ALL))
def test_equality_reads_every_compared_field(cls, fields):
    assert cls(*fields) == cls(*fields)
    for i, name in enumerate(fields):
        changed = list(fields)
        changed[i] += "!"
        assert (cls(*changed) == cls(*fields)) == (name == "command_lines")
    assert cls(*fields) != fields


@pytest.mark.parametrize("cls, fields", FROZEN, ids=_ids(FROZEN))
def test_frozen_hash_is_the_field_tuple_hash(cls, fields):
    assert hash(cls(*fields)) == hash(fields)
    assert hash(cls(*fields)) == hash(cls(*fields))


@pytest.mark.parametrize("cls, fields", FROZEN, ids=_ids(FROZEN))
def test_frozen_fields_cannot_be_assigned_or_deleted(cls, fields):
    a = cls(*fields)
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(a, name, "other")
        with pytest.raises(AttributeError):
            delattr(a, name)
        assert getattr(a, name) == name
    with pytest.raises(AttributeError):
        a.extra = 1


@pytest.mark.parametrize("cls, fields", MUTABLE, ids=_ids(MUTABLE))
def test_mutable_types_are_unhashable_and_assignable(cls, fields):
    a = cls(*fields)
    with pytest.raises(TypeError):
        hash(a)
    setattr(a, fields[0], "other")
    assert getattr(a, fields[0]) == "other"


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_value_type_is_pinned():
    importlib.import_module("kcorr.cli")  # loads every module with a value type
    tables = dict(ALL)
    found = set(_subclasses(values.Value)) - {values.Frozen}
    assert found == set(tables)
    for cls in found:
        assert cls._fields == tables[cls]
        assert issubclass(cls, values.Frozen) == (cls in dict(FROZEN))
        # only Session writes its own equality, which makes it unhashable
        assert ("__eq__" in vars(cls)) == ("__hash__" in vars(cls)) == (cls is Session)


def test_equality_requires_the_same_class():
    values = ("src", "dst", "mat")
    assert CorrMorphism(*values) != AutMorphism(*values)
    assert AutMorphism(*values) != CorrMorphism(*values)
    assert len({CorrMorphism(*values), AutMorphism(*values)}) == 2


def test_session_equality_ignores_command_lines():
    a, b = Session(), Session()
    a.command_lines.append((3, "validate E"))
    assert a == b
    a.commands.append(("validate", ["E"]))
    assert a != b


def test_defaults_are_fresh_per_instance():
    a, b = Session(), Session()
    for name in ("varieties", "maps", "corrs", "morphisms", "auts", "refs"):
        assert getattr(a, name) == {} and getattr(a, name) is not getattr(b, name)
    for name in ("decls", "commands", "command_lines"):
        assert getattr(a, name) == [] and getattr(a, name) is not getattr(b, name)
    assert a.field == QQ
    r1, r2 = LawReport(1, 2, ("Q",)), LawReport(1, 2, ("Q",))
    assert r1.results == [] and r1.results is not r2.results
    assert r1.wall_time == 0.0


def test_declared_defaults():
    assert GenBounds() == GenBounds(3, 2, 3, 0.08)
    assert GenBounds(max_n=2).max_deg == 2
    assert AffVariety("pt", (), (), QQ).factors is None


def test_variety_derived_data_is_cached_and_not_compared():
    a = make_variety("A1", ["x"], ["x^2 - x"], QQ)
    b = make_variety("A1", ["x"], ["x^2 - x"], QQ)
    assert a.gb is a.gb and a.ambient is a.ambient
    assert "gb" in vars(a) and "gb" not in vars(b)
    assert a == b and hash(a) == hash(b)


def test_default_reprs_name_every_field():
    for cls, fields in ALL:
        if cls in DEFAULT_REPR:
            body = ", ".join(f"{name}={name!r}" for name in fields)
            assert repr(cls(*fields)) == f"{cls.__qualname__}({body})"
    assert repr(GenBounds()) == ("GenBounds(max_n=3, max_deg=2, max_elementary=3, "
                                 "zero_weight=0.08)")


def test_own_reprs():
    pt = make_variety("pt", [], [], QQ)
    line = make_variety("A1", ["x"], ["x^2 - x"], QQ)
    obj = identity_object(line)
    assert repr(line) == "AffVariety(A1: k[x]/1 gens)"
    assert repr(obj) == "CorrObject(A1 -> A1, n=1)"
    assert repr(CorrMorphism(obj, obj, obj.p)) == (
        "CorrMorphism(CorrObject(A1 -> A1, n=1) => CorrObject(A1 -> A1, n=1))")
    assert repr(VarMorphism(pt, pt, ())) == "VarMorphism(pt -> pt: )"
    assert repr(big_lift(obj)) == "BigBimodule(CorrObject(A1 -> A1, n=1) via A1 -> A1)"
    assert repr(K0Class(())) == "K0Class(0)"
    assert repr(K0Class(((0, 2), (1, -1)))) == "K0Class(2*[0] + -1*[1])"
