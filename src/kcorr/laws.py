"""Randomized harness for the categorical identities the engine guarantees.

Fourteen law families run over both supported fields on seeded random data;
every check is an exact data equality, so a single failing case falsifies
the implementation.  A failing case reports every one of its failing checks,
in check order.  Failures carry the seed, the case index and the inputs of
the failing check as a session (``serialize_case``), which ``kcorr print``
and ``kcorr run`` accept unless an input lives over a product variety.
"""

from __future__ import annotations

import random
import time

from .corrcat import (add_morphisms, compose_vertical, graph_object,
                      identity_morphism, identity_object, make_corr_morphism,
                      scale_morphism, zero_morphism)
from .errors import KcorrError
from .exactalg import Field, PrimeField, QQ
from . import bimod
from . import functors
from . import pairing
from .randomgen import (GenBounds, derive_seed, random_aut_object,
                        random_endo_matrix, random_morphism_from,
                        random_object, random_scalar, sample_map)
from .session import Session, format_decls, format_field
from .values import Value
from .varieties import (compose_maps, gm_power, identity_map, make_variety,
                        point, product_morphism, split_torus)

LAW_BOUNDS = GenBounds(max_n=2, max_deg=1, max_elementary=1, zero_weight=0.05)


def law_pool(field: Field) -> tuple:
    """The varieties the laws draw from: pt, A1, TwoPts and Gm1 over ``field``."""
    return (point(field), make_variety("A1", ["x"], [], field),
            make_variety("TwoPts", ["y"], ["y^2 - y"], field), gm_power(1, field))


class LawFailure(Value):
    def __init__(self, law: str, check: str, field: str, case_index: int,
                 seed: int, message: str, inputs: str):
        self.law = law
        self.check = check
        self.field = field
        self.case_index = case_index
        self.seed = seed
        self.message = message
        self.inputs = inputs

    def as_dict(self):
        return {
            "law": self.law, "check": self.check, "field": self.field,
            "case": self.case_index, "seed": self.seed,
            "message": self.message, "inputs": self.inputs,
        }


class LawResult(Value):
    def __init__(self, law: str, field: str, cases: int, failures: list):
        self.law = law
        self.field = field
        self.cases = cases
        self.failures = failures

    @property
    def ok(self) -> bool:
        return not self.failures


class LawReport(Value):
    def __init__(self, seed: int, cases: int, fields: tuple,
                 results: list | None = None, wall_time: float = 0.0):
        self.seed = seed
        self.cases = cases
        self.fields = fields
        self.results = [] if results is None else results
        self.wall_time = wall_time

    @property
    def failures(self):
        return [f for r in self.results for f in r.failures]

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def exit_code(self) -> int:
        return 0 if self.ok else 1

    def to_text(self) -> str:
        lines = [f"law suite: seed={self.seed} cases={self.cases} "
                 f"fields={','.join(self.fields)}"]
        for r in self.results:
            status = "PASS" if r.ok else "FAIL"
            lines.append(f"{status} {r.law:<28} field={r.field:<3} cases={r.cases}"
                         + ("" if r.ok else f" failures={len(r.failures)}"))
        for f in self.failures:
            lines.append(f"--- failure: law={f.law} check={f.check} field={f.field} "
                         f"case={f.case_index} seed={f.seed}")
            lines.append(f"    {f.message}")
            for chunk in f.inputs.splitlines():
                lines.append(f"    | {chunk}")
        lines.append(f"result: {'ok' if self.ok else f'{len(self.failures)} failures'}")
        lines.append(f"wall-time: {self.wall_time:.3f}s")
        return "\n".join(lines) + "\n"

    def to_json_lines(self) -> str:
        import json  # on first use, so `kcorr run` start-up skips it
        lines = []
        for r in self.results:
            lines.append(json.dumps({
                "law": r.law, "field": r.field, "cases": r.cases,
                "failures": [f.as_dict() for f in r.failures],
            }, sort_keys=True))
        lines.append(json.dumps({
            "summary": {"seed": self.seed, "cases": self.cases,
                        "fields": list(self.fields),
                        "failures": len(self.failures)},
            "wall_time": round(self.wall_time, 3),
        }, sort_keys=True))
        return "\n".join(lines) + "\n"


# -- case serialization -------------------------------------------------------


def serialize_case(inputs: dict, field) -> str:
    """The inputs of a case as a session: the field line, then each input
    declared by ``Session.declare`` under its keyword name.

    ``parse_session`` reads the text back with every input equal to the
    original, except inputs over product varieties: their variables contain
    the reserved ``.``, which session declarations reject.
    """
    session = Session(field=field)
    for name, value in inputs.items():
        session.declare(name, value)
    return "\n".join([format_field(field), *format_decls(session)])


class Ctx:
    """Per-(law, field) context: variety pool, seeded sampling helpers, the
    index of the current case and the failures of the law over this field,
    each recorded complete where its check fails."""

    def __init__(self, law: str, field: Field, seed: int):
        self.law = law
        self.field = field
        self.seed = seed
        self.case = 0
        self.bounds = LAW_BOUNDS
        self.failures = []
        self.pool = law_pool(field)

    def rand_variety(self, rng):
        return rng.choice(self.pool)

    def rand_obj(self, rng, x=None, y=None, min_n=0):
        x = x if x is not None else self.rand_variety(rng)
        y = y if y is not None else self.rand_variety(rng)
        obj = random_object(x, y, rng=rng, bounds=self.bounds)
        tries = 0
        while obj.n < min_n and tries < 8:
            obj = random_object(x, y, rng=rng, bounds=self.bounds)
            tries += 1
        return obj

    def rand_map(self, rng, src=None, dst=None):
        src = src if src is not None else self.rand_variety(rng)
        dst = dst if dst is not None else self.rand_variety(rng)
        return sample_map(src, dst, rng, self.bounds.max_deg)

    def fail(self, check: str, message: str, inputs: str):
        self.failures.append(LawFailure(self.law, check, self.field.name,
                                        self.case, self.seed, message, inputs))

    def check(self, name: str, thunk, **inputs):
        """Run one check; a failure is recorded with its inputs serialized,
        and the case goes on."""
        try:
            if thunk() is not False:
                return
            message = "exact identity failed"
        except Exception as exc:  # exact laws: any blowup is a finding
            message = f"{type(exc).__name__}: {exc}"
        self.fail(name, message, serialize_case(inputs, self.field))


# -- the fourteen families ----------------------------------------------------


def law_pairing_bifunctor(ctx: Ctx, rng: random.Random):
    v, u, x = (ctx.rand_variety(rng) for _ in range(3))
    inner = ctx.rand_obj(rng, v, u, min_n=2 if rng.random() < 0.6 else 0)
    outer = ctx.rand_obj(rng, u, x, min_n=2 if rng.random() < 0.6 else 0)
    a1 = random_morphism_from(inner, rng, ctx.bounds)
    b1 = random_morphism_from(a1.dst, rng, ctx.bounds)
    a2 = random_morphism_from(outer, rng, ctx.bounds)
    b2 = random_morphism_from(a2.dst, rng, ctx.bounds)

    ctx.check("unit-object", lambda: pairing.compose_morphisms(
        identity_morphism(outer), identity_morphism(inner)).mat
        == pairing.compose_objects(inner, outer).p, inner=inner, outer=outer)

    ctx.check("zero-absorption", lambda: pairing.compose_morphisms(
        a2, zero_morphism(inner, inner)).mat.is_zero(), inner=inner, a2=a2)

    def interchange():
        lhs = pairing.compose_morphisms(compose_vertical(b2, a2),
                                        compose_vertical(b1, a1))
        rhs = compose_vertical(pairing.compose_morphisms(b2, b1),
                               pairing.compose_morphisms(a2, a1))
        return lhs == rhs

    ctx.check("interchange", interchange, a1=a1, b1=b1, a2=a2, b2=b2)

    c = random_scalar(ctx.field, rng)
    alt = make_corr_morphism(a1.src, a1.dst,
                             a1.dst.p * a1.mat * random_endo_matrix(inner, rng))

    def linear():
        lhs = pairing.compose_morphisms(a2, add_morphisms(a1, alt))
        rhs = add_morphisms(pairing.compose_morphisms(a2, a1),
                            pairing.compose_morphisms(a2, alt))
        lhs2 = pairing.compose_morphisms(scale_morphism(a2, c), a1)
        rhs2 = scale_morphism(pairing.compose_morphisms(a2, a1), c)
        return lhs.mat == rhs.mat and lhs2.mat == rhs2.mat

    ctx.check("bilinearity", linear, a1=a1, a2=a2)

    small = GenBounds(max_n=1, max_deg=ctx.bounds.max_deg,
                      max_elementary=1, zero_weight=0.1)
    sa = random_object(v, u, rng=rng, bounds=small)
    sb = random_object(v, u, rng=rng, bounds=small)
    sc = random_object(u, x, rng=rng, bounds=small)
    ctx.check("sum-certificate-inner", lambda: _certificate_valid(
        pairing.sum_split_certificate_inner(sa, sb, sc)), a=sa, b=sb, c=sc)
    sd = random_object(u, x, rng=rng, bounds=small)
    ctx.check("sum-certificate-outer", lambda: _certificate_valid(
        pairing.sum_split_certificate_outer(sa, sc, sd)), a=sa, c=sc, d=sd)


def _certificate_valid(cert) -> bool:
    """``verify_iso`` compares idempotents only: the witnesses must also be
    morphisms, i.e. intertwine the generator images (a failure raises)."""
    return all(make_corr_morphism(m.src, m.dst, m.mat) for m in (cert.fwd, cert.bwd))


def law_pairing_units(ctx: Ctx, rng: random.Random):
    u, x = ctx.rand_variety(rng), ctx.rand_variety(rng)
    obj = ctx.rand_obj(rng, u, x)
    mor = random_morphism_from(obj, rng, ctx.bounds)
    id_u = identity_object(u)
    id_x = identity_object(x)
    ctx.check("left-unit-object",
              lambda: pairing.compose_objects(id_u, obj) == obj, obj=obj)
    ctx.check("right-unit-object",
              lambda: pairing.compose_objects(obj, id_x) == obj, obj=obj)
    ctx.check("left-unit-morphism",
              lambda: pairing.compose_morphisms(mor, identity_morphism(id_u)).mat
              == mor.mat, mor=mor)
    ctx.check("right-unit-morphism",
              lambda: pairing.compose_morphisms(identity_morphism(id_x), mor).mat
              == mor.mat, mor=mor)


def _rand_triple(ctx, rng):
    w, v, u, x = (ctx.rand_variety(rng) for _ in range(4))
    return (ctx.rand_obj(rng, w, v), ctx.rand_obj(rng, v, u),
            ctx.rand_obj(rng, u, x))


def law_pairing_associativity(ctx: Ctx, rng: random.Random):
    phi1, phi2, phi3 = _rand_triple(ctx, rng)

    ctx.check("object-associativity",
              lambda: pairing.strict_associativity_check(phi1, phi2, phi3),
              phi1=phi1, phi2=phi2, phi3=phi3)


def law_pairing_square(ctx: Ctx, rng: random.Random):
    phi1, phi2, phi3 = _rand_triple(ctx, rng)
    m1 = random_morphism_from(phi1, rng, ctx.bounds)
    m2 = random_morphism_from(phi2, rng, ctx.bounds)
    m3 = random_morphism_from(phi3, rng, ctx.bounds)

    def square():
        lhs = pairing.compose_morphisms(m3, pairing.compose_morphisms(m2, m1))
        rhs = pairing.compose_morphisms(pairing.compose_morphisms(m3, m2), m1)
        return lhs == rhs

    ctx.check("morphism-associativity", square, m1=m1, m2=m2, m3=m3)


def law_box_compose_objects(ctx: Ctx, rng: random.Random):
    f1 = ctx.rand_map(rng)
    f2 = ctx.rand_map(rng, src=f1.target)
    xa, xb, xc = (ctx.rand_variety(rng) for _ in range(3))
    phi1 = ctx.rand_obj(rng, xa, xb)
    phi2 = ctx.rand_obj(rng, xb, xc)

    def law():
        lhs = functors.box_product(compose_maps(f2, f1),
                                   pairing.compose_objects(phi1, phi2))
        rhs = pairing.compose_objects(functors.box_product(f1, phi1),
                                      functors.box_product(f2, phi2))
        return lhs == rhs

    ctx.check("box-compose-objects", law, f1=f1, f2=f2, phi1=phi1, phi2=phi2)


def law_box_unit_square(ctx: Ctx, rng: random.Random):
    f = ctx.rand_map(rng)
    u, v = f.source, f.target
    obj = ctx.rand_obj(rng)
    x, y = obj.X, obj.Y

    def law():
        left = functors.pullback_obj(product_morphism(identity_map(x), f),
                                     functors.box_product(identity_map(v), obj))
        right = functors.pushforward_obj(product_morphism(identity_map(y), f),
                                         functors.box_product(identity_map(u), obj))
        return left == right

    ctx.check("box-unit-square", law, f=f, obj=obj)


def law_torus_isomorphism(ctx: Ctx, rng: random.Random):
    x = ctx.rand_variety(rng)
    y = rng.choice(ctx.pool[:3])
    arity = rng.choice((1, 2))
    aut = random_aut_object(x, y, arity, rng=rng, bounds=ctx.bounds)
    ctx.check("merge-then-split",
              lambda: functors.to_automorphism_object(
                  functors.to_torus_object(aut)) == aut, aut=aut)
    torus_obj = functors.to_torus_object(aut)
    ctx.check("split-then-merge",
              lambda: functors.to_torus_object(
                  functors.to_automorphism_object(torus_obj)) == torus_obj,
              torus_obj=torus_obj)
    mor = random_morphism_from(torus_obj, rng, ctx.bounds)

    def transport():  # both transports are trusted: re-run the input checks
        amor = functors.aut_morphism_from_torus(mor)
        functors.make_aut_morphism(
            *(functors.make_aut_object(a.base, a.thetas) for a in (amor.src, amor.dst)),
            amor.underlying)
        back = functors.torus_morphism_from_aut(amor)
        return make_corr_morphism(back.src, back.dst, back.mat).mat == mor.mat

    ctx.check("morphism-transport", transport, mor=mor)


def law_pull_push(ctx: Ctx, rng: random.Random):
    obj = ctx.rand_obj(rng)
    f = ctx.rand_map(rng, dst=obj.X)
    f2 = ctx.rand_map(rng, dst=f.source)
    g = ctx.rand_map(rng, src=obj.Y)
    g2 = ctx.rand_map(rng, src=g.target)
    mor = random_morphism_from(obj, rng, ctx.bounds)

    ctx.check("pullback-chain",
              lambda: functors.pullback_obj(f2, functors.pullback_obj(f, obj))
              == functors.pullback_obj(compose_maps(f, f2), obj),
              obj=obj, f=f, f2=f2)
    ctx.check("pushforward-chain",
              lambda: functors.pushforward_obj(g2, functors.pushforward_obj(g, obj))
              == functors.pushforward_obj(compose_maps(g2, g), obj),
              obj=obj, g=g, g2=g2)
    ctx.check("pull-push-commute",
              lambda: functors.pushforward_obj(g, functors.pullback_obj(f, obj))
              == functors.pullback_obj(f, functors.pushforward_obj(g, obj)),
              obj=obj, f=f, g=g)
    ctx.check("pull-push-commute-morphism",
              lambda: functors.pushforward_mor(g, functors.pullback_mor(f, mor)).mat
              == functors.pullback_mor(f, functors.pushforward_mor(g, mor)).mat,
              mor=mor, f=f, g=g)


def law_box_graph(ctx: Ctx, rng: random.Random):
    f = ctx.rand_map(rng)
    h = ctx.rand_map(rng)
    ctx.check("box-graph",
              lambda: functors.box_product(f, graph_object(h))
              == graph_object(product_morphism(h, f)), f=f, h=h)


def law_box_compose_morphisms(ctx: Ctx, rng: random.Random):
    f1 = ctx.rand_map(rng)
    f2 = ctx.rand_map(rng, src=f1.target)
    xa, xb, xc = (ctx.rand_variety(rng) for _ in range(3))
    m1 = random_morphism_from(ctx.rand_obj(rng, xa, xb), rng, ctx.bounds)
    m2 = random_morphism_from(ctx.rand_obj(rng, xb, xc), rng, ctx.bounds)

    def law():
        lhs = functors.box_mor(compose_maps(f2, f1),
                               pairing.compose_morphisms(m2, m1))
        rhs = pairing.compose_morphisms(functors.box_mor(f2, m2),
                                        functors.box_mor(f1, m1))
        return lhs == rhs

    ctx.check("box-compose-morphisms", law, f1=f1, f2=f2, m1=m1, m2=m2)


def law_bimod_pullback_chain(ctx: Ctx, rng: random.Random):
    obj = ctx.rand_obj(rng)
    lifted = bimod.big_lift(obj)
    g = ctx.rand_map(rng, dst=obj.X)
    g1 = ctx.rand_map(rng, dst=g.source)

    def law():
        two_step = bimod.big_pullback(g1, bimod.big_pullback(g, lifted))
        one_step = bimod.big_pullback(compose_maps(g, g1), lifted)
        return (two_step == one_step
                and bimod.restrict_base(two_step) == bimod.restrict_base(one_step))

    ctx.check("strict-pullback-chain", law, obj=obj, g=g, g1=g1)


def law_bimod_pushforward_chain(ctx: Ctx, rng: random.Random):
    obj = ctx.rand_obj(rng)
    lifted = bimod.big_lift(obj)
    h = ctx.rand_map(rng, src=obj.Y)
    h1 = ctx.rand_map(rng, src=h.target)
    g = ctx.rand_map(rng, dst=obj.X)

    def chain():
        two_step = bimod.big_pushforward(h1, bimod.big_pushforward(h, lifted))
        one_step = bimod.big_pushforward(compose_maps(h1, h), lifted)
        return (two_step == one_step
                and bimod.restrict_base(two_step) == bimod.restrict_base(one_step))

    ctx.check("strict-pushforward-chain", chain, obj=obj, h=h, h1=h1)

    def mixed():
        a = bimod.big_pushforward(h, bimod.big_pullback(g, lifted))
        b = bimod.big_pullback(g, bimod.big_pushforward(h, lifted))
        return a == b and bimod.restrict_base(a) == bimod.restrict_base(b)

    ctx.check("pull-push-mixed", mixed, obj=obj, g=g, h=h)


def _rand_torus_object(ctx, rng, arity):
    y = rng.choice(ctx.pool[:3])
    x = ctx.rand_variety(rng)
    return functors.to_torus_object(
        random_aut_object(x, y, arity, rng=rng, bounds=ctx.bounds))


def law_torus_pullback_naturality(ctx: Ctx, rng: random.Random):
    arity = rng.choice((1, 2))
    torus_obj = _rand_torus_object(ctx, rng, arity)
    f = ctx.rand_map(rng, dst=torus_obj.X)

    def law():
        lhs = functors.pullback_aut(f, functors.to_automorphism_object(torus_obj))
        rhs = functors.to_automorphism_object(functors.pullback_obj(f, torus_obj))
        return lhs == rhs

    ctx.check("split-pullback-naturality", law, torus_obj=torus_obj, f=f)


def law_torus_pushforward_naturality(ctx: Ctx, rng: random.Random):
    arity = rng.choice((1, 2))
    torus_obj = _rand_torus_object(ctx, rng, arity)
    y_base, torus, _ = split_torus(torus_obj.Y)
    g = ctx.rand_map(rng, src=y_base)

    def law():
        lhs = functors.pushforward_aut(g, functors.to_automorphism_object(torus_obj))
        rhs = functors.to_automorphism_object(
            functors.pushforward_obj(product_morphism(g, identity_map(torus)),
                                     torus_obj))
        return lhs == rhs

    ctx.check("split-pushforward-naturality", law, torus_obj=torus_obj, g=g)


LAW_FAMILIES = (
    ("pairing-bifunctor", law_pairing_bifunctor),
    ("pairing-units", law_pairing_units),
    ("pairing-associativity", law_pairing_associativity),
    ("pairing-square-strict", law_pairing_square),
    ("box-compose-objects", law_box_compose_objects),
    ("box-unit-square", law_box_unit_square),
    ("torus-isomorphism", law_torus_isomorphism),
    ("pull-push-functoriality", law_pull_push),
    ("box-graph", law_box_graph),
    ("box-compose-morphisms", law_box_compose_morphisms),
    ("bimod-pullback-chain", law_bimod_pullback_chain),
    ("bimod-pushforward-chain", law_bimod_pushforward_chain),
    ("torus-pullback-naturality", law_torus_pullback_naturality),
    ("torus-pushforward-naturality", law_torus_pushforward_naturality),
)

LAW_NAMES = tuple(name for name, _ in LAW_FAMILIES)


def law_suite(seed: int, cases: int, fields=None, laws=None) -> LawReport:
    """Run every law family on ``cases`` random instances per field, drawn
    within ``LAW_BOUNDS``."""
    if cases < 1:
        raise KcorrError("cases must be >= 1")
    if fields is None:
        fields = (PrimeField(5), QQ)
    selected = [(n, f) for n, f in LAW_FAMILIES if laws is None or n in laws]
    report = LawReport(seed=seed, cases=cases,
                       fields=tuple(f.name for f in fields))
    start = time.perf_counter()
    for law_name, law_fn in selected:
        for field in fields:
            ctx = Ctx(law_name, field, seed)
            for ctx.case in range(cases):
                rng = random.Random(derive_seed(seed, law_name, field.name, ctx.case))
                try:
                    law_fn(ctx, rng)
                except Exception as exc:  # a generator blowup is also a finding
                    ctx.fail("case-setup", f"{type(exc).__name__}: {exc}", "")
            report.results.append(LawResult(law_name, field.name, cases, ctx.failures))
    report.wall_time = time.perf_counter() - start
    return report
