"""Certificate-driven Grothendieck group of a correspondence category.

Isomorphism of objects is only ever *established* by an explicit certificate
(there is no decision procedure for idempotent conjugacy over polynomial
rings at this scale), and only ever *refuted* by an invariant; the rank of
the idempotent over the fraction field is the invariant shipped here.  A
ledger therefore brackets each class query: certificates give the lower
bound (merges), ranks the upper bound (separations), and the report says
when the brackets disagree rather than guessing.

``bracket`` is that policy in one call: it registers objects over one
(X, Y) in a fresh ledger, searches certificates only over (pt, pt), ranks
only over a base without relations, and returns the pairs of classes that
neither bracket separates.
"""

from __future__ import annotations

from itertools import combinations

from .corrcat import (CorrObject, IsoCertificate, direct_sum, identity_morphism,
                      make_corr_morphism, verify_iso)
from .errors import (AmbientMismatch, InvalidCertificate, NotIntegral,
                     UnknownObject)
from .exactalg import rank_factorization, rank_over_fraction_field
from .pairing import compose_objects, compose_morphisms
from .values import Frozen, setfield


def rank(obj: CorrObject, assume_integral: bool = False) -> int:
    """Rank of the idempotent over Frac(k[X]); X must be integral.

    A zero ideal is integral on the nose; any other presentation needs the
    caller's assertion, since primality is not decided here.
    """
    if obj.X.ideal_gens and not assume_integral:
        raise NotIntegral(
            f"{obj.X.name} has relations; pass assume_integral=True if its ideal is prime")
    return rank_over_fraction_field(obj.p)


def pt_conjugation_certificate(a: CorrObject, b: CorrObject) -> IsoCertificate | None:
    """Search for an isomorphism between objects over a point base.

    Factors each idempotent as ``p = C * R`` with ``R * C = 1`` (C its
    pivot columns, R the nonzero rows of its reduced echelon form).  Equal
    ranks give the mutually inverse maps ``C_b * R_a`` and ``C_a * R_b``
    between the images, even when the sizes n differ; different ranks give
    None.  Over (pt, pt) the entries are scalars, so the search is exact.
    """
    if not (a.X.is_point() and a.Y.is_point()):
        raise AmbientMismatch("conjugation search is only available over (pt, pt)")
    if a.X != b.X or a.Y != b.Y:
        raise AmbientMismatch("objects over different (X, Y)")

    cols_a, rows_a = rank_factorization(a.p)
    cols_b, rows_b = rank_factorization(b.p)
    if cols_a.ncols != cols_b.ncols:
        return None
    cert = IsoCertificate(make_corr_morphism(a, b, cols_b * rows_a),
                          make_corr_morphism(b, a, cols_a * rows_b))
    return cert if verify_iso(cert) else None


# -- the ledger -------------------------------------------------------------


class K0Class(Frozen):
    """Canonical integer combination of partition representatives."""

    def __init__(self, terms: tuple):
        # ((representative id, coefficient), ...) sorted by id
        setfield(self, "terms", terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __repr__(self):
        if not self.terms:
            return "K0Class(0)"
        body = " + ".join(f"{c}*[{i}]" for i, c in self.terms)
        return f"K0Class({body})"


class K0Ledger:
    """Union-find over registered objects, refined only by verified witnesses."""

    def __init__(self, X, Y):
        self.X = X
        self.Y = Y
        self._ids: dict[CorrObject, int] = {}
        self._objects: list[CorrObject] = []
        self._parent: list[int] = []
        self._sum_rules: dict[int, tuple[int, int]] = {}

    # registration ---------------------------------------------------------

    def register(self, obj: CorrObject) -> int:
        if obj.X != self.X or obj.Y != self.Y:
            raise AmbientMismatch("object over a different (X, Y) than the ledger")
        existing = self._ids.get(obj)
        if existing is not None:
            return existing
        idx = len(self._objects)
        self._ids[obj] = idx
        self._objects.append(obj)
        self._parent.append(idx)
        return idx

    def object_of(self, idx: int) -> CorrObject:
        return self._objects[idx]

    def id_of(self, obj: CorrObject) -> int:
        idx = self._ids.get(obj)
        if idx is None:
            raise UnknownObject(f"{obj!r} was never registered")
        return idx

    # union-find -----------------------------------------------------------

    def find(self, idx: int) -> int:
        root = idx
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[idx] != root:
            self._parent[idx], idx = root, self._parent[idx]
        return root

    def _union(self, i: int, j: int):
        ri, rj = self.find(i), self.find(j)
        if ri != rj:
            if rj < ri:
                ri, rj = rj, ri
            self._parent[rj] = ri

    def classes(self) -> list[list[int]]:
        groups: dict[int, list[int]] = {}
        for idx in range(len(self._objects)):
            groups.setdefault(self.find(idx), []).append(idx)
        return [groups[r] for r in sorted(groups)]


def k0_register(ledger: K0Ledger, cert: IsoCertificate) -> K0Ledger:
    """Merge the endpoint classes of a verified certificate; idempotent."""
    if not verify_iso(cert):
        raise InvalidCertificate("certificate round trips are not identities")
    i = ledger.register(cert.fwd.src)
    j = ledger.register(cert.fwd.dst)
    ledger._union(i, j)
    return ledger


def k0_register_sum(ledger: K0Ledger, whole: CorrObject, left: CorrObject,
                    right: CorrObject) -> K0Ledger:
    """Record [whole] = [left] + [right]; ``whole`` must be the literal sum."""
    if whole != direct_sum(left, right):
        raise InvalidCertificate("object is not the direct sum of the given parts")
    w = ledger.register(whole)
    l = ledger.register(left)
    r = ledger.register(right)
    # a size-0 part makes whole identical to the other part: nothing to record
    if left.n and right.n:
        ledger._sum_rules.setdefault(w, (l, r))
    return ledger


def k0_class(ledger: K0Ledger, formal_sum) -> K0Class:
    """Canonical form of an integer combination of registered objects.

    Sum rules split registered direct sums into their parts, then ids merge
    through the partition; the result is monotone under new certificates.
    """
    work: list[tuple[int, int]] = []
    for coeff, obj in formal_sum:
        work.append((int(coeff), ledger.id_of(obj)))
    expanded: dict[int, int] = {}
    while work:
        coeff, idx = work.pop()
        if coeff == 0 or ledger.object_of(idx).n == 0:
            continue  # the zero object is the zero class
        rule = ledger._sum_rules.get(idx)
        if rule is not None:
            work.append((coeff, rule[0]))
            work.append((coeff, rule[1]))
            continue
        root = ledger.find(idx)
        expanded[root] = expanded.get(root, 0) + coeff
    terms = tuple(sorted((i, c) for i, c in expanded.items() if c != 0))
    return K0Class(terms)


def bracket(objects) -> tuple[K0Ledger, dict[int, int] | None, list[tuple[int, int]]]:
    """Bracket the classes of ``objects``, all over one (X, Y).

    Returns the ledger, merged by every certificate found; the rank of each
    id, or None when the base has relations; and the id pairs ``i < j`` in
    different classes that no rank separates.
    """
    objects = list(objects)
    ledger = K0Ledger(objects[0].X, objects[0].Y)
    ids = sorted({ledger.register(obj) for obj in objects})
    if ledger.X.is_point() and ledger.Y.is_point():
        for i, j in combinations(ids, 2):
            cert = pt_conjugation_certificate(ledger.object_of(i), ledger.object_of(j))
            if cert is not None:  # verified by the search
                ledger._union(i, j)
    ranks = None if ledger.X.ideal_gens else {i: rank(ledger.object_of(i)) for i in ids}
    unresolved = [(i, j) for i, j in combinations(ids, 2)
                  if ledger.find(i) != ledger.find(j)
                  and (ranks is None or ranks[i] == ranks[j])]
    return ledger, ranks, unresolved


def k0_compose(ledger_first: K0Ledger, ledger_second: K0Ledger,
               sum_first, sum_second, target: K0Ledger) -> K0Class:
    """Bilinear composition of classes on chosen representatives.

    Representatives are the partition roots of the given objects, composed
    pairwise and registered into the target ledger over (first.X, second.Y).
    """
    out = []
    cls_first = k0_class(ledger_first, sum_first)
    cls_second = k0_class(ledger_second, sum_second)
    for i, ci in cls_first.terms:
        rep_i = ledger_first.object_of(ledger_first.find(i))
        for j, cj in cls_second.terms:
            rep_j = ledger_second.object_of(ledger_second.find(j))
            composite = compose_objects(rep_i, rep_j)
            target.register(composite)
            out.append((ci * cj, composite))
    return k0_class(target, out)


def transport_certificate(cert: IsoCertificate, other: CorrObject,
                          side: str = "right") -> IsoCertificate:
    """Compose a certificate with the identity of ``other`` on one side.

    Well-definedness of class composition is enforced by tests through these
    transported witnesses.
    """
    ident = identity_morphism(other)
    if side == "right":
        return IsoCertificate(compose_morphisms(ident, cert.fwd),
                              compose_morphisms(ident, cert.bwd))
    return IsoCertificate(compose_morphisms(cert.fwd, ident),
                          compose_morphisms(cert.bwd, ident))
