"""Bimodule presentations of correspondences and the strict pullback layer.

A correspondence over (X, Y) determines a module over k[X x Y]: the image of
its idempotent with X acting by central scalars and Y through the generator
matrices.  Morphism validity on the bimodule side is the same corner and
intertwining condition, checked independently here so the two predicates can
be compared.  A big bimodule is its root presentation and the composite
base-change morphism; equal composites give equal values, and every
restriction is computed from the root along the composite, so chains of
pullbacks agree on the nose with the pullback along the composite.  The
functor layer does the transport.
"""

from __future__ import annotations

from .corrcat import CorrObject, make_correspondence, _trusted_object
from .errors import AmbientMismatch, ShapeError
from .exactalg import Matrix
from .functors import pullback_obj, pushforward_obj
from .values import Frozen, setfield
from .varieties import AffVariety, VarMorphism, compose_maps, identity_map


class BimodulePresentation(Frozen):
    """A presented k[X x Y]-module: idempotent image plus action matrices."""

    def __init__(self, X: AffVariety, Y: AffVariety, n: int, proj: Matrix,
                 y_actions: tuple):
        setfield(self, "X", X)
        setfield(self, "Y", Y)
        setfield(self, "n", n)
        setfield(self, "proj", proj)
        setfield(self, "y_actions", y_actions)  # one matrix per Y-coordinate

    def __repr__(self):
        return f"BimodulePresentation({self.X.name} x {self.Y.name}, n={self.n})"


def make_presentation(X: AffVariety, Y: AffVariety, n: int, proj: Matrix,
                      y_actions) -> BimodulePresentation:
    """Validated presentation; X acts by scalars, so only Y's actions are supplied."""
    return to_bimodule(make_correspondence(X, Y, n, proj, y_actions))


def to_bimodule(obj: CorrObject) -> BimodulePresentation:
    """Repackage a (valid) correspondence as its bimodule presentation."""
    return BimodulePresentation(obj.X, obj.Y, obj.n, obj.p, obj.gen_images)


def from_bimodule(pres: BimodulePresentation) -> CorrObject:
    """The constructive inverse: re-tag the presentation as a correspondence."""
    return _trusted_object(pres.X, pres.Y, pres.n, pres.proj, pres.y_actions)


def bimodule_hom_valid(p: BimodulePresentation, q: BimodulePresentation,
                       mat: Matrix) -> bool:
    """Module-homomorphism test over k[X x Y].

    True when the matrix is fixed by the projectors and intertwines every
    Y-action.  X acts by central scalars, x*proj on each side, so the corner
    law implies the X-intertwining: for an idempotent P and Q with Q m P = m,
    m (xP) = x (mP) = x m = x (Qm) = (xQ) m.
    """
    if p.X != q.X or p.Y != q.Y:
        raise AmbientMismatch("presentations over different (X, Y)")
    if mat.nrows != q.n or mat.ncols != p.n:
        raise ShapeError(f"matrix must be {q.n}x{p.n}")
    if mat.basis != p.proj.basis:
        raise AmbientMismatch("matrix over a different ring")
    if q.proj * mat * p.proj != mat:
        return False
    for a_src, a_dst in zip(p.y_actions, q.y_actions):
        if mat * a_src != a_dst * mat:
            return False
    return True


# -- strictly functorial pullback layer -----------------------------------


class BigBimodule(Frozen):
    """A presentation together with a strict system of base changes.

    The value is the presentation at its root base and the composite
    base-change morphism reaching the current base, so pulling back along g
    then g1 gives the same value as pulling back along g o g1.  Restrictions
    are computed from the root along the composite, never stored.
    """

    def __init__(self, root: BimodulePresentation, morphism: VarMorphism):
        setfield(self, "root", root)
        setfield(self, "morphism", morphism)

    @property
    def base_variety(self) -> AffVariety:
        return self.morphism.source

    def __repr__(self):
        return (f"BigBimodule({self.root!r} via "
                f"{self.base_variety.name} -> {self.root.X.name})")


def big_lift(obj: CorrObject) -> BigBimodule:
    """Lift a correspondence to the strict layer, based at its own X."""
    return BigBimodule(to_bimodule(obj), identity_map(obj.X))


def restrict_base(big: BigBimodule) -> BimodulePresentation:
    """The presentation at the current base: the root pulled back along the
    composite morphism."""
    return to_bimodule(pullback_obj(big.morphism, from_bimodule(big.root)))


def big_pullback(g: VarMorphism, big: BigBimodule) -> BigBimodule:
    """Base change along g; strictly compatible with composition of maps."""
    if g.target != big.base_variety:
        raise AmbientMismatch(
            f"pullback morphism lands in {g.target.name}, object based at "
            f"{big.base_variety.name}")
    return BigBimodule(big.root, compose_maps(big.morphism, g))


def big_pushforward(h: VarMorphism, big: BigBimodule) -> BigBimodule:
    """Relabel the module side along h: Y -> Y'; the base chain is kept."""
    if h.source != big.root.Y:
        raise AmbientMismatch(
            f"pushforward morphism starts at {h.source.name}, object over "
            f"{big.root.Y.name}")
    return BigBimodule(to_bimodule(pushforward_obj(h, from_bimodule(big.root))),
                       big.morphism)
