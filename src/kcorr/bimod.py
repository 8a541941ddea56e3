"""Correspondences read as bimodules, and the strict pullback layer.

For affine X and Y a correspondence over (X, Y) already is a presented
k[X x Y]-module: the image of its idempotent, with X acting by central
scalars and Y through the generator matrices.  So a ``CorrObject`` is its
own bimodule presentation, and a module homomorphism is a correspondence
morphism, decided by corrcat's one morphism predicate.  A big bimodule is
its root correspondence and the composite base-change morphism; equal
composites give equal values, and every restriction is computed from the
root along the composite, so chains of pullbacks agree on the nose with the
pullback along the composite.  The functor layer does the transport.
"""

from __future__ import annotations

from .corrcat import CorrObject, _check_morphism_data, make_correspondence
from .errors import AmbientMismatch, InvalidMorphism
from .exactalg import Matrix
from .functors import pullback_obj, pushforward_obj
from .values import Frozen, setfield
from .varieties import AffVariety, VarMorphism, compose_maps, identity_map


def make_presentation(X: AffVariety, Y: AffVariety, n: int, proj: Matrix,
                      y_actions) -> CorrObject:
    # goes when its benchmark tracer hook does
    return make_correspondence(X, Y, n, proj, y_actions)


def to_bimodule(obj: CorrObject) -> CorrObject:
    # goes when its benchmark tracer hook does
    return obj


def from_bimodule(pres: CorrObject) -> CorrObject:
    # goes when its benchmark tracer hook does
    return pres


def bimodule_hom_valid(src: CorrObject, dst: CorrObject, mat: Matrix) -> bool:
    """Whether ``mat`` is a k[X x Y]-module map, by corrcat's morphism check.

    Endpoints over different (X, Y), a matrix over another ring and a
    matrix of the wrong shape raise, as they do in ``make_corr_morphism``.
    """
    # goes when its benchmark tracer hook does, with compare-bimodule then
    # calling corrcat itself
    try:
        _check_morphism_data(src, dst, mat)
    except InvalidMorphism:
        return False
    return True


# -- strictly functorial pullback layer -----------------------------------


class BigBimodule(Frozen):
    """A correspondence together with a strict system of base changes.

    The value is the correspondence at its root base and the composite
    base-change morphism reaching the current base, so pulling back along g
    then g1 gives the same value as pulling back along g o g1.  Restrictions
    are computed from the root along the composite, never stored.
    """

    def __init__(self, root: CorrObject, morphism: VarMorphism):
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
    return BigBimodule(obj, identity_map(obj.X))


def restrict_base(big: BigBimodule) -> CorrObject:
    """The correspondence at the current base: the root pulled back along
    the composite morphism."""
    return pullback_obj(big.morphism, big.root)


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
    return BigBimodule(pushforward_obj(h, big.root), big.morphism)
