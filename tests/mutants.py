"""Deliberately wrong stand-ins for kcorr functions, for the mutation tests.

Each mutant replaces the function its docstring names under
``monkeypatch.setattr``, and its docstring names the tests that catch it:
the law families, the debug-mode validation or an oracle must tell it from
the true function.
"""

from kcorr import functors, pairing
from kcorr.corrcat import CorrMorphism
from kcorr.exactalg import Matrix, QElem

_true_flatten = pairing.flatten_blocks
_true_interleave = pairing._interleave_permutation
_true_pull = functors.pull_matrices
_true_aut_morphism_from_torus = functors.aut_morphism_from_torus


def shuffled_flatten(blocks):
    """Wrong interleaving: outer index varies fastest.

    Stands in for ``pairing.flatten_blocks``.  The interchange law and the
    outer sum certificate catch it in release mode
    (``test_laws.py::test_mutated_flatten_caught_by_interchange_within_25_cases``,
    ``test_pairing.py::test_wrong_flatten_caught_by_outer_sum_certificate``),
    debug-mode validation catches it
    (``test_pairing.py::test_broken_composites_are_internal_violations_in_debug_mode``),
    and so does the Kronecker oracle
    (``test_acceptance.py::test_criterion_10_pairing_matches_kronecker_oracle``).
    The failure-report tests of ``test_laws.py`` use it for their failures.
    """
    blocks = [list(row) for row in blocks]
    nrows = len(blocks)
    ncols = len(blocks[0])
    inner = blocks[0][0].nrows
    basis = blocks[0][0].basis
    z = QElem.zero(basis)
    out = [[z] * (ncols * inner) for _ in range(nrows * inner)]
    for a in range(nrows):
        for b in range(ncols):
            blk = blocks[a][b]
            for i in range(inner):
                for j in range(inner):
                    out[i * nrows + a][j * ncols + b] = blk.rows[i][j]
    return Matrix(basis, out, nrows * inner, ncols * inner)


def doubled_flatten(blocks):
    """Twice the true flattening.

    Stands in for ``pairing.flatten_blocks``.  Debug-mode validation of the
    composites built on it catches it:
    ``test_pairing.py::test_broken_composites_are_internal_violations_in_debug_mode``,
    ``test_functors.py::test_corrupted_pullback_is_an_internal_violation`` and
    ``test_bimod.py::test_corrupted_restriction_is_an_internal_violation``.
    """
    mat = _true_flatten(blocks)
    return mat + mat


def doubled_pull_matrices(f, mats):
    """Every matrix the functors pull back along a map twice the true one.

    Stands in for ``functors.pull_matrices``.  Debug-mode validation of the
    torus split catches it:
    ``test_functors.py::test_corrupted_torus_object_is_an_internal_violation``.
    """
    return [m + m for m in _true_pull(f, mats)]


def reversed_interleave_permutation(*ns):
    """The direct-sum interleave in reverse order.

    Stands in for ``pairing._interleave_permutation``.  The swapped blocks
    keep the idempotents but no longer intertwine the generator images, so
    the ``sum-certificate-inner`` check of ``pairing-bifunctor`` catches it:
    ``test_laws.py::test_wrong_sum_permutation_caught_by_sum_certificate``.
    """
    return list(reversed(_true_interleave(*ns)))


def forgetful_aut_morphism_from_torus(mor):
    """Morphism transport whose target forgets its torus action.

    Stands in for ``functors.aut_morphism_from_torus``: the target's
    automorphisms become units, a valid automorphism object that the
    underlying morphism does not intertwine.  The ``morphism-transport``
    check of ``torus-isomorphism`` catches it in release mode:
    ``test_laws.py::test_corrupted_transport_theta_caught_in_release_mode``.
    """
    amor = _true_aut_morphism_from_torus(mor)
    base = amor.dst.base
    unit = CorrMorphism(base, base, base.p)
    dst = functors.AutObject(base, tuple((unit, unit) for _ in amor.dst.thetas))
    return functors.AutMorphism(amor.src, dst, amor.underlying)
