"""Deliberately wrong flatteners of a block matrix, for the mutation tests.

Each stands in for ``pairing.flatten_blocks`` under ``monkeypatch``; the
law families and the debug-mode validation must catch them.
"""

from kcorr import pairing
from kcorr.exactalg import Matrix, QElem

_true_flatten = pairing.flatten_blocks


def shuffled_flatten(blocks):
    """Wrong interleaving: outer index varies fastest."""
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
    """Twice the true flattening."""
    mat = _true_flatten(blocks)
    return mat + mat
