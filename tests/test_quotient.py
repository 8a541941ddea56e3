import pytest

from kcorr.exactalg import (DEGREVLEX, QQ, Ambient, GroebnerBasis, Matrix, Poly,
                            PrimeField, QElem, buchberger)


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["Q", "F5"])
def test_one_zero_per_ring(field):
    amb = Ambient(("x", "y"), field, DEGREVLEX)
    x, y = Poly.variable(amb, "x"), Poly.variable(amb, "y")
    basis = buchberger([x * y - Poly.one(amb)])
    zero = QElem.zero(basis)
    assert QElem.zero(basis) is zero
    assert zero.is_zero()
    fresh = QElem(basis, Poly.zero(amb), reduced=True)
    assert zero == fresh
    assert hash(zero) == hash(fresh)
    assert QElem.zero(GroebnerBasis(amb, basis.gens)) == zero
    assert all(entry is zero for row in Matrix.zeros(basis, 2, 3).rows for entry in row)
