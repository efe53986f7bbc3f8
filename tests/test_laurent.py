from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from floordiag.laurent import (
    LaurentPoly,
    divide_exact,
    poly_geq,
    prod,
    quantum_integer,
)


def q(k):
    return quantum_integer(k)


def test_quantum_integer_small():
    assert q(1) == LaurentPoly({0: 1})
    assert q(2) == LaurentPoly({1: 1, -1: 1})
    assert q(3) == LaurentPoly({2: 1, 0: 1, -2: 1})


def test_quantum_integer_rejects_nonpositive():
    with pytest.raises(ValueError):
        q(0)
    with pytest.raises(ValueError):
        q(-3)


@pytest.mark.parametrize("k", range(1, 13))
def test_quantum_integer_shape(k):
    p = q(k)
    assert p.is_symmetric()
    assert p.degree() == Fraction(k - 1, 2)
    assert len(p.key()) == k
    assert all(c == 1 for _, c in p.key())


def test_mul_examples():
    assert q(2) * q(2) == LaurentPoly({2: 1, 0: 2, -2: 1})
    p = LaurentPoly({7: 3, -4: 1})
    assert q(1) * p == p
    # computed by direct expansion; equals [5] + [3] by the product identity
    assert q(2) * q(4) == LaurentPoly({4: 1, 2: 2, 0: 2, -2: 2, -4: 1})
    assert q(2) * q(4) == q(5) + q(3)


def test_divide_exact_examples():
    assert divide_exact(prod([q(2), q(1), q(3)]), q(2)) == q(3)
    assert divide_exact(q(6), q(2)) == q(3).substitute_q_squared()
    assert divide_exact(prod([q(2), q(2), q(4)]), q(2)) == q(2) * q(4)


def test_divide_exact_rejects_inexact():
    with pytest.raises(ValueError):
        divide_exact(q(3), q(2))
    with pytest.raises(ValueError):
        divide_exact(q(2) + LaurentPoly.one(), q(2))


def test_codegree_coeff():
    p = LaurentPoly({2: 1, 0: 10, -2: 1})  # q + 10 + q^-1
    assert p.codegree_coeff(0) == 1
    assert p.codegree_coeff(1) == 10
    assert p.codegree_coeff(3) == 0
    with pytest.raises(ValueError):
        LaurentPoly.zero().codegree_coeff(0)


def test_codegree_coeff_quartic_constant():
    # the genus-0 quartic invariant has 13 in codegree 1
    p = LaurentPoly({6: 1, 4: 13, 2: 94, 0: 404, -2: 94, -4: 13, -6: 1})
    assert p.codegree_coeff(1) == 13


def test_substitute_q_squared():
    assert q(2).substitute_q_squared() == LaurentPoly({2: 1, -2: 1})
    assert LaurentPoly.one().substitute_q_squared() == LaurentPoly.one()
    assert q(3).substitute_q_squared() == LaurentPoly({4: 1, 0: 1, -4: 1})


def test_poly_geq():
    for k in range(2, 7):
        assert poly_geq(q(k) * q(k), q(k).substitute_q_squared())
    p = q(5) * q(3)
    assert poly_geq(p, p)
    lhs = prod([q(2), q(2), q(3), q(3)])
    rhs = divide_exact(prod([q(2), q(3), q(5)]), q(2))
    assert poly_geq(lhs, rhs)
    assert not poly_geq(q(2), q(2) * q(2))


def test_render():
    assert LaurentPoly({2: 1, 0: 10, -2: 1}).render() == "q + 10 + q^-1"
    assert LaurentPoly.zero().render() == "0"
    assert LaurentPoly({4: 2, 1: 1, 0: -3}).render() == "2*q^2 + q^1/2 - 3"
    assert LaurentPoly({-6: 5}).render() == "5*q^-3"


def test_json_roundtrip():
    p = q(4) * q(7)
    assert LaurentPoly.from_json(p.to_json()) == p
    assert LaurentPoly({2: 1, 0: 10, -2: 1}).to_json() == {"2": 1, "0": 10, "-2": 1}


coeff_dicts = st.dictionaries(
    st.integers(min_value=-8, max_value=8),
    st.integers(min_value=-50, max_value=50),
    max_size=6,
)


@settings(max_examples=200, deadline=None)
@given(coeff_dicts, coeff_dicts, coeff_dicts)
def test_ring_axioms(da, db, dc):
    pa, pb, pc = LaurentPoly(da), LaurentPoly(db), LaurentPoly(dc)
    assert pa + pb == pb + pa
    assert pa * pb == pb * pa
    assert (pa * pb) * pc == pa * (pb * pc)
    assert pa * (pb + pc) == pa * pb + pa * pc


@settings(max_examples=150, deadline=None)
@given(coeff_dicts, st.dictionaries(
    st.integers(min_value=-4, max_value=4),
    st.integers(min_value=-9, max_value=9), min_size=1, max_size=4))
def test_divide_exact_roundtrip(da, dd):
    p, d = LaurentPoly(da), LaurentPoly(dd)
    if d.is_zero():
        return
    assert divide_exact(p * d, d) == p


# Quantum-integer identity suite (the appendix properties, K = 12).

K = 12


@pytest.mark.parametrize("k", range(1, K + 1))
def test_product_expansion(k):
    for l in range(K + 1):
        rhs = LaurentPoly.zero()
        for c in range(k):
            rhs = rhs + q(2 * k + l - 1 - 2 * c)
        assert q(k) * q(k + l) == rhs


@pytest.mark.parametrize("k", range(1, K + 1))
def test_even_quotient(k):
    assert divide_exact(q(2 * k), q(2)) == q(k).substitute_q_squared()


def test_shift_identity_corrected_rhs():
    """Brute force singles out which shifted-product identity holds:
    [k][k+l-1] = [k-1][k+l] + [l], not ... + [k]."""
    holds_l, holds_k = True, True
    for k in range(2, K + 1):
        for l in range(1, K + 1):
            lhs = q(k) * q(k + l - 1)
            base = q(k - 1) * q(k + l)
            holds_l &= lhs == base + q(l)
            holds_k &= lhs == base + q(k)
    assert holds_l
    assert not holds_k


@pytest.mark.parametrize("k", range(1, K + 1))
def test_square_dominates_triple_quotient(k):
    for l in range(1, K + 1):
        lhs = prod([q(k), q(k), q(l), q(l)])
        rhs = divide_exact(prod([q(k), q(l), q(k + l)]), q(2))
        assert poly_geq(lhs, rhs)
