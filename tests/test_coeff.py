import itertools

import pytest

from floordiag.coeff import (
    F,
    Phi,
    UVector,
    build_D,
    coeff_closed_form,
    coeff_product_of_squares,
    enumerate_C,
    in_region_U,
    nu,
)
from floordiag.diagram import canonical_key, codegree, enumerate_floor_diagrams
from floordiag.invariant import descendant_codegree_coeff
from floordiag.laurent import prod, quantum_integer
from floordiag.marking import canonical_pairing, enumerate_markings, is_compatible
from floordiag.polyfit import interpolate
from floordiag.polygon import make_delta_abn


def F_bruteforce(k, l):
    """Direct composition enumeration; the oracle for small inputs."""
    if k == 0:
        return 1 if l == 0 else 0
    total = 0
    for parts in itertools.product(range(1, l + 1), repeat=k):
        if sum(parts) == l:
            p = 1
            for x in parts:
                p *= x
            total += p
    return total


def test_F_against_bruteforce():
    for k in range(5):
        for l in range(9):
            assert F(k, l) == F_bruteforce(k, l)


def test_F_examples():
    assert F(2, 3) == 4
    assert all(F(0, l) == 0 for l in range(1, 6))
    assert F(0, 0) == 1


def test_Phi_small_closed_forms():
    for k in range(1, 11):
        assert Phi(0, k) == 1
        assert Phi(1, k) == 2 * k


@pytest.mark.parametrize("l", range(5))
def test_Phi_is_polynomial_of_degree_l(l):
    points = [(k, Phi(l, k)) for k in range(1, 11)]
    poly = interpolate(points, "k")
    assert poly.degree_in(0) == l
    assert all(poly.evaluate((k,)) == v for k, v in points)


def test_coeff_product_of_squares_shortcut():
    assert coeff_product_of_squares(1, [5, 7, 9]) == Phi(1, 3) == 6
    assert coeff_product_of_squares(0, [2, 9]) == 1
    direct = prod(quantum_integer(w) * quantum_integer(w) for w in (4, 5))
    assert coeff_product_of_squares(2, [4, 5]) == direct.codegree_coeff(2) == Phi(2, 2)


def test_coeff_product_of_squares_fallback():
    # a weight at or below the codegree invalidates the shortcut
    for weights in ([2, 5], [1, 2, 7], [2, 2], [1, 1, 3]):
        direct = prod(quantum_integer(w) * quantum_integer(w) for w in weights)
        for i in range(3):
            assert coeff_product_of_squares(i, weights) == direct.codegree_coeff(i)


def test_shortcut_insensitive_to_large_weight_changes():
    # replacing any weight > i by weight + 1 leaves the coefficient alone
    base = [4, 5, 7]
    for i in (0, 1, 2):
        ref = coeff_product_of_squares(i, base)
        for pos in range(3):
            bumped = list(base)
            bumped[pos] += 1
            assert coeff_product_of_squares(i, bumped) == ref


def test_enumerate_C():
    assert enumerate_C(0) == [UVector((), ())]
    c1 = enumerate_C(1)
    assert len(c1) == 3
    assert all(uv.codeg <= 1 for uv in c1)
    c2 = enumerate_C(2)
    assert len(c2) == 8
    assert all(uv.codeg <= 2 for uv in c2)
    assert len({(uv.u, uv.u_tilde) for uv in c2}) == 8


def test_build_D_codegree_matches_uv():
    for (a, b, n) in [(3, 3, 1), (4, 3, 1), (4, 2, 1), (5, 3, 0)]:
        for uv in enumerate_C(2):
            try:
                d = build_D(a, b, n, uv)
            except ValueError:
                continue
            assert codegree(d) == uv.codeg
            assert d.genus() == 0
            assert d.newton_polygon() == make_delta_abn(a, b, n)


def test_build_D_zero_vector_is_codegree_zero_chain():
    d = build_D(4, 2, 1, UVector((), ()))
    assert codegree(d) == 0
    assert all(j == i + 1 for i, j, _ in d.elevators)


def test_build_D_membership_in_enumeration():
    poly = make_delta_abn(4, 2, 1)
    enumerated = {canonical_key(d) for d in enumerate_floor_diagrams(poly, 0)}
    d = build_D(4, 2, 1, UVector((1, 0), (0, 0)))
    assert codegree(d) == 1
    assert canonical_key(d) in enumerated


def test_build_D_rejects_nonpositive_weight():
    with pytest.raises(ValueError):
        build_D(3, 0, 0, UVector((0, 1), (0, 0)))


def test_small_codegree_classification():
    """For b > i, a > i the codegree <= i classes are exactly the chain family."""
    for (a, b, n, i) in [(4, 3, 1, 2), (3, 2, 1, 1), (4, 3, 0, 2), (5, 3, 1, 2)]:
        poly = make_delta_abn(a, b, n)
        enum = {
            canonical_key(d)
            for d in enumerate_floor_diagrams(poly, 0, max_codeg=i)
        }
        family = set()
        for uv in enumerate_C(i):
            d = build_D(a, b, n, uv)
            family.add(canonical_key(d))
            # every internal weight exceeds i - codeg
            assert all(w > i - uv.codeg for _, _, w in d.elevators)
        assert enum == family


def test_nu_trivial_vector():
    assert nu(UVector((), ()), 5, 3, 1, 0) == 1
    assert nu(UVector((), ()), 5, 3, 1, 2) == 1


def test_nu_matches_marking_counts():
    from floordiag.marking import count_markings, count_reduced_extensions

    for (a, b, n) in itertools.product([3, 4], [3, 4], [0, 1]):
        for uv in enumerate_C(2):
            i = 2
            try:
                d = build_D(a, b, n, uv)
            except ValueError:
                continue
            for s in (0, 1):
                if b < i or a * n + b < i + 2 * s:
                    continue
                if s == 0:
                    want = count_markings(d)
                    # the floors of a chain diagram have one order
                    assert count_reduced_extensions(d, in_label_order=True) == want
                else:
                    S = canonical_pairing(s)
                    want = sum(
                        1 for m in enumerate_markings(d) if is_compatible(d, m, S)
                    )
                assert nu(uv, a, b, n, s) == want, (uv, a, b, n, s)


def test_nu_boundary_b_equals_i():
    """The marking-count formula already holds on the b = i boundary."""
    from floordiag.marking import count_markings

    i = 2
    for (a, n) in [(3, 1), (4, 1), (3, 2)]:
        b = i
        for uv in enumerate_C(i):
            try:
                d = build_D(a, b, n, uv)
            except ValueError:
                continue
            assert nu(uv, a, b, n, 0) == count_markings(d)


def test_nu_region_error():
    with pytest.raises(ValueError):
        nu(UVector((1,), (0,)), 3, 0, 1, 0)  # b < i
    with pytest.raises(ValueError):
        nu(UVector((1,), (0,)), 2, 2, 0, 3)  # an + b < i + 2s


def test_closed_form_example_linear():
    for (a, b, n) in itertools.product(range(2, 6), range(2, 6), range(0, 3)):
        for s in range(0, (a * n + b - 1) // 2 + 1):
            if not in_region_U(1, a, b, n, s):
                continue
            assert coeff_closed_form(1, a, b, n, s) == (n + 2) * a + 2 * b + 2 - 2 * s


def test_closed_form_codegree_zero():
    for (a, b, n, s) in [(2, 2, 1, 0), (3, 4, 0, 1), (5, 2, 2, 3)]:
        if in_region_U(0, a, b, n, s):
            assert coeff_closed_form(0, a, b, n, s) == 1


def test_closed_form_region_error():
    with pytest.raises(ValueError):
        coeff_closed_form(2, 4, 2, 1, 0)  # b = i


def test_closed_form_vs_enumeration_oracle():
    checked = 0
    for i in (1, 2):
        for (a, b, n) in itertools.product(range(2, 9), range(2, 7), range(0, 4)):
            if a * n + 2 * b > 14:
                continue
            poly = None
            for s in range(0, (a * n + b - i) // 2 + 1):
                if not in_region_U(i, a, b, n, s):
                    continue
                if poly is None:
                    poly = make_delta_abn(a, b, n)
                assert coeff_closed_form(i, a, b, n, s) == descendant_codegree_coeff(
                    poly, s, i
                ), (i, a, b, n, s)
                checked += 1
    assert checked > 100


def expected_in_ty(i, a, b, n, s):
    """Worked closed forms for small codegrees of the Delta_{a,b,n} family,
    written in y = (n+2)a+2b and t = y-1-2s."""
    from fractions import Fraction

    y = (n + 2) * a + 2 * b
    t = y - 1 - 2 * s
    if i == 2:
        return Fraction(t * t + 6 * t + y + 19, 2)
    if i == 3:
        return Fraction(t ** 3 + 9 * t ** 2 + (3 * y + 59) * t + 9 * y + 147, 6)
    if i == 4:
        return Fraction(
            t ** 4 + 12 * t ** 3 + (6 * y + 122) * t ** 2 + (36 * y + 612) * t
            + 3 * y * y + 120 * y + 1437, 24)
    raise ValueError(i)


@pytest.mark.parametrize("i", [2, 3, 4])
def test_closed_form_matches_ty_expressions(i):
    checked = 0
    for (a, b, n) in itertools.product(range(i + 1, i + 5), range(i + 1, i + 4), range(3)):
        for s in range(3):
            if not in_region_U(i, a, b, n, s):
                continue
            assert coeff_closed_form(i, a, b, n, s) == expected_in_ty(i, a, b, n, s)
            checked += 1
    assert checked > 30


def test_projective_family_codegree_two():
    """coef_2 for the degree-d triangles, d >= 4: (t^2+4t+y+11)/2, y = 3d."""
    from fractions import Fraction

    for d in (4, 5, 6):
        for s in range((d - 2) // 2 + 1):
            y = 3 * d
            t = y - 1 - 2 * s
            got = descendant_codegree_coeff(make_delta_abn(d, 0, 1), s, 2)
            assert got == Fraction(t * t + 4 * t + y + 11, 2)


def test_two_floor_weighted_family():
    """coef_1 for Delta_{2,0,n}, n >= 2, equals (n+2)*2 - 2s: the anticanonical
    pairing without the +1 the smooth-plane family carries."""
    for n in (2, 3, 4):
        for s in range((2 * n - 1) // 2 + 1):
            got = descendant_codegree_coeff(make_delta_abn(2, 0, n), s, 1)
            assert got == 2 * n + 4 - 2 * s
