from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from floordiag.polyfit import (
    RationalPoly,
    discrete_derivative,
    fit_on_box,
    interpolate,
    verify_polynomiality,
)


def test_discrete_derivative_constant():
    assert discrete_derivative([7, 7, 7, 7], 1) == [0, 0, 0]


def test_discrete_derivative_quartic_constants():
    assert discrete_derivative([404, 264, 164, 96, 52, 24], 3) == [8, 8, 8]
    assert discrete_derivative([13, 11, 9, 7, 5, 3], 1) == [2] * 5
    assert discrete_derivative([94, 70, 50, 34, 22, 14], 2) == [4] * 4


def test_discrete_derivative_leading_coefficient():
    # degree-d samples: the d-th derivative is constantly (-1)^d d! lead
    for d, lead in [(2, 3), (3, 2), (4, 1)]:
        seq = [lead * x ** d + x + 1 for x in range(d + 4)]
        out = discrete_derivative(seq, d)
        want = (-1) ** d * lead * 1
        for k in range(2, d + 1):
            want *= k
        assert out == [want] * len(out)


def test_discrete_derivative_composes():
    seq = [x ** 3 - 2 * x for x in range(8)]
    once_then_twice = discrete_derivative(discrete_derivative(seq, 2), 1)
    assert once_then_twice == discrete_derivative(seq, 3)


def test_discrete_derivative_short_sequence():
    with pytest.raises(ValueError):
        discrete_derivative([1, 2], 2)


def test_interpolate_constant():
    poly = interpolate([(0, 1), (1, 1)])
    assert poly.as_dict() == {(0,): Fraction(1)}


def test_interpolate_cubic_constants_leading():
    poly = interpolate([(s, v) for s, v in enumerate([404, 264, 164, 96, 52, 24])], "s")
    assert poly.degree_in(0) == 3
    assert poly.as_dict()[(3,)] == Fraction(-4, 3)  # (-2)^3 / 3!
    # matches (t^3 + 3t^2 + 59t + 81)/6 under t = 11 - 2s
    for s in range(6):
        t = 11 - 2 * s
        assert poly.evaluate((s,)) == Fraction(t ** 3 + 3 * t ** 2 + 59 * t + 81, 6)


def test_interpolate_linear_drop():
    poly = interpolate([(s, 10 - 2 * s) for s in range(5)], "s")
    assert poly.as_dict() == {(0,): Fraction(10), (1,): Fraction(-2)}
    unsorted = interpolate([(s, 10 - 2 * s) for s in (7, -1, 3, 0, 12)], "s")
    assert unsorted == poly


def test_interpolate_duplicate_x():
    with pytest.raises(ValueError):
        interpolate([(0, 1), (0, 2)])
    with pytest.raises(ValueError, match="axis y repeats a value"):
        fit_on_box(lambda x, y: x + y, {"x": [0, 1], "y": [2, 3, 2]})
    with pytest.raises(ValueError, match="axis x repeats a value"):
        verify_polynomiality(lambda x: x, {"x": [0, 1, 2, 1]}, {"x": 1})


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=-30, max_value=30), min_size=1, max_size=6, unique=True),
       st.data())
def test_interpolate_reproduces_points(xs, data):
    ys = [data.draw(st.integers(min_value=-100, max_value=100)) for _ in xs]
    poly = interpolate(list(zip(xs, ys)))
    for x, y in zip(xs, ys):
        assert poly.evaluate((x,)) == y


def test_fit_on_box_exact_bivariate():
    def sampler(x, y):
        return 3 * x * x * y - 2 * y + x + 7

    poly = fit_on_box(sampler, {"x": [2, 3, 4, 5], "y": [0, 1, 2]})
    assert poly.evaluate((10, 4)) == sampler(x=10, y=4)
    assert poly.degree_in(0) == 2 and poly.degree_in(1) == 1
    assert poly.as_dict() == {(2, 1): 3, (0, 1): -2, (1, 0): 1, (0, 0): 7}
    # any distinct values in any order give the same polynomial
    assert fit_on_box(sampler, {"x": [9, -3, 5, 2], "y": [4, 0, -7]}) == poly


def test_verify_polynomiality_pass():
    report = verify_polynomiality(
        lambda x, y: x * y + y,
        {"x": [0, 1, 2], "y": [0, 1, 2]},
        {"x": 1, "y": 1},
        holdout={"x": 5, "y": 7},
    )
    assert report.passed
    assert report.degrees == {"x": 1, "y": 1}


def test_verify_polynomiality_detects_wrong_degree():
    report = verify_polynomiality(
        lambda x: x ** 2,
        {"x": [0, 1, 2, 3]},
        {"x": 1},
    )
    assert not report.passed


def test_verify_polynomiality_detects_nonmatching_holdout():
    values = {0: 0, 1: 1, 2: 4, 3: 9, 4: 99}

    report = verify_polynomiality(
        lambda x: values[x],
        {"x": [0, 1, 2, 3]},
        {"x": 2},
        holdout={"x": 4},
    )
    assert not report.passed


def test_verify_polynomiality_needs_enough_points():
    # too few points verify nothing, so they are an input error, not a report
    with pytest.raises(ValueError, match="axis x needs 3 points for degree 1, got 2"):
        verify_polynomiality(lambda x: x, {"x": [0, 1]}, {"x": 1})


def test_rational_poly_render():
    poly = RationalPoly.from_dict(("a", "s"), {(1, 0): Fraction(3), (0, 1): Fraction(-2),
                                               (0, 0): Fraction(1, 2)})
    text = poly.render()
    assert "3*a" in text and "2*s" in text
    poly = RationalPoly.from_dict(("a", "s"), {(2, 0): Fraction(-1), (1, 1): Fraction(3, 2),
                                               (0, 1): Fraction(-1, 6), (0, 0): Fraction(5)})
    assert poly.render() == "3/2*a*s - a^2 - 1/6*s + 5"
    poly = RationalPoly.from_dict(("a", "b", "s"), {(0, 0, 0): Fraction(-1, 2),
                                                    (1, 0, 2): Fraction(-2), (0, 1, 0): Fraction(1)})
    assert poly.render() == "-2*a*s^2 + b - 1/2"
    assert RationalPoly.from_dict(("a",), {}).render() == "0"


def test_rational_poly_evaluate_needs_one_coordinate_per_variable():
    poly = RationalPoly.from_dict(("a", "b"), {(1, 0): Fraction(1), (0, 1): Fraction(1)})
    assert poly.evaluate((3, 4)) == 7
    assert poly.evaluate((Fraction(1, 2), -1)) == Fraction(-1, 2)
    for point in [(3,), (3, 4, 5), ()]:
        with pytest.raises(ValueError, match="%d coordinates, the polynomial 2 " % len(point)):
            poly.evaluate(point)


def test_descendant_coefficients_have_constant_ith_derivative():
    """For polygons with 2i <= d_b + 1 (or +2 in the rectangle-like family),
    the i-th discrete derivative of s -> coef_i G(0;s) is constantly 2^i."""
    from floordiag.invariant import descendant_codegree_coeff
    from floordiag.polygon import HTransversePolygon, lattice_stats, make_delta_abn

    cases = [
        (make_delta_abn(2, 2, 1), (0, 1, 2)),        # d_b = 4, iota = 2, 2i <= d_b + 2
        (make_delta_abn(3, 2, 0), (0, 1)),           # d_b = 2
        (HTransversePolygon((0, 1), (1, 1), 2, 1), (0, 1)),  # general slopes, d_b = 2
    ]
    for poly, codegrees in cases:
        stats = lattice_stats(poly)
        for i in codegrees:
            if i > stats.interior:
                continue
            seq = [
                descendant_codegree_coeff(poly, s, i)
                for s in range(stats.s_max + 1)
            ]
            deriv = discrete_derivative(seq, i)
            assert deriv == [2 ** i] * len(deriv), (poly.key(), i, seq)
