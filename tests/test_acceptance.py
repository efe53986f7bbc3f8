"""Acceptance suite: every criterion is exact (tolerance zero) and prints
one PASS/FAIL line.  Run with `pytest tests/test_acceptance.py -s` to see
the lines as they complete; criteria with runtime budgets measure them.
"""

import itertools
import math
import time
from fractions import Fraction

import pytest

from floordiag.coeff import coeff_closed_form, in_region_U
from floordiag.diagram import enumerate_floor_diagrams
from floordiag.invariant import (
    descendant_codegree_coeff,
    invariant_codegree_coeff,
    marked_class_table,
    refined_descendant,
    refined_invariant,
    verify_monotonicity,
    verify_pairing_independence,
    verify_recursion,
)
from floordiag.laurent import LaurentPoly
from floordiag.marking import all_pairings
from floordiag.polyfit import discrete_derivative, interpolate, verify_polynomiality
from floordiag.polygon import lattice_stats, make_delta_abn, make_delta_d
from floordiag.templates import (
    enumerate_capping_trees,
    enumerate_templates,
    template_census,
    verify_bijection,
)

D3 = make_delta_d(3)
D4 = make_delta_d(4)

QUARTIC = {
    0: {6: 1, 4: 13, 2: 94, 0: 404},
    1: {6: 1, 4: 11, 2: 70, 0: 264},
    2: {6: 1, 4: 9, 2: 50, 0: 164},
    3: {6: 1, 4: 7, 2: 34, 0: 96},
    4: {6: 1, 4: 5, 2: 22, 0: 52},
    5: {6: 1, 4: 3, 2: 14, 0: 24},
}


def symmetric(half):
    full = dict(half)
    for e2, v in half.items():
        full[-e2] = v
    return LaurentPoly(full)


def report(name, passed, started):
    line = "%s %s (%.2fs)" % ("PASS" if passed else "FAIL", name, time.monotonic() - started)
    print(line)
    assert passed, line


def test_criterion_01_cubic():
    t0 = time.monotonic()
    ok = refined_invariant(D3, 1) == LaurentPoly.one()
    ok &= refined_invariant(D3, 0) == symmetric({2: 1, 0: 10})
    elapsed = time.monotonic() - t0
    report("criterion 1: cubic invariants, %0.2fs < 1s" % elapsed, ok and elapsed < 1.0, t0)


def test_criterion_02_quartic_invariants():
    t0 = time.monotonic()
    expected = {
        0: symmetric(QUARTIC[0]),
        1: symmetric({4: 3, 2: 33, 0: 153}),
        2: symmetric({2: 3, 0: 21}),
        3: LaurentPoly.one(),
    }
    ok = all(refined_invariant(D4, g) == expected[g] for g in range(4))
    elapsed = time.monotonic() - t0
    report("criterion 2: quartic invariants, %0.2fs < 10s" % elapsed, ok and elapsed < 10.0, t0)


def test_criterion_03_quartic_descendants():
    t0 = time.monotonic()
    ok = all(
        refined_descendant(D4, s) == symmetric(QUARTIC[s]) for s in range(6)
    )
    elapsed = time.monotonic() - t0
    report("criterion 3: quartic descendants, %0.2fs < 30s" % elapsed, ok and elapsed < 30.0, t0)


def test_criterion_04_cubic_descendants_and_table():
    t0 = time.monotonic()
    ok = all(
        refined_descendant(D3, s) == symmetric({2: 1, 0: 10 - 2 * s})
        for s in range(5)
    )
    n_marks = lattice_stats(D3).boundary - 1
    pairings = [
        frozenset((j, j + 1) for j in range(n_marks - 2 * i + 1, n_marks, 2))
        for i in range(1, 5)
    ]
    rows = marked_class_table(D3, pairings)
    ok &= len(rows) == 9
    weighted = [r for r in rows if r["mult"].render() == "q + 2 + q^-1"]
    ok &= len(weighted) == 1
    ok &= [m.render() for m in weighted[0]["mu"]] == [
        "q + 2 + q^-1", "q + q^-1", "q + q^-1", "q + q^-1",
    ]
    all_zero = [
        r for r in rows if all(m.is_zero() for m in r["mu"])
    ]
    ok &= len(all_zero) == 2
    table = sorted(tuple(m.render() for m in r["mu"]) for r in rows)
    ok &= table == sorted([
        ("q + 2 + q^-1", "q + q^-1", "q + q^-1", "q + q^-1"),
        ("1", "1", "1", "1"), ("1", "1", "1", "1"),
        ("1", "1", "1", "0"), ("1", "1", "1", "0"),
        ("1", "1", "0", "0"), ("1", "1", "0", "0"),
        ("0", "0", "0", "0"), ("0", "0", "0", "0"),
    ])
    report("criterion 4: cubic descendants and the marked-class table", ok, t0)


def test_criterion_05_leading_coefficients():
    t0 = time.monotonic()
    ok = True
    for (a, b, n) in [(3, 0, 1), (4, 0, 1), (2, 2, 1), (3, 2, 1), (2, 3, 0)]:
        poly = make_delta_abn(a, b, n)
        iota = lattice_stats(poly).interior
        for g in range(iota + 1):
            ok &= refined_invariant(poly, g).codegree_coeff(0) == math.comb(iota, g)
    report("criterion 5: codegree-0 coefficients are binomials", ok, t0)


def test_criterion_06_closed_form_grid():
    t0 = time.monotonic()
    ok = True
    checked = 0
    for i in (1, 2):
        for (a, b, n) in itertools.product(range(2, 13), range(2, 8), range(0, 7)):
            if a * n + 2 * b > 14 or a <= i or b <= i:
                continue
            poly = make_delta_abn(a, b, n)
            for s in range((a * n + b - i) // 2 + 1):
                if not in_region_U(i, a, b, n, s):
                    continue
                value = coeff_closed_form(i, a, b, n, s)
                ok &= value == descendant_codegree_coeff(poly, s, i)
                if i == 1:
                    ok &= value == (n + 2) * a + 2 * b + 2 - 2 * s
                checked += 1
    elapsed = time.monotonic() - t0
    report(
        "criterion 6: closed form vs oracle on %d points of U_1, U_2, %0.1fs < 300s"
        % (checked, elapsed),
        ok and checked > 200 and elapsed < 300.0,
        t0,
    )


def test_criterion_07_projective_plane_family():
    t0 = time.monotonic()
    ok = True
    for d in (3, 4, 5):
        poly = make_delta_d(d)
        for s in range((d - 1) // 2 + 1):
            ok &= descendant_codegree_coeff(poly, s, 1) == 3 * d + 1 - 2 * s
    # the quartic exception in codegree 3: the cubic polynomial in t = 11-2s
    for s in range(6):
        t = 11 - 2 * s
        cubic = Fraction(t ** 3 + 3 * t ** 2 + 59 * t + 81, 6)
        general = Fraction(t ** 3 + 6 * t ** 2 + (3 * 12 + 35) * t + 6 * 12 + 72, 6)
        value = descendant_codegree_coeff(D4, s, 3)
        ok &= value == cubic
        ok &= cubic != general
    report("criterion 7: coef_1 = 3d+1-2s with the d=4 codegree-3 exception", ok, t0)


def test_criterion_08_discrete_derivatives():
    t0 = time.monotonic()
    seqs4 = {
        i: [refined_descendant(D4, s).codegree_coeff(i) for s in range(6)]
        for i in (1, 2, 3)
    }
    ok = seqs4[3] == [404, 264, 164, 96, 52, 24]
    ok &= discrete_derivative(seqs4[3], 3) == [8, 8, 8]
    ok &= discrete_derivative(seqs4[1], 1) == [2] * 5
    ok &= discrete_derivative(seqs4[2], 2) == [4] * 4
    seqs3 = {
        i: [refined_descendant(D3, s).codegree_coeff(i) for s in range(5)]
        for i in (0, 1)
    }
    ok &= discrete_derivative(seqs3[0], 0) == [1] * 5
    ok &= discrete_derivative(seqs3[1], 1) == [2] * 4
    elapsed = time.monotonic() - t0
    report(
        "criterion 8: discrete derivatives constant at 2^i, %0.2fs < 1s" % elapsed,
        ok and elapsed < 1.0,
        t0,
    )


def test_criterion_09_recursion():
    t0 = time.monotonic()
    ok = all(verify_recursion(D4, s).passed for s in range(5))
    ok &= all(verify_recursion(D3, s).passed for s in range(3))
    report("criterion 9: chopped-top recursion for the quartic and cubic", ok, t0)


def test_criterion_10_pairing_independence():
    t0 = time.monotonic()
    ok = verify_pairing_independence(D3, 1).passed
    ok &= verify_pairing_independence(D3, 2).passed
    ok &= verify_pairing_independence(D4, 1).passed
    report("criterion 10: pairing independence", ok, t0)


def test_criterion_11_monotonicity():
    t0 = time.monotonic()
    ok = True
    for poly in (D3, D4, make_delta_abn(2, 2, 1)):
        iota = lattice_stats(poly).interior
        for i in range(iota + 1):
            ok &= verify_monotonicity(poly, i).passed
    report("criterion 11: monotone codegree chains", ok, t0)


def test_criterion_12_template_census():
    t0 = time.monotonic()
    census = template_census(1, 2)
    ok = census == {(0, 0): 1, (0, 1): 2, (0, 2): 4, (1, 0): 1, (1, 1): 3, (1, 2): 10}
    elapsed = time.monotonic() - t0
    report("criterion 12: template census, %0.2fs < 10s" % elapsed, ok and elapsed < 10.0, t0)


def test_criterion_13_bijection_and_bounds():
    t0 = time.monotonic()
    ok = True
    for tup in ((4, 3, 1, 0, 1), (4, 3, 1, 1, 1), (3, 2, 0, 0, 1), (4, 2, 1, 0, 2)):
        ok &= verify_bijection(*tup).passed
    for t in enumerate_templates(1, 2):
        ok &= t.codeg() + t.genus() >= t.length - 1
    for a in (3, 4, 5):
        for n in (1, 2):
            for tree in enumerate_capping_trees(a, n, 10):
                ok &= tree.codeg() >= n * (a - 2)
    report("criterion 13: reconstruction bijection and census bounds", ok, t0)


def test_criterion_14_quantum_identities():
    t0 = time.monotonic()
    from floordiag.laurent import divide_exact, poly_geq, prod, quantum_integer as q

    ok = True
    K = 12
    for k in range(1, K + 1):
        for l in range(0, K + 1):
            rhs = LaurentPoly.zero()
            for c in range(k):
                rhs = rhs + q(2 * k + l - 1 - 2 * c)
            ok &= q(k) * q(k + l) == rhs
        ok &= divide_exact(q(2 * k), q(2)) == q(k).substitute_q_squared()
    for k in range(1, K + 1):
        for l in range(1, K + 1):
            lhs = q(k) * q(k + l - 1)
            rhs = q(l) if k == 1 else q(k - 1) * q(k + l) + q(l)
            ok &= lhs == rhs
            ok &= poly_geq(
                prod([q(k), q(k), q(l), q(l)]),
                divide_exact(prod([q(k), q(l), q(k + l)]), q(2)),
            )
    report("criterion 14: quantum-integer identity suite (K=12)", ok, t0)


def test_criterion_15_polynomiality_substitute():
    t0 = time.monotonic()
    rep_10 = verify_polynomiality(
        lambda a, b, n, s: descendant_codegree_coeff(make_delta_abn(a, b, n), s, 1),
        {"a": [3, 4, 5], "b": [2, 3, 4], "n": [1, 2, 3], "s": [0, 1, 2]},
        {"a": 1, "b": 1, "n": 1, "s": 1},
        holdout={"a": 6, "b": 2, "n": 1, "s": 0},
        name="coef_1 of genus 0",
    )
    rep_01 = verify_polynomiality(
        lambda a, b, n: invariant_codegree_coeff(make_delta_abn(a, b, n), 1, 0),
        {"a": [4, 5, 6, 7], "b": [1, 2, 3], "n": [1, 2, 3]},
        {"a": 2, "b": 1, "n": 1},
        holdout={"a": 8, "b": 1, "n": 1},
        name="coef_0 of genus 1",
    )
    rep_02 = verify_polynomiality(
        lambda a, b, n: invariant_codegree_coeff(make_delta_abn(a, b, n), 2, 0),
        {"a": [6, 7, 8, 9, 10, 11], "b": [1, 2, 3, 4], "n": [2, 3, 4, 5]},
        {"a": 4, "b": 2, "n": 2},
        holdout={"a": 12, "b": 1, "n": 2},
        name="coef_0 of genus 2",
    )
    ok = rep_10.passed and rep_01.passed and rep_02.passed
    # the genus-0 fit is the closed form of the linear coefficient
    fit = rep_10.polynomial
    probe = [(3, 2, 1, 0), (5, 4, 3, 2), (4, 3, 2, 1)]
    ok &= all(
        fit.evaluate(pt) == (pt[2] + 2) * pt[0] + 2 * pt[1] + 2 - 2 * pt[3]
        for pt in probe
    )
    elapsed = time.monotonic() - t0
    report(
        "polynomiality substitute for (i,g) in {(1,0),(0,1),(0,2)}, %0.1fs < 600s" % elapsed,
        ok and elapsed < 600.0,
        t0,
    )
