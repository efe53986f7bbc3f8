"""Acceptance suite: every criterion is exact (tolerance zero) and prints
one PASS/FAIL line.  Run with `pytest tests/test_acceptance.py -s` to see
the lines as they complete; criteria with runtime budgets measure them.
"""

import itertools
import math
import time
from fractions import Fraction

from floordiag.cli import SUITES
from floordiag.coeff import coeff_closed_form, in_region_U
from floordiag.invariant import (
    descendant_codegree_coeff,
    invariant_codegree_coeff,
    marked_class_table,
    refined_descendant,
    refined_invariant,
    verify_pairing_independence,
)
from floordiag.marking import parse_pairing
from floordiag.polyfit import discrete_derivative, verify_polynomiality
from floordiag.polygon import lattice_stats, make_delta_abn, make_delta_d, parse_polygon
from floordiag.templates import (
    enumerate_capping_trees,
    enumerate_templates,
    template_census,
    verify_bijection,
)
from golden import GOLDEN, golden_values

D3 = make_delta_d(3)
D4 = make_delta_d(4)


def run_suite(name):
    """Run a `verify` suite; (passed, its report lines)."""
    lines = []
    return SUITES[name](lines), lines


def report(name, passed, started, lines=()):
    line = "%s %s (%.2fs)" % ("PASS" if passed else "FAIL", name, time.monotonic() - started)
    print(line)
    assert passed, "\n  ".join([line, *lines])


def test_criterion_01_cubic():
    t0 = time.monotonic()
    ok = all(refined_invariant(D3, g) == v for g, v in golden_values("invariants", D3).items())
    elapsed = time.monotonic() - t0
    report("criterion 1: cubic invariants, %0.2fs < 1s" % elapsed, ok and elapsed < 1.0, t0)


def test_criterion_02_quartic_invariants():
    t0 = time.monotonic()
    ok = all(refined_invariant(D4, g) == v for g, v in golden_values("invariants", D4).items())
    elapsed = time.monotonic() - t0
    report("criterion 2: quartic invariants, %0.2fs < 10s" % elapsed, ok and elapsed < 10.0, t0)


def test_criterion_03_quartic_descendants():
    t0 = time.monotonic()
    ok = all(
        refined_descendant(D4, s) == v for s, v in golden_values("descendants", D4).items()
    )
    elapsed = time.monotonic() - t0
    report("criterion 3: quartic descendants, %0.2fs < 30s" % elapsed, ok and elapsed < 30.0, t0)


def test_criterion_04_cubic_descendants_and_table():
    t0 = time.monotonic()
    ok = all(
        refined_descendant(D3, s) == v for s, v in golden_values("descendants", D3).items()
    )
    table = GOLDEN["cubic_table"]
    ok &= parse_polygon(table["polygon"]) == D3
    rows = marked_class_table(D3, [parse_pairing(p) for p in table["pairings"]])
    got = sorted([r["mult"].render()] + [m.render() for m in r["mu"]] for r in rows)
    ok &= got == sorted(table["rows"])
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
    ok = True
    for entry in GOLDEN["theorem_1_7"]:
        poly = parse_polygon(entry["polygon"])
        i = entry["i"]
        golden = golden_values("descendants", poly)
        s_range = range(lattice_stats(poly).s_max + 1)
        seq = [refined_descendant(poly, s).codegree_coeff(i) for s in s_range]
        ok &= seq == [golden[s].codegree_coeff(i) for s in s_range]
        ok &= discrete_derivative(seq, i) == [entry["derivative"]] * (len(seq) - i)
    elapsed = time.monotonic() - t0
    report(
        "criterion 8: discrete derivatives constant at 2^i, %0.2fs < 1s" % elapsed,
        ok and elapsed < 1.0,
        t0,
    )


def test_criterion_09_recursion():
    t0 = time.monotonic()
    ok, lines = run_suite("recursion")
    report("criterion 9: chopped-top recursion for the quartic and cubic", ok, t0, lines)


def test_criterion_10_pairing_independence():
    t0 = time.monotonic()
    ok = verify_pairing_independence(D3, 1).passed
    ok &= verify_pairing_independence(D3, 2).passed
    ok &= verify_pairing_independence(D4, 1).passed
    report("criterion 10: pairing independence", ok, t0)


def test_criterion_11_monotonicity():
    t0 = time.monotonic()
    ok, lines = run_suite("monotonicity")
    report("criterion 11: monotone codegree chains", ok, t0, lines)


def test_criterion_12_template_census():
    t0 = time.monotonic()
    figure = GOLDEN["template_census"]
    census = template_census(figure["max_genus"], figure["max_codeg"])
    ok = census == {(c["genus"], c["codegree"]): c["templates"] for c in figure["counts"]}
    elapsed = time.monotonic() - t0
    report("criterion 12: template census, %0.2fs < 10s" % elapsed, ok and elapsed < 10.0, t0)


def test_criterion_13_bijection_and_bounds():
    t0 = time.monotonic()
    ok = all(verify_bijection(**entry).passed for entry in GOLDEN["bijection"])
    figure = GOLDEN["template_census"]
    for t in enumerate_templates(figure["max_genus"], figure["max_codeg"]):
        ok &= t.codeg() + t.genus() >= t.length - 1
    for a in (3, 4, 5):
        for n in (1, 2):
            for tree in enumerate_capping_trees(a, n, 10):
                ok &= tree.codeg() >= n * (a - 2)
    report("criterion 13: reconstruction bijection and census bounds", ok, t0)


def test_criterion_14_quantum_identities():
    t0 = time.monotonic()
    ok, lines = run_suite("identities")
    report("criterion 14: quantum-integer identity suite (K=12)", ok, t0, lines)


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
