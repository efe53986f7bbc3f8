import json
import os
import warnings
from math import comb
from pathlib import Path

import pytest

from floordiag import diagram, invariant, marking
from floordiag.diagram import enumerate_floor_diagrams
from floordiag.invariant import (
    _cache_path,
    clear_cache,
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
from floordiag.marking import (
    all_pairings,
    canonical_pairing,
    enumerate_markings,
    make_pairing,
    mu_S,
)
from floordiag.polygon import (
    HTransversePolygon,
    lattice_stats,
    make_delta_abn,
    make_delta_d,
    parse_polygon,
)
from golden import GOLDEN, golden_values

D3 = make_delta_d(3)
D4 = make_delta_d(4)


def test_cubic_invariants():
    for g, value in golden_values("invariants", D3).items():
        assert refined_invariant(D3, g) == value


def test_quartic_invariants():
    for g, value in golden_values("invariants", D4).items():
        assert refined_invariant(D4, g) == value


def test_invariant_zero_beyond_interior():
    assert refined_invariant(D3, 7) == LaurentPoly.zero()


def test_invariant_degree_and_symmetry():
    for (a, b, n) in [(3, 0, 1), (2, 2, 1), (3, 2, 1)]:
        poly = make_delta_abn(a, b, n)
        iota = lattice_stats(poly).interior
        for g in range(iota + 1):
            val = refined_invariant(poly, g)
            assert val.is_symmetric()
            assert val.degree2() == 2 * (iota - g)


def upside_down(polygon):
    """The polygon reflected in a horizontal line: slopes negated, bottom
    and top swapped."""
    return HTransversePolygon(tuple(sorted(-x for x in polygon.d_l)),
                              tuple(sorted(-x for x in polygon.d_r)), polygon.d_t, polygon.d_b)


# the turned polygons have more sinks than sources, so their marking
# counts keep many sinks in the downset DP
@pytest.mark.parametrize("literal", [
    "abn:3,0,1", "abn:4,2,1", "abn:4,1,2", "ht:dl=[-2,0,1,1];dr=[2,0,0,-1];db=2;dt=1"])
def test_invariant_of_the_upside_down_polygon(literal):
    polygon = parse_polygon(literal)
    for g in range(3):
        assert refined_invariant(upside_down(polygon), g) == refined_invariant(polygon, g)


def test_cubic_descendants():
    for s, value in golden_values("descendants", D3).items():
        assert refined_descendant(D3, s) == value


def test_quartic_descendants():
    for s, value in golden_values("descendants", D4).items():
        assert refined_descendant(D4, s) == value


def test_descendant_s0_equals_invariant():
    for poly in (D3, D4, make_delta_abn(2, 2, 1)):
        assert refined_descendant(poly, 0) == refined_invariant(poly, 0)


def test_descendant_beyond_smax_warns_zero():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert refined_descendant(D3, 99) == LaurentPoly.zero()
    assert caught


def test_descendant_q1_nonincreasing():
    values = [refined_descendant(D4, s).evaluate_at_one() for s in range(6)]
    assert all(x >= y for x, y in zip(values, values[1:]))


def test_explicit_pairing_matches_default():
    S = make_pairing([(3, 4)])
    assert refined_descendant(D4, 1, pairing=S) == refined_descendant(D4, 1)


@pytest.mark.parametrize("pairing", [
    frozenset({(1, 2), (2, 3)}),  # overlapping
    frozenset({(1, 3)}),  # not consecutive
    frozenset({(11, 12)}),  # past the 11 marks of the quartic
])
def test_malformed_pairing_is_rejected(pairing, monkeypatch):
    monkeypatch.setenv("FLOORDIAG_CACHE_DIR", "")
    with pytest.raises(ValueError):
        refined_descendant(D4, len(pairing), pairing=pairing)


def test_pairing_independence_reports():
    for s in (1, 2):
        rep = verify_pairing_independence(D3, s)
        assert rep.passed, rep.details
    rep = verify_pairing_independence(D4, 1)
    assert rep.passed


def test_pairing_independence_value():
    for S in all_pairings(8, 2):
        assert refined_descendant(D3, 2, pairing=S) == LaurentPoly({2: 1, 0: 6, -2: 1})


def test_recursion_quartic_and_cubic():
    for entry in GOLDEN["recursion"]:
        polygon = parse_polygon(entry["polygon"])
        for s in range(entry["s_max"] + 1):
            assert verify_recursion(polygon, s).passed


def test_recursion_difference_value():
    smaller = refined_descendant(make_delta_abn(2, 2, 1), 0)
    diff = refined_descendant(D4, 1) - refined_descendant(D4, 0)
    assert diff == smaller.scalar_mul(-2)


def test_recursion_precondition():
    with pytest.raises(ValueError):
        verify_recursion(D3, 4)  # 2s > n(Delta) - 2


def test_monotonicity_reports():
    for literal in GOLDEN["monotonicity"]:
        poly = parse_polygon(literal)
        iota = lattice_stats(poly).interior
        for i in range(iota + 1):
            rep = verify_monotonicity(poly, i)
            assert rep.passed, rep.details


def test_monotonicity_quartic_constants():
    # the codegree-3 chain of the quartic, read off the table's descendants
    chain = [descendant_codegree_coeff(D4, s, 3) for s in range(6)]
    values = golden_values("descendants", D4)
    assert chain == [values[s].codegree_coeff(3) for s in range(6)]


def test_codegree_coeff_shortcuts_match():
    for s in range(6):
        full = refined_descendant(D4, s)
        for i in range(4):
            assert descendant_codegree_coeff(D4, s, i) == full.coeff2(2 * (3 - i))
    for g in range(4):
        full = refined_invariant(D4, g)
        for i in range(3 - g + 1):
            assert invariant_codegree_coeff(D4, g, i) == full.coeff2(2 * (3 - g - i))
    # these polygons have shapes with free slots (heavy short elevators)
    cases = [(make_delta_abn(*abn), g) for abn in ((3, 2, 2), (2, 3, 1), (3, 1, 3), (4, 2, 1))
             for g in range(3)]
    cases.append((parse_polygon("ht:dl=[-2,0,1,1];dr=[2,0,0,-1];db=2;dt=1"), 0))
    for poly, g in cases:
        top = lattice_stats(poly).interior - g
        full = refined_invariant(poly, g)
        for i in range(min(2, top) + 1):
            assert invariant_codegree_coeff(poly, g, i) == full.coeff2(2 * (top - i))


def test_codegree_coeff_needs_no_classes(monkeypatch):
    # the labelled-shape sum uses no canonical forms, automorphism groups or
    # per-class marking counts
    mixed = parse_polygon("ht:dl=[-2,0,1,1];dr=[2,0,0,-1];db=2;dt=1")
    cases = [(make_delta_abn(4, 2, 1), 1), (mixed, 0)]
    expected = [refined_invariant(poly, g) for poly, g in cases]

    def fail(*args):
        raise AssertionError("class machinery on the codegree path")

    for module in (diagram, marking, invariant):
        for name in ("canonical_form", "vertex_automorphisms", "count_markings"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, fail)
    for (poly, g), full in zip(cases, expected):
        top = lattice_stats(poly).interior - g
        for i in range(3):
            assert invariant_codegree_coeff(poly, g, i) == full.coeff2(2 * (top - i))


@pytest.mark.parametrize("literal", ["abn:4,0,1", "abn:3,1,1", "abn:3,2,1"])
def test_truncated_descendant_matches_marking_oracle(literal, monkeypatch):
    monkeypatch.setenv("FLOORDIAG_CACHE_DIR", "")
    polygon = parse_polygon(literal)
    stats = lattice_stats(polygon)
    classes = [(d, m) for d in enumerate_floor_diagrams(polygon, 0) for m in enumerate_markings(d)]
    pairings = [canonical_pairing(s) for s in range(4)] + [make_pairing([(2, 3), (6, 7)])]
    for S in pairings:
        full = sum((mu_S(d, m, S) for d, m in classes), LaurentPoly.zero())
        assert refined_descendant(polygon, len(S), pairing=S) == full
        for i in range(3):
            top = {e2: v for e2, v in full.key() if e2 >= 2 * (stats.interior - i)}
            got = refined_descendant(polygon, len(S), pairing=S, max_codeg=i)
            assert got == LaurentPoly(top)


def test_negative_codegree_bound_is_rejected(monkeypatch):
    monkeypatch.setenv("FLOORDIAG_CACHE_DIR", "")
    with pytest.raises(ValueError):
        invariant_codegree_coeff(D4, 0, -1)
    with pytest.raises(ValueError):
        descendant_codegree_coeff(D4, 0, -1)
    with pytest.raises(ValueError):
        refined_descendant(D4, 0, max_codeg=-1)


def test_leading_coefficient_binomials():
    import math

    for (a, b, n) in [(3, 0, 1), (4, 0, 1), (2, 2, 1), (3, 2, 1), (2, 3, 0)]:
        poly = make_delta_abn(a, b, n)
        iota = lattice_stats(poly).interior
        for g in range(iota + 1):
            assert refined_invariant(poly, g).codegree_coeff(0) == math.comb(iota, g)


def test_marked_class_table_shape():
    rows = marked_class_table(D3, [make_pairing([(7, 8)])])
    assert len(rows) == 9


def kontsevich(d):
    """N_d, the number of rational plane curves of degree d through 3d-1
    points, by Kontsevich's recursion (Kontsevich-Manin, hep-th/9402147)."""
    N = {1: 1}
    for e in range(2, d + 1):
        N[e] = sum(
            N[d1] * N[e - d1] * d1 * d1 * (e - d1)
            * ((e - d1) * comb(3 * e - 4, 3 * d1 - 2) - d1 * comb(3 * e - 4, 3 * d1 - 1))
            for d1 in range(1, e)
        )
    return N[d]


def test_genus_zero_at_one_is_kontsevich():
    for d in range(3, 7):
        assert refined_invariant(make_delta_d(d), 0).evaluate_at_one() == kontsevich(d)


def test_genus_zero_at_minus_one_is_welschinger():
    # Welschinger invariants W_3..W_6 of the plane, as published by
    # Itenberg-Kharlamov-Shustin
    for d, w in zip(range(3, 7), (8, 240, 18264, 2845440)):
        value = refined_invariant(make_delta_d(d), 0).evaluate_at_minus_one()
        assert type(value) is int
        assert value == w


def test_quartic_genus_one_at_one_is_severi_degree():
    assert refined_invariant(D4, 1).evaluate_at_one() == 225


def test_cache_roundtrip(tmp_path):
    old = os.environ.get("FLOORDIAG_CACHE_DIR")
    os.environ["FLOORDIAG_CACHE_DIR"] = str(tmp_path / "cache")
    try:
        first = refined_invariant(D3, 0)
        again = refined_invariant(D3, 0)
        assert first == again
        assert clear_cache() > 0
    finally:
        if old is None:
            os.environ.pop("FLOORDIAG_CACHE_DIR", None)
        else:
            os.environ["FLOORDIAG_CACHE_DIR"] = old


def test_malformed_cache_entry_is_a_miss(tmp_path, monkeypatch):
    monkeypatch.setenv("FLOORDIAG_CACHE_DIR", str(tmp_path))
    path = _cache_path("G", D3, "g=0")
    for entry in ([1, 2], {"2": "a"}):
        path.write_text(json.dumps(entry))
        assert refined_invariant(D3, 0).render() == "q + 10 + q^-1"
    assert json.loads(path.read_text()) == {"2": 1, "0": 10, "-2": 1}


def test_entry_of_another_engine_version_is_a_miss(tmp_path, monkeypatch):
    monkeypatch.setenv("FLOORDIAG_CACHE_DIR", str(tmp_path))
    with monkeypatch.context() as m:
        m.setattr(invariant, "ALGO_VERSION", "floordiag-1")
        stale = _cache_path("G", D3, "g=0")
    stale.write_text(json.dumps({"0": 99}))
    assert refined_invariant(D3, 0).render() == "q + 10 + q^-1"
    assert json.loads(stale.read_text()) == {"0": 99}
    fresh = _cache_path("G", D3, "g=0")
    assert json.loads(fresh.read_text()) == {"2": 1, "0": 10, "-2": 1}


def test_engine_version_follows_the_source(tmp_path, monkeypatch):
    for f in Path(invariant.__file__).parent.glob("*.py"):
        (tmp_path / f.name).write_bytes(f.read_bytes())
    monkeypatch.setattr(invariant, "__file__", str(tmp_path / "invariant.py"))
    assert "floordiag-" + invariant._source_digest() == invariant.ALGO_VERSION
    with (tmp_path / "laurent.py").open("a") as fh:
        fh.write("\n")
    assert "floordiag-" + invariant._source_digest() != invariant.ALGO_VERSION
