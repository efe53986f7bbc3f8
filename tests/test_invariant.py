import hashlib
import importlib
import json
import math
import os
import pkgutil
import tracemalloc
import warnings
from fractions import Fraction
from math import comb
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings

import floordiag
from floordiag import cli, coeff, diagram, invariant, marking
from floordiag.coeff import coeff_product_of_squares
from floordiag.diagram import (
    codegree_coefficient_sum,
    codegree_coefficients,
    enumerate_floor_diagrams,
)
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
from floordiag.laurent import EngineError, LaurentPoly
from floordiag.marking import (
    all_pairings,
    canonical_pairing,
    count_in_label_order,
    enumerate_markings,
    make_pairing,
    mu_S,
)
from floordiag.polygon import (
    lattice_stats,
    make_delta_abn,
    make_delta_d,
    parse_polygon,
)
from golden import GOLDEN, golden_values
from strategies import small_polygons, upside_down

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


# the turned polygons have more sinks than sources, so their marking
# counts keep many sinks in the downset DP, and their labelled shapes have
# sinks below the top floor, the elements the gap transfer carries pending
@pytest.mark.parametrize("literal", [
    "abn:3,0,1", "abn:4,2,1", "abn:4,1,2", "ht:dl=[-2,0,1,1];dr=[2,0,0,-1];db=2;dt=1"])
def test_invariant_of_the_upside_down_polygon(literal):
    polygon = parse_polygon(literal)
    turned = upside_down(polygon)
    for g in range(3):
        full = refined_invariant(polygon, g)
        assert refined_invariant(turned, g) == full
        top = lattice_stats(polygon).interior - g
        for i in range(min(2, top) + 1):
            assert invariant_codegree_coeff(turned, g, i) == full.coeff2(2 * (top - i)), (g, i)


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


@pytest.mark.parametrize("verify,arg", [
    (verify_monotonicity, -1), (verify_monotonicity, 2),
    (verify_pairing_independence, -1), (verify_pairing_independence, 5)])
def test_verifiers_reject_out_of_range_input(verify, arg):
    # on D3 (iota = 1, s_max = 4) these ask about a coefficient or an order
    # that does not exist, which is an input error, not a failed check
    with pytest.raises(ValueError):
        verify(D3, arg)


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


@settings(max_examples=25, deadline=None)
@given(small_polygons())
def test_codegree_paths_match_full_invariants(polygon):
    # both codegree paths against every coefficient of the full invariants
    stats = lattice_stats(polygon)
    with mock.patch.dict(os.environ, {"FLOORDIAG_CACHE_DIR": ""}):
        for g in range(stats.interior + 1):
            top = stats.interior - g
            full = refined_invariant(polygon, g)
            for i in range(top + 1):
                assert invariant_codegree_coeff(polygon, g, i) == full.coeff2(2 * (top - i))
        for s in range(stats.s_max + 1):
            full = refined_descendant(polygon, s)
            for i in range(stats.interior + 1):
                assert (descendant_codegree_coeff(polygon, s, i)
                        == full.coeff2(2 * (stats.interior - i)))


@pytest.mark.parametrize("literal, genus", [
    ("abn:3,0,1", 0), ("abn:4,0,1", 0), ("abn:4,0,1", 1), ("abn:3,1,1", 0), ("abn:2,2,1", 0),
])
def test_invariant_codegree_coeff_lower_half(literal, genus, monkeypatch):
    # i past the middle reads the lower half of the palindrome; i = 2(iota-g)+1
    # is one below the bottom exponent
    monkeypatch.setenv("FLOORDIAG_CACHE_DIR", "")
    polygon = parse_polygon(literal)
    top = lattice_stats(polygon).interior - genus
    full = refined_invariant(polygon, genus)
    for i in range(top + 1, 2 * top + 2):
        assert invariant_codegree_coeff(polygon, genus, i) == full.coeff2(2 * (top - i))
    assert invariant_codegree_coeff(polygon, genus, 2 * top + 1) == 0


def test_codegree_coeff_past_the_polynomial_is_zero(monkeypatch):
    # past 2(iota-g) every coefficient is 0: invariant_codegree_coeff runs
    # no transfer there, and codegree_coefficients runs it to 2(iota-g)+1
    # and pads, so a far index costs no more than that one
    monkeypatch.setenv("FLOORDIAG_CACHE_DIR", "")
    lengths = []
    squares = diagram._square_codegrees

    def recorded(w, n):
        lengths.append(n)
        return squares(w, n)

    monkeypatch.setattr(diagram, "_square_codegrees", recorded)
    polygon = make_delta_d(4)
    top = lattice_stats(polygon).interior - 1
    assert invariant_codegree_coeff(polygon, 1, 10**5) == 0
    assert lengths == []
    full = refined_invariant(polygon, 1)
    assert codegree_coefficients(polygon, 1, 2 * top + 5) == [
        full.coeff2(2 * (top - k)) for k in range(2 * top + 6)]
    assert set(lengths) == {2 * top + 2}


def test_far_codegree_index_builds_no_list(monkeypatch):
    # a far index, or a genus above iota, gives 0 without the i + 1 zeros
    # of the padded list: at i = 10**6 that list alone is 8 MB
    monkeypatch.setenv("FLOORDIAG_CACHE_DIR", "")
    polygon = make_delta_d(4)
    tracemalloc.start()
    try:
        assert invariant_codegree_coeff(polygon, 1, 10**6) == 0
        assert invariant_codegree_coeff(polygon, 4, 10**6) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    with pytest.raises(ValueError):
        invariant_codegree_coeff(polygon, -1, 10**6)


def test_descendant_codegree_coeff_lower_half(monkeypatch):
    monkeypatch.setenv("FLOORDIAG_CACHE_DIR", "")
    polygon = make_delta_abn(3, 1, 1)
    stats = lattice_stats(polygon)
    top = stats.interior
    for s in range(stats.s_max + 1):
        full = refined_descendant(polygon, s)
        for i in range(top + 1, 2 * top + 2):
            assert descendant_codegree_coeff(polygon, s, i) == full.coeff2(2 * (top - i))
        assert descendant_codegree_coeff(polygon, s, 2 * top + 1) == 0


def test_codegree_coeff_needs_no_classes(monkeypatch):
    # the labelled-shape sum uses no canonical forms, automorphism groups or
    # per-class marking counts
    mixed = parse_polygon("ht:dl=[-2,0,1,1];dr=[2,0,0,-1];db=2;dt=1")
    cases = [(make_delta_abn(4, 2, 1), 1), (mixed, 0)]
    expected = [refined_invariant(poly, g) for poly, g in cases]

    def fail(*args):
        raise AssertionError("class machinery on the codegree path")

    for module in (diagram, marking, invariant):
        for name in ("canonical_form", "vertex_automorphisms", "count_markings",
                     "automorphism_count", "enumerate_floor_diagrams"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, fail)
    for (poly, g), full in zip(cases, expected):
        top = lattice_stats(poly).interior - g
        for i in range(3):
            assert invariant_codegree_coeff(poly, g, i) == full.coeff2(2 * (top - i))


def labelled_shape_sum(polygon, genus, i):
    """coef_i G_Delta(g) as the sum over the labelled diagrams of codegree
    <= i of label-order extensions * coef_{i - codeg} prod [w]^2: the
    listing that the transfer replaced, kept as its oracle."""
    def term(labelled, codeg):
        weights = [w for _, _, w in labelled.elevators]
        return (count_in_label_order(labelled)
                * coeff_product_of_squares(i - codeg, weights))

    return codegree_coefficient_sum(polygon, genus, i, term)


def assert_transfer_matches_labelled_shapes(polygon, genus, i):
    assert codegree_coefficients(polygon, genus, i) == [
        labelled_shape_sum(polygon, genus, k) for k in range(i + 1)]


@settings(max_examples=25, deadline=None)
@given(small_polygons())
def test_codegree_transfer_matches_labelled_shapes(polygon):
    # every coefficient k <= i in every genus, the lower half included:
    # i = 2(iota - g) + 1 is one below the bottom exponent
    iota = lattice_stats(polygon).interior
    for g in range(iota + 1):
        assert_transfer_matches_labelled_shapes(polygon, g, 2 * (iota - g) + 1)


@pytest.mark.parametrize("abn", [(8, 3, 2), (7, 3, 3)])
def test_codegree_transfer_matches_labelled_shapes_with_free_slots(abn):
    # weights above i (free slots of the transfer), and sinks below the top
    # floor, among the labelled diagrams of codegree <= 2
    polygon = make_delta_abn(*abn)
    walked = list(diagram._labelled(polygon, 2, 2))
    assert any(w > 2 for d, _ in walked for _, _, w in d.elevators)
    assert any(t for d, _ in walked for _, _, _, t in d.floors[:-1])
    assert_transfer_matches_labelled_shapes(polygon, 2, 2)


def test_codegree_coeff_lists_no_shape(monkeypatch):
    # the transfer walks states: no walk listing shapes, no extension count
    # of a shape and no coefficient of a shape's product of squares
    mixed = parse_polygon("ht:dl=[-2,0,1,1];dr=[2,0,0,-1];db=2;dt=1")
    cases = [(make_delta_abn(4, 2, 1), 1), (make_delta_abn(8, 3, 2), 2), (mixed, 0)]
    expected = [[labelled_shape_sum(poly, g, i) for i in range(3)] for poly, g in cases]

    def fail(*args, **kwargs):
        raise AssertionError("a labelled shape was listed on the codegree path")

    for module in (diagram, marking, coeff, invariant):
        for name in ("run_enumeration_task", "count_reduced_extensions",
                     "count_in_label_order", "coeff_product_of_squares",
                     "codegree_coefficient_sum"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, fail)
    for (poly, g), values in zip(cases, expected):
        assert [invariant_codegree_coeff(poly, g, i) for i in range(3)] == values


# the tables that every walk, transfer and descendant sum of the process
# shares
SHARED_TABLES = (diagram._openings, diagram._splits, diagram._transfer_splits,
                 diagram._gap_choices, marking._factor_terms)
# the other process-wide memos of floordiag, and why no order test clears them
UNSHARED_MEMOS = {
    "coeff._F": "an integer recursion of its two arguments that only the "
                "closed form reads; test_coeff checks its values",
    "polygon.lattice_stats": "the lattice counts of a frozen polygon, which "
                             "every path reads first; test_polygon checks them",
}


def clear_shared_tables():
    for table in SHARED_TABLES:
        table.cache_clear()


FIT_GRID = ["fit", "--i", "1", "--genus", "1", "--grid", "a=4..8,b=2..5,n=1..4"]


@pytest.mark.parametrize("tables", ["cold", "warm"])
def test_inexact_codegree_transfer_is_an_engine_fault(tables, monkeypatch, capsys):
    # with each factorial one too large, the labellings no longer divide
    # the total: the transfer raises, and the CLI reports an engine fault,
    # whether the shared tables are empty or already hold every key
    monkeypatch.setenv("FLOORDIAG_CACHE_DIR", "")
    clear_shared_tables()
    if tables == "warm":
        invariant_codegree_coeff(make_delta_abn(4, 2, 1), 1, 1)
        assert cli.main(FIT_GRID) == 0
        capsys.readouterr()
    monkeypatch.setattr(diagram, "factorial", lambda k: math.factorial(k) + 1)
    with pytest.raises(EngineError):
        invariant_codegree_coeff(make_delta_abn(4, 2, 1), 1, 1)
    assert cli.main(FIT_GRID) == 3
    assert capsys.readouterr().err.startswith("engine fault: ")


def test_codegree_transfer_is_independent_of_table_order(monkeypatch):
    # an entry of a shared table depends on its key alone: the values from
    # empty tables come back after other polygons and codegrees filled
    # them in another order, and after a call under a patched factorial
    monkeypatch.setenv("FLOORDIAG_CACHE_DIR", "")
    mixed = parse_polygon("ht:dl=[-2,0,1,1];dr=[2,0,0,-1];db=2;dt=1")
    cases = [(make_delta_abn(4, 2, 1), 1, 2), (make_delta_abn(8, 3, 2), 2, 2),
             (mixed, 0, 3), (D4, 1, 5)]
    clear_shared_tables()
    cold = [codegree_coefficients(poly, g, i) for poly, g, i in cases]
    clear_shared_tables()
    others = [(make_delta_abn(5, 2, 1), 1), (make_delta_abn(3, 2, 3), 1),
              (make_delta_d(5), 2), (mixed, 1)]
    for i in range(4):
        for poly, g in others:
            codegree_coefficients(poly, g, i)
            enumerate_floor_diagrams(poly, g, i)
            labelled_shape_sum(poly, g, i)
    with monkeypatch.context() as patched:
        patched.setattr(diagram, "factorial", lambda k: math.factorial(k) + 1)
        for poly, g, i in cases:
            with pytest.raises(EngineError):
                codegree_coefficients(poly, g, i)
    assert [codegree_coefficients(poly, g, i) for poly, g, i in cases] == cold


def test_descendants_are_independent_of_table_order(monkeypatch):
    # the mu_S factor terms and the splits are process-wide tables: the
    # descendants of Delta_4 from empty tables come back after other
    # polygons, pairings and codegree bounds filled them
    monkeypatch.setenv("FLOORDIAG_CACHE_DIR", "")
    cases = [(s, None, c) for s in range(lattice_stats(D4).s_max + 1) for c in (None, 1)]
    cases.append((2, make_pairing([(2, 3), (6, 7)]), None))

    def values(order):
        return [refined_descendant(D4, s, pairing=S, max_codeg=c).key()
                for s, S, c in order]

    clear_shared_tables()
    cold = values(cases)
    clear_shared_tables()
    for poly in (D3, make_delta_abn(3, 2, 1), make_delta_d(5)):
        for s in range(3):
            refined_descendant(poly, s, max_codeg=2)
        codegree_coefficients(poly, 0, 2)
    assert values(cases[::-1]) == cold[::-1]


def test_every_process_wide_memo_is_listed():
    # a new lru_cache table in floordiag must join SHARED_TABLES, and so the
    # order tests above, or UNSHARED_MEMOS with its reason
    found = set()
    for info in pkgutil.iter_modules(floordiag.__path__):
        module = importlib.import_module("floordiag." + info.name)
        found.update("%s.%s" % (info.name, name) for name, value in vars(module).items()
                     if hasattr(value, "cache_info") and value.__module__ == module.__name__)
    shared = {"%s.%s" % (t.__module__.rpartition(".")[2], t.__name__) for t in SHARED_TABLES}
    assert found == shared | set(UNSHARED_MEMOS)
    assert not shared & set(UNSHARED_MEMOS)


def built_from_tuples(value):
    # tuples nesting ints, strs and None, nothing mutable
    if type(value) is tuple:
        return all(built_from_tuples(v) for v in value)
    return value is None or type(value) in (int, str)


def test_shared_table_entries_hold_tuples_only(monkeypatch):
    # an entry is shared by every later caller of the process, so none may
    # be a list or another object that a caller could change
    monkeypatch.setenv("FLOORDIAG_CACHE_DIR", "")
    clear_shared_tables()
    results = {}

    def recorded(table):
        def call(*args):
            value = table(*args)
            results.setdefault(table.__name__, []).append(value)
            return value
        return call

    for table in SHARED_TABLES:
        monkeypatch.setattr(importlib.import_module(table.__module__), table.__name__,
                            recorded(table))
    mixed = parse_polygon("ht:dl=[-2,0,1,1];dr=[2,0,0,-1];db=2;dt=1")
    delta_832, delta_421 = make_delta_abn(8, 3, 2), make_delta_abn(4, 2, 1)
    codegree_coefficients(delta_832, 2, 2)
    codegree_coefficients(mixed, 0, 3)
    assert diagram.run_enumeration_task(delta_421, 1, delta_421.d_l, delta_421.d_r, 2)
    refined_descendant(D4, 2)
    assert set(results) == {table.__name__ for table in SHARED_TABLES}
    for name, values in results.items():
        assert all(built_from_tuples(v) for v in values), name


def pinned_transfer_cases():
    # the fit box of coef_1 in genus 1, three shape cases with free slots
    # and sinks below the top floor, and every genus of four polygons one
    # index below the bottom exponent
    for a in range(4, 10):
        for b in range(2, 6):
            for n in range(1, 5):
                yield make_delta_abn(a, b, n), 1, 1
    for abn in [(8, 3, 2), (9, 3, 2), (12, 3, 3)]:
        yield make_delta_abn(*abn), 2, 2
    for literal in ["abn:4,0,1", "abn:5,0,1",
                    "ht:dl=[-2,0,1,1];dr=[2,0,0,-1];db=2;dt=1", "abn:3,2,3"]:
        polygon = parse_polygon(literal)
        iota = lattice_stats(polygon).interior
        for g in range(iota + 1):
            yield polygon, g, 2 * (iota - g) + 1


def test_codegree_transfer_values_are_pinned():
    # (transfer calls, SHA-256 of the repr of their coefficient lists)
    rows = [codegree_coefficients(poly, g, i) for poly, g, i in pinned_transfer_cases()]
    assert (len(rows), hashlib.sha256(repr(rows).encode()).hexdigest()) == (
        134, "c3c50f3f0072e754f485bb173d74299b4a2050a5a4039375119473e30bd4e080")


@pytest.mark.parametrize("literal", ["abn:4,0,1", "abn:3,1,1", "abn:3,2,1"])
def test_truncated_descendant_matches_marking_oracle(literal, monkeypatch):
    monkeypatch.setenv("FLOORDIAG_CACHE_DIR", "")
    polygon = parse_polygon(literal)
    stats = lattice_stats(polygon)
    markings = [m for d in enumerate_floor_diagrams(polygon, 0) for m in enumerate_markings(d)]
    pairings = [canonical_pairing(s) for s in range(4)] + [make_pairing([(2, 3), (6, 7)])]
    for S in pairings:
        full = sum((mu_S(m, S) for m in markings), LaurentPoly.zero())
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


@settings(max_examples=40, deadline=None)
@given(small_polygons())
def test_leading_coefficient_is_the_binomial_on_random_polygons(polygon):
    # coef_0 G_Delta(g) = C(iota, g) in every genus, through the transfer
    # that starts each label order at its base codegree
    iota = lattice_stats(polygon).interior
    for g in range(iota + 1):
        assert codegree_coefficients(polygon, g, 0)[0] == comb(iota, g), g


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


# Node polynomials N_delta(d): the number of delta-nodal plane curves of
# degree d through d(d+3)/2 - delta general points.  delta = 1 is the degree
# of the discriminant; delta = 2 and 3 are from Kleiman-Piene, "Enumerating
# singular curves on surfaces" (1999).  Every such curve is irreducible when
# delta <= d - 2, so N_delta(d) is G_{Delta_d}(iota - delta) at q = 1.
NODE_POLYNOMIALS = {
    1: (range(3, 10), lambda d: 3 * (d - 1) ** 2),
    2: (range(4, 10), lambda d: Fraction(3, 2) * (d - 1) * (d - 2) * (3 * d ** 2 - 3 * d - 11)),
    3: (range(5, 10), lambda d: (Fraction(9, 2) * d ** 6 - 27 * d ** 5 + Fraction(9, 2) * d ** 4
                                 + Fraction(423, 2) * d ** 3 - 229 * d ** 2
                                 - Fraction(829, 2) * d + 525)),
}


@pytest.mark.parametrize("delta", sorted(NODE_POLYNOMIALS))
def test_high_genus_at_one_is_the_node_polynomial(delta, monkeypatch):
    monkeypatch.setenv("FLOORDIAG_CACHE_DIR", "")
    degrees, node_polynomial = NODE_POLYNOMIALS[delta]
    for d in degrees:
        iota = (d - 1) * (d - 2) // 2
        value = refined_invariant(make_delta_d(d), iota - delta).evaluate_at_one()
        assert value == node_polynomial(d), d


def _labelled_sum(polygon, genus):
    """Sum of mult(L) times the label-order extension count over the
    labelled diagrams L, with one mult per multiset of elevator weights."""
    groups = {}
    for d, _ in diagram._labelled(polygon, genus, None):
        weights = tuple(sorted(w for _, _, w in d.elevators if w > 1))
        groups.setdefault(weights, [d, 0])[1] += marking.count_in_label_order(d)
    total = LaurentPoly.zero()
    for d, n in groups.values():
        total = total + diagram.mult(d).scalar_mul(n)
    return total


@pytest.mark.parametrize("literal, max_genus", [
    ("abn:5,0,1", 6), ("ht:dl=[-2,0,1,1];dr=[2,0,0,-1];db=2;dt=1", 2), ("abn:4,1,2", 3)])
def test_labelled_sum_is_the_invariant(literal, max_genus, monkeypatch):
    # the sum over labelled floor diagrams (Fomin-Mikhalkin) gives the
    # whole Laurent polynomial that the sum over classes gives
    monkeypatch.setenv("FLOORDIAG_CACHE_DIR", "")
    polygon = parse_polygon(literal)
    for g in range(max_genus + 1):
        assert _labelled_sum(polygon, g) == refined_invariant(polygon, g), g


@settings(max_examples=25, deadline=None)
@given(small_polygons())
def test_labelled_sum_is_the_invariant_on_random_polygons(polygon):
    with mock.patch.dict(os.environ, {"FLOORDIAG_CACHE_DIR": ""}):
        for g in range(3):
            assert _labelled_sum(polygon, g) == refined_invariant(polygon, g), g


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


@pytest.mark.parametrize("entry", [
    {},  # the zero polynomial has no top term
    {"2": 7},  # not symmetric
    {"2": 1, "0": 10},  # not symmetric, top term right
    {"4": 1, "0": 10, "-4": 1},  # top exponent 2, not iota - g = 1
    {"2": 2, "0": 10, "-2": 2},  # top coefficient 2, not C(1, 0) = 1
    {"2": 1, "0": -4, "-2": 1},  # a negative coefficient
])
def test_impossible_invariant_entry_is_a_miss(tmp_path, monkeypatch, entry):
    # a G entry that no engine run could give is recomputed and rewritten
    monkeypatch.setenv("FLOORDIAG_CACHE_DIR", str(tmp_path))
    path = _cache_path("G", D3, "g=0")
    path.write_text(json.dumps(entry))
    assert refined_invariant(D3, 0).render() == "q + 10 + q^-1"
    assert json.loads(path.read_text()) == {"2": 1, "0": 10, "-2": 1}


@pytest.mark.parametrize("max_codeg,entry", [
    (None, {}),  # the zero polynomial has no top term
    (None, {"2": 7}),  # top coefficient 7, not 1
    (None, {"2": 1, "0": -3, "-2": 1}),  # a negative coefficient
    (0, {"2": 1, "0": 5}),  # a term below 2(iota - 0), the lowest one kept
])
def test_impossible_descendant_entry_is_a_miss(tmp_path, monkeypatch, max_codeg, entry):
    # a Gs entry that no engine run could give is recomputed and rewritten
    monkeypatch.setenv("FLOORDIAG_CACHE_DIR", str(tmp_path))
    value = refined_descendant(D3, 0, max_codeg=max_codeg)
    [path] = tmp_path.iterdir()
    stored = json.loads(path.read_text())
    path.write_text(json.dumps(entry))
    assert refined_descendant(D3, 0, max_codeg=max_codeg) == value
    assert json.loads(path.read_text()) == stored


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
