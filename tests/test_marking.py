import hashlib

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from floordiag import marking
from floordiag.diagram import (
    FloorDiagram,
    _labelled,
    _relabellings,
    enumerate_floor_diagrams,
    mult,
    validate,
    vertex_automorphisms,
)
from floordiag.invariant import refined_descendant, refined_invariant
from floordiag.laurent import EngineError, LaurentPoly, poly_geq, quantum_integer
from floordiag.marking import (
    all_pairings,
    canonical_pairing,
    count_in_label_order,
    count_markings,
    count_reduced_extensions,
    descendant_sum,
    enumerate_markings,
    is_compatible,
    iter_reduced_extensions,
    make_pairing,
    mu_S,
    parse_pairing,
    reduced_poset,
)
from floordiag.polygon import (
    HTransversePolygon,
    lattice_stats,
    make_delta_abn,
    make_delta_d,
    parse_polygon,
)
from strategies import small_polygons, upside_down

CHAIN2 = FloorDiagram(((0, 1, 3, 0), (0, 1, 0, 0), (0, 1, 0, 0)),
                      ((0, 1, 2), (1, 2, 1)))  # the weight-2 cubic chain
CHAIN11 = FloorDiagram(((0, 1, 2, 0), (0, 1, 1, 0), (0, 1, 0, 0)),
                       ((0, 1, 1), (1, 2, 1)))  # displaced source
MIXED = "ht:dl=[-2,0,1,1];dr=[2,0,0,-1];db=2;dt=1"
STAR = FloorDiagram(((0, 1, 3, 0), (0, 1, 0, 0), (0, 1, 0, 0)),
                    ((0, 1, 1), (0, 2, 1)))


def marked_classes(d):
    """count_markings with the automorphisms listed by vertex_automorphisms."""
    return count_markings(d, len(vertex_automorphisms(d)))


def test_marking_counts_cubic():
    assert marked_classes(CHAIN2) == 1
    assert marked_classes(CHAIN11) == 5
    assert marked_classes(STAR) == 3
    assert marked_classes(CHAIN11) + marked_classes(STAR) == 8


def test_chain_has_single_marking():
    chain = FloorDiagram(((0, 1, 1, 0), (0, 1, 0, 0)), ((0, 1, 1),))
    assert marked_classes(chain) == 1


def test_enumerate_matches_count():
    for poly, g in [(make_delta_d(3), 0), (make_delta_d(3), 1),
                    (make_delta_d(4), 0), (make_delta_abn(2, 2, 1), 0)]:
        for d in enumerate_floor_diagrams(poly, g):
            assert len(enumerate_markings(d)) == marked_classes(d)


def test_count_delta3_marked_classes():
    total = sum(marked_classes(d) for d in enumerate_floor_diagrams(make_delta_d(3), 0))
    assert total == 9


def test_parallel_weight_markings():
    """Equal parallel weights admit one marking, distinct ones two."""
    poly = HTransversePolygon((-2, 0, 1, 1), (2, 0, 0, -1), 2, 1)
    diagrams = enumerate_floor_diagrams(poly, 1, max_codeg=0)
    counts = sorted(marked_classes(d) for d in diagrams)
    assert counts == [1, 2, 2, 2, 2, 2]
    zero_g0 = list(enumerate_floor_diagrams(poly, 0, max_codeg=0))
    assert len(zero_g0) == 1 and marked_classes(zero_g0[0]) == 1


def test_reduced_count_matches_enumeration():
    for g in range(4):
        for d in enumerate_floor_diagrams(make_delta_d(4), g):
            assert count_reduced_extensions(d) == len(list(iter_reduced_extensions(d))), d


# -- extensions with the floors in label order ---------------------------------


def labelled_extensions_oracle(d, extensions):
    """The reduced extensions of d that list the floors in label order."""
    floors = [("floor", v) for v in range(d.n_floors)]
    return sum(1 for m in extensions if [e for e in m if e[0] == "floor"] == floors)


def labelled_diagrams(polygon, genus):
    """Every labelled diagram of the genus."""
    yield from (d for d, _ in _labelled(polygon, genus, None))


def test_labelled_extensions_match_oracle_on_cubic_and_quartic():
    for polygon in (make_delta_d(3), make_delta_d(4)):
        for g in range(lattice_stats(polygon).interior + 1):
            for d in labelled_diagrams(polygon, g):
                oracle = labelled_extensions_oracle(d, iter_reduced_extensions(d))
                assert count_in_label_order(d) == oracle, d
            # the labellings of a class share out its marked classes
            labelled = sum(count_in_label_order(d)
                           for d, _ in _labelled(polygon, g, None))
            classes = sum(marked_classes(d) for d in enumerate_floor_diagrams(polygon, g))
            assert labelled == classes


@settings(max_examples=30, deadline=None)
@given(small_polygons(), st.integers(0, 1))
def test_labelled_extensions_match_oracle_on_random_polygons(polygon, genus):
    # sources and sinks on interior floors, more sinks than sources, and long
    # elevators; draws whose oracle would list more than 20,000 extensions
    # are skipped, after the labellings are checked to share out the marked
    # classes
    labelled = sum(count_in_label_order(d)
                   for d, _ in _labelled(polygon, genus, None))
    assert labelled == sum(marked_classes(d) for d in enumerate_floor_diagrams(polygon, genus))
    diagrams = list(labelled_diagrams(polygon, genus))
    assume(sum(count_reduced_extensions(d) for d in diagrams) <= 20_000)
    for d in diagrams:
        extensions = list(iter_reduced_extensions(d))
        assert count_reduced_extensions(d) == len(extensions), d
        oracle = labelled_extensions_oracle(d, extensions)
        assert count_in_label_order(d) == oracle, d


# past the oracle's cap: the label-order counts over the labellings against
# the class counts, on a polygon with many labellings and on
# turned polygons, whose labelled diagrams have sinks below the top floor
@pytest.mark.parametrize("literal, turned, max_genus", [
    ("abn:6,0,1", False, 2), ("abn:4,1,2", True, 2), ("abn:4,2,1", True, 2), (MIXED, True, 1)])
def test_labelled_extensions_share_out_the_marked_classes(literal, turned, max_genus):
    polygon = parse_polygon(literal)
    if turned:
        polygon = upside_down(polygon)
    for g in range(max_genus + 1):
        labelled = sum(count_in_label_order(d)
                       for d, _ in _labelled(polygon, g, None))
        classes = sum(count_markings(d, auts)
                      for d, auts in enumerate_floor_diagrams(polygon, g).items())
        assert labelled == classes, g


@settings(max_examples=30, deadline=None)
@given(small_polygons(), st.integers(0, 1))
def test_label_orders_share_out_each_diagram(polygon, genus):
    # every reduced extension keeps the floors in one topological order, so
    # the label-order counts of a diagram's relabellings, one per order, sum
    # to its reduced extension count
    for d in enumerate_floor_diagrams(polygon, genus):
        labelled = sum(count_in_label_order(FloorDiagram(*key))
                       for _, key in _relabellings(d))
        assert labelled == count_reduced_extensions(d), d


def test_markings_increasing():
    for m in enumerate_markings(CHAIN11):
        pos = {e: p for p, e in enumerate(m)}
        for e in m:
            if e[0] == "elev":
                assert pos[("floor", e[1])] < pos[e] < pos[("floor", e[2])]
            elif e[0] == "src":
                assert pos[e] < pos[("floor", e[1])]
            elif e[0] == "snk":
                assert pos[e] > pos[("floor", e[1])]


def test_pairing_construction():
    assert canonical_pairing(2) == frozenset({(1, 2), (3, 4)})
    assert parse_pairing("pairs:1-2,3-4") == canonical_pairing(2)
    assert parse_pairing("pairs:") == frozenset()
    with pytest.raises(ValueError):
        make_pairing([(1, 3)])
    with pytest.raises(ValueError):
        make_pairing([(1, 2), (2, 3)])


def test_all_pairings_count():
    import math

    for n in range(2, 10):
        for s in range(n // 2 + 1):
            assert len(list(all_pairings(n, s))) == math.comb(n - s, s)


def test_all_pairings_rejects_a_negative_order():
    with pytest.raises(ValueError):
        all_pairings(8, -1)


def test_compatibility_empty_pairing():
    m = enumerate_markings(CHAIN2)[0]
    assert is_compatible(m, frozenset())
    assert mu_S(m, frozenset()) == mult(CHAIN2)


def test_compatible_configurations():
    m = enumerate_markings(CHAIN2)[0]
    # positions: s,s,s,f0,e0,f1,e1,f2 -> {4,5} is a floor with its elevator
    assert is_compatible(m, make_pairing([(4, 5)]))
    # {1,2}: two sources entering the same floor
    assert is_compatible(m, make_pairing([(1, 2)]))
    # {3,4}: source + its floor
    assert is_compatible(m, make_pairing([(3, 4)]))


def test_incompatible_configurations():
    src = [("src", 0, c) for c in range(3)]
    f = [("floor", v) for v in range(3)]
    e01 = ("elev", 0, 1, 1, 0)
    e02 = ("elev", 0, 2, 1, 0)
    # elevator paired with a floor it is not adjacent to
    m = tuple(src) + (f[0], e01, f[1], e02, f[2])
    assert not is_compatible(m, make_pairing([(6, 7)]))
    assert mu_S(m, make_pairing([(6, 7)])) == LaurentPoly.zero()
    # two floors paired
    m2 = tuple(src) + (f[0], e01, e02, f[1], f[2])
    assert not is_compatible(m2, make_pairing([(7, 8)]))
    # two elevators sharing their lower floor are a valid double pair
    assert is_compatible(m2, make_pairing([(5, 6)]))
    # sources entering different floors share no floor: rejected
    m3 = (("src", 0, 0), ("src", 0, 1), ("src", 1, 0), ("floor", 0),
          ("elev", 0, 1, 1, 0), ("floor", 1), ("elev", 1, 2, 1, 0), ("floor", 2))
    assert not is_compatible(m3, make_pairing([(2, 3)]))


def test_mu_S_weighted_chain_table_column():
    s_top = [frozenset((9 - 2 * i + 2 * k, 10 - 2 * i + 2 * k) for k in range(i))
             for i in range(1, 5)]
    m = enumerate_markings(CHAIN2)[0]
    values = [mu_S(m, S).render() for S in s_top]
    assert values == ["q + 2 + q^-1", "q + q^-1", "q + q^-1", "q + q^-1"]


def test_mu_S_zero_when_incompatible():
    # pairing two sources attached to different floors gives zero
    m = (("src", 0, 0), ("src", 1, 0), ("src", 0, 1), ("floor", 0),
         ("elev", 0, 1, 1, 0), ("floor", 1), ("elev", 1, 2, 1, 0), ("floor", 2))
    assert mu_S(m, make_pairing([(1, 2)])) == LaurentPoly.zero()
    assert mu_S(m, make_pairing([(2, 3)])) == LaurentPoly.zero()
    assert mu_S(m, frozenset()) == LaurentPoly.one()


def test_mu_S_monotone_under_pairing_growth():
    """Adding pairs never increases mu_S coefficientwise."""
    for d in enumerate_floor_diagrams(make_delta_d(3), 0):
        n = d.n_marks()
        for m in enumerate_markings(d):
            for S2 in all_pairings(n, 2):
                v2 = mu_S(m, S2)
                for pair in S2:
                    v1 = mu_S(m, frozenset({pair}))
                    assert poly_geq(v1, v2)


def test_mu_S_symmetric_and_degree():
    for d in enumerate_floor_diagrams(make_delta_d(4), 0):
        n = d.n_marks()
        for m in enumerate_markings(d)[:3]:
            for S in list(all_pairings(n, 2))[:5]:
                v = mu_S(m, S)
                assert v.is_symmetric()
                if not v.is_zero():
                    assert v.degree2() == 2 * d.degree()
                    assert v.has_nonnegative_coeffs()


def test_mu_S_invariant_on_orbits():
    from floordiag.marking import _induced_element_map

    d = STAR
    auts = vertex_automorphisms(d)
    maps = [_induced_element_map(p) for p in auts]
    for m in iter_reduced_extensions(d):
        for S in all_pairings(d.n_marks(), 1):
            vals = {mu_S(f(m), S).key() for f in maps}
            assert len(vals) == 1


def assert_automorphisms_permute_reduced_extensions(d):
    """Each floor automorphism maps the reduced extensions onto themselves,
    with the copy indices unchanged."""
    from floordiag.marking import _induced_element_map

    extensions = set(iter_reduced_extensions(d))
    for p in vertex_automorphisms(d):
        assert set(map(_induced_element_map(p), extensions)) == extensions, (d, p)


@pytest.mark.parametrize("literal,max_codeg", [
    ("abn:4,0,1", None), ("abn:3,1,1", None), ("abn:2,3,1", None), (MIXED, 3)])
def test_automorphisms_permute_reduced_extensions(literal, max_codeg):
    polygon = parse_polygon(literal)
    for g in range(min(3, lattice_stats(polygon).interior) + 1):
        for d in enumerate_floor_diagrams(polygon, g, max_codeg=max_codeg):
            assert_automorphisms_permute_reduced_extensions(d)


@settings(max_examples=30, deadline=None)
@given(small_polygons(), st.integers(0, 1))
def test_automorphisms_permute_reduced_extensions_on_random_polygons(polygon, genus):
    diagrams = enumerate_floor_diagrams(polygon, genus)
    assume(sum(count_reduced_extensions(d) for d in diagrams) <= 20_000)
    for d in diagrams:
        assert_automorphisms_permute_reduced_extensions(d)


# An elevator of weight 3 from floor 0 to floor 1, and two elevators of
# weights 2 and 3 leaving floor 0; the markings list the elements one by one.
WEIGHT3 = FloorDiagram(((0, 0, 3, 0), (0, 0, 0, 3)), ((0, 1, 3),))
WEIGHT3_MARKING = (("src", 0, 0), ("src", 0, 1), ("src", 0, 2), ("floor", 0),
                   ("elev", 0, 1, 3, 0), ("floor", 1),
                   ("snk", 1, 0), ("snk", 1, 1), ("snk", 1, 2))
FORK23 = FloorDiagram(((0, 0, 5, 0), (0, 0, 0, 2), (0, 0, 0, 3)), ((0, 1, 2), (0, 2, 3)))
FORK23_MARKING = (("src", 0, 0), ("src", 0, 1), ("src", 0, 2), ("src", 0, 3), ("src", 0, 4),
                  ("floor", 0), ("elev", 0, 1, 2, 0), ("elev", 0, 2, 3, 0),
                  ("floor", 1), ("floor", 2), ("snk", 1, 0), ("snk", 1, 1),
                  ("snk", 2, 0), ("snk", 2, 1), ("snk", 2, 2))


q = quantum_integer  # [w] is q(w)


@pytest.mark.parametrize("d,m,pairs,want", [
    # unpaired weights: [w]^2 each
    (WEIGHT3, WEIGHT3_MARKING, [], q(3) * q(3)),
    (FORK23, FORK23_MARKING, [], q(2) * q(2) * q(3) * q(3)),
    # an elevator paired with its lower or upper floor: [w](q^2)
    (WEIGHT3, WEIGHT3_MARKING, [(4, 5)], q(3).substitute_q_squared()),
    (WEIGHT3, WEIGHT3_MARKING, [(5, 6)], q(3).substitute_q_squared()),
    (FORK23, FORK23_MARKING, [(6, 7)], q(2).substitute_q_squared() * q(3) * q(3)),
    # two elevators leaving one floor: [2][3][5]/[2] = [3][5]
    (FORK23, FORK23_MARKING, [(7, 8)], q(3) * q(5)),
    # two sinks of one floor: [1][1][2]/[2] = 1
    (FORK23, FORK23_MARKING, [(11, 12)], q(2) * q(2) * q(3) * q(3)),
])
def test_mu_S_factor_rule(d, m, pairs, want):
    assert validate(d, d.newton_polygon()) == []
    assert m in set(iter_reduced_extensions(d))
    pairing = make_pairing(pairs)
    assert is_compatible(m, pairing)
    assert mu_S(m, pairing) == want


@pytest.mark.parametrize("d", [3, 4])
def test_compatible_exactly_when_mu_S_is_nonzero(d):
    for diagram in enumerate_floor_diagrams(make_delta_d(d), 0):
        n = diagram.n_marks()
        pairings = [S for s in range(3) for S in all_pairings(n, s)]
        for m in enumerate_markings(diagram):
            for S in pairings:
                assert is_compatible(m, S) == (not mu_S(m, S).is_zero())


# The order of each list is pinned, not only its content: the marked-class
# table of `verify` prints its rows in the order of enumerate_markings.
DELTA4_AUTOMORPHISMS = [
    [(0, 1, 2, 3)], [(0, 1, 2, 3), (0, 1, 3, 2)], [(0, 1, 2, 3)],
    [(0, 1, 2, 3), (1, 0, 2, 3)], [(0, 1, 2, 3)], [(0, 1, 2, 3)],
    [(0, 1, 2, 3), (0, 1, 3, 2)], [(0, 1, 2, 3)],
    [(0, 1, 2, 3), (0, 1, 3, 2), (0, 2, 1, 3), (0, 3, 1, 2), (0, 2, 3, 1), (0, 3, 2, 1)],
    [(0, 1, 2, 3)], [(0, 1, 2, 3), (0, 1, 3, 2)], [(0, 1, 2, 3)],
]
DELTA4_MARKINGS = ([40, 45, 15, 35, 102, 8, 18, 6, 15, 15, 3, 1],
                   "d7ac48d0eb3667ebba76ca02ab143b1f2a1c1b299c6efa71cf360a9d011140d3")
DELTA4_EXTENSIONS = ([40, 90, 15, 70, 102, 8, 36, 6, 90, 15, 6, 1],
                     "ff0c6b208081030b993da2e97021d92a97406e64c5d7a27ac928379bbeaeab15")


def sizes_and_digest(lists):
    return [len(x) for x in lists], hashlib.sha256(repr(lists).encode()).hexdigest()


def test_delta4_orders_are_pinned():
    classes = list(enumerate_floor_diagrams(make_delta_d(4), 0))
    assert [vertex_automorphisms(d) for d in classes] == DELTA4_AUTOMORPHISMS
    assert sizes_and_digest([enumerate_markings(d) for d in classes]) == DELTA4_MARKINGS
    extensions = [list(iter_reduced_extensions(d)) for d in classes]
    assert sizes_and_digest(extensions) == DELTA4_EXTENSIONS


def test_elevator_partition():
    """Every elevator lands in exactly one of the three factor classes."""
    d = CHAIN2
    m = enumerate_markings(d)[0]
    S = make_pairing([(1, 2), (4, 5)])
    elevs = [e for e in reduced_poset(d)[0] if e[0] != "floor"]
    in_pairs = set()
    for i, j in S:
        for e in (m[i - 1], m[j - 1]):
            if e[0] != "floor":
                assert e not in in_pairs
                in_pairs.add(e)
    assert in_pairs <= set(elevs)


# -- the downset DP against the marking-by-marking oracle -----------------------


def marking_oracle(pairing, markings):
    return sum((mu_S(m, pairing) for m in markings), LaurentPoly.zero())


# The mixed polygon has 524,624 marked genus-0 classes, too many to list for
# every pairing; its diagrams of codegree <= 3 (245 marked classes) are used.
@pytest.mark.parametrize("literal,max_codeg", [
    ("abn:4,0,1", None), ("abn:3,1,1", None), ("abn:3,2,1", None), (MIXED, 3)])
@pytest.mark.parametrize("s", range(4))
def test_descendant_sum_matches_marking_oracle(literal, max_codeg, s):
    polygon = parse_polygon(literal)
    n = lattice_stats(polygon).boundary - 1
    for d in enumerate_floor_diagrams(polygon, 0, max_codeg=max_codeg):
        markings = enumerate_markings(d)
        for S in all_pairings(n, s):
            auts = len(vertex_automorphisms(d))
            assert descendant_sum(d, S, auts) == marking_oracle(S, markings)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_descendant_sum_random_diagrams(data):
    diagrams = list(enumerate_floor_diagrams(data.draw(small_polygons()), 0))
    assume(diagrams)
    d = data.draw(st.sampled_from(diagrams))
    n = d.n_marks()
    pairing = data.draw(st.sampled_from(list(all_pairings(n, data.draw(st.integers(0, n // 2))))))
    auts = len(vertex_automorphisms(d))
    assert descendant_sum(d, pairing, auts) == marking_oracle(pairing, enumerate_markings(d))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_descendant_sum_truncation_random_diagrams(data):
    # lowest keeps the terms of doubled exponent >= lowest, exactly
    diagrams = list(enumerate_floor_diagrams(data.draw(small_polygons()), 0))
    assume(diagrams)
    d = data.draw(st.sampled_from(diagrams))
    n = d.n_marks()
    pairing = data.draw(st.sampled_from(list(all_pairings(n, data.draw(st.integers(0, n // 2))))))
    auts = len(vertex_automorphisms(d))
    full = descendant_sum(d, pairing, auts)
    # every factor has top 2(w - 1) with coefficient 1, so a nonzero sum
    # reaches the sum of the tops
    top = sum(2 * (w - 1) for _, _, w in d.elevators)
    assert not full or full.degree2() == top
    lowest = data.draw(st.integers(-top - 2, top + 2))
    kept = LaurentPoly({e2: v for e2, v in full.key() if e2 >= lowest})
    assert descendant_sum(d, pairing, auts, lowest) == kept
    assert descendant_sum(d, pairing, auts, top + 1) == LaurentPoly.zero()
    assert descendant_sum(d, pairing, auts, -top - 1) == full


def test_inexact_automorphism_division_is_an_engine_fault(monkeypatch):
    # the enumeration hands each class its automorphism count; 7 cannot act
    # freely on the reduced extensions of every cubic class
    monkeypatch.setenv("FLOORDIAG_CACHE_DIR", "")
    monkeypatch.setattr("floordiag.diagram.automorphism_count", lambda d: 7)
    with pytest.raises(EngineError):
        refined_invariant(make_delta_d(3), 0)
    with pytest.raises(EngineError):
        refined_descendant(make_delta_d(3), 1)
    # the truncated sums divide every coefficient they return
    for max_codeg in range(3):
        with pytest.raises(EngineError):
            refined_descendant(make_delta_d(3), 1, max_codeg=max_codeg)


def test_inexact_given_automorphism_count_is_an_engine_fault():
    # the count enumerate_floor_diagrams hands over is checked the same way
    with pytest.raises(EngineError):
        descendant_sum(CHAIN11, frozenset(), 7)
    with pytest.raises(EngineError):
        count_markings(CHAIN11, 7)


def test_non_free_action_on_markings_is_an_engine_fault(monkeypatch):
    identity = tuple(range(CHAIN11.n_floors))
    monkeypatch.setattr(marking, "vertex_automorphisms", lambda d: [identity, identity])
    with pytest.raises(EngineError):
        enumerate_markings(CHAIN11)
