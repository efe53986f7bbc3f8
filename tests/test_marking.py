import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from floordiag import marking
from floordiag.diagram import FloorDiagram, _labelled, enumerate_floor_diagrams, mult
from floordiag.laurent import EngineError, LaurentPoly, poly_geq
from floordiag.marking import (
    all_pairings,
    canonical_pairing,
    count_markings,
    count_reduced_extensions,
    descendant_sum,
    elements_of,
    enumerate_markings,
    is_compatible,
    iter_reduced_extensions,
    make_pairing,
    mu_S,
    parse_pairing,
)
from floordiag.polygon import (
    HTransversePolygon,
    lattice_stats,
    make_delta_abn,
    make_delta_d,
    parse_polygon,
)
from strategies import small_polygons

CHAIN2 = FloorDiagram(((0, 1, 3, 0), (0, 1, 0, 0), (0, 1, 0, 0)),
                      ((0, 1, 2), (1, 2, 1)))  # the weight-2 cubic chain
CHAIN11 = FloorDiagram(((0, 1, 2, 0), (0, 1, 1, 0), (0, 1, 0, 0)),
                       ((0, 1, 1), (1, 2, 1)))  # displaced source
STAR = FloorDiagram(((0, 1, 3, 0), (0, 1, 0, 0), (0, 1, 0, 0)),
                    ((0, 1, 1), (0, 2, 1)))


def test_marking_counts_cubic():
    assert count_markings(CHAIN2) == 1
    assert count_markings(CHAIN11) == 5
    assert count_markings(STAR) == 3
    assert count_markings(CHAIN11) + count_markings(STAR) == 8


def test_chain_has_single_marking():
    chain = FloorDiagram(((0, 1, 1, 0), (0, 1, 0, 0)), ((0, 1, 1),))
    assert count_markings(chain) == 1


def test_enumerate_matches_count():
    for poly, g in [(make_delta_d(3), 0), (make_delta_d(3), 1),
                    (make_delta_d(4), 0), (make_delta_abn(2, 2, 1), 0)]:
        for d in enumerate_floor_diagrams(poly, g):
            assert len(enumerate_markings(d)) == count_markings(d)


def test_count_delta3_marked_classes():
    total = sum(count_markings(d) for d in enumerate_floor_diagrams(make_delta_d(3), 0))
    assert total == 9


def test_parallel_weight_markings():
    """Equal parallel weights admit one marking, distinct ones two."""
    poly = HTransversePolygon((-2, 0, 1, 1), (2, 0, 0, -1), 2, 1)
    diagrams = enumerate_floor_diagrams(poly, 1, max_codeg=0)
    counts = sorted(count_markings(d) for d in diagrams)
    assert counts == [1, 2, 2, 2, 2, 2]
    zero_g0 = enumerate_floor_diagrams(poly, 0, max_codeg=0)
    assert len(zero_g0) == 1 and count_markings(zero_g0[0]) == 1


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
    """Every labelled diagram of the genus, then its labelled shapes of
    codegree <= 2, whose free slots are parallel copies of one weight."""
    yield from (d for d, _, _ in _labelled(polygon, genus, None))
    for i in range(3):
        yield from (d for d, _, _ in _labelled(polygon, genus, i, free_above=i))


def test_labelled_extensions_match_oracle_on_cubic_and_quartic():
    for polygon in (make_delta_d(3), make_delta_d(4)):
        for g in range(lattice_stats(polygon).interior + 1):
            for d in labelled_diagrams(polygon, g):
                oracle = labelled_extensions_oracle(d, iter_reduced_extensions(d))
                assert count_reduced_extensions(d, in_label_order=True) == oracle, d
            # the labellings of a class share out its marked classes
            labelled = sum(count_reduced_extensions(d, in_label_order=True)
                           for d, _, _ in _labelled(polygon, g, None))
            classes = sum(count_markings(d) for d in enumerate_floor_diagrams(polygon, g))
            assert labelled == classes


@settings(max_examples=30, deadline=None)
@given(small_polygons(), st.integers(0, 1))
def test_labelled_extensions_match_oracle_on_random_polygons(polygon, genus):
    # sources and sinks on interior floors, more sinks than sources, and long
    # elevators; draws whose oracle would list more than 20,000 extensions
    # are skipped, after the labellings are checked to share out the marked
    # classes
    labelled = sum(count_reduced_extensions(d, in_label_order=True)
                   for d, _, _ in _labelled(polygon, genus, None))
    assert labelled == sum(count_markings(d) for d in enumerate_floor_diagrams(polygon, genus))
    diagrams = list(labelled_diagrams(polygon, genus))
    assume(sum(count_reduced_extensions(d) for d in diagrams) <= 20_000)
    for d in diagrams:
        extensions = list(iter_reduced_extensions(d))
        assert count_reduced_extensions(d) == len(extensions), d
        oracle = labelled_extensions_oracle(d, extensions)
        assert count_reduced_extensions(d, in_label_order=True) == oracle, d


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


def test_compatibility_empty_pairing():
    m = enumerate_markings(CHAIN2)[0]
    assert is_compatible(CHAIN2, m, frozenset())
    assert mu_S(CHAIN2, m, frozenset()) == mult(CHAIN2)


def test_compatible_configurations():
    m = enumerate_markings(CHAIN2)[0]
    # positions: s,s,s,f0,e0,f1,e1,f2 -> {4,5} is a floor with its elevator
    assert is_compatible(CHAIN2, m, make_pairing([(4, 5)]))
    # {1,2}: two sources entering the same floor
    assert is_compatible(CHAIN2, m, make_pairing([(1, 2)]))
    # {3,4}: source + its floor
    assert is_compatible(CHAIN2, m, make_pairing([(3, 4)]))


def test_incompatible_configurations():
    src = [("src", 0, c) for c in range(3)]
    f = [("floor", v) for v in range(3)]
    e01 = ("elev", 0, 1, 1, 0)
    e02 = ("elev", 0, 2, 1, 0)
    # elevator paired with a floor it is not adjacent to
    m = tuple(src) + (f[0], e01, f[1], e02, f[2])
    assert not is_compatible(STAR, m, make_pairing([(6, 7)]))
    assert mu_S(STAR, m, make_pairing([(6, 7)])) == LaurentPoly.zero()
    # two floors paired
    m2 = tuple(src) + (f[0], e01, e02, f[1], f[2])
    assert not is_compatible(STAR, m2, make_pairing([(7, 8)]))
    # two elevators sharing their lower floor are a valid double pair
    assert is_compatible(STAR, m2, make_pairing([(5, 6)]))
    # sources entering different floors share no floor: rejected
    m3 = (("src", 0, 0), ("src", 0, 1), ("src", 1, 0), ("floor", 0),
          ("elev", 0, 1, 1, 0), ("floor", 1), ("elev", 1, 2, 1, 0), ("floor", 2))
    assert not is_compatible(CHAIN11, m3, make_pairing([(2, 3)]))


def test_mu_S_weighted_chain_table_column():
    s_top = [frozenset((9 - 2 * i + 2 * k, 10 - 2 * i + 2 * k) for k in range(i))
             for i in range(1, 5)]
    m = enumerate_markings(CHAIN2)[0]
    values = [mu_S(CHAIN2, m, S).render() for S in s_top]
    assert values == ["q + 2 + q^-1", "q + q^-1", "q + q^-1", "q + q^-1"]


def test_mu_S_zero_when_incompatible():
    # pairing two sources attached to different floors gives zero
    m = (("src", 0, 0), ("src", 1, 0), ("src", 0, 1), ("floor", 0),
         ("elev", 0, 1, 1, 0), ("floor", 1), ("elev", 1, 2, 1, 0), ("floor", 2))
    assert mu_S(CHAIN11, m, make_pairing([(1, 2)])) == LaurentPoly.zero()
    assert mu_S(CHAIN11, m, make_pairing([(2, 3)])) == LaurentPoly.zero()
    assert mu_S(CHAIN11, m, frozenset()) == LaurentPoly.one()


def test_mu_S_monotone_under_pairing_growth():
    """Adding pairs never increases mu_S coefficientwise."""
    for d in enumerate_floor_diagrams(make_delta_d(3), 0):
        n = d.n_marks()
        for m in enumerate_markings(d):
            for S2 in all_pairings(n, 2):
                v2 = mu_S(d, m, S2)
                for pair in S2:
                    v1 = mu_S(d, m, frozenset({pair}))
                    assert poly_geq(v1, v2)


def test_mu_S_symmetric_and_degree():
    for d in enumerate_floor_diagrams(make_delta_d(4), 0):
        n = d.n_marks()
        for m in enumerate_markings(d)[:3]:
            for S in list(all_pairings(n, 2))[:5]:
                v = mu_S(d, m, S)
                assert v.is_symmetric()
                if not v.is_zero():
                    assert v.degree2() == 2 * d.degree()
                    assert v.has_nonnegative_coeffs()


def test_mu_S_invariant_on_orbits():
    from floordiag.diagram import vertex_automorphisms
    from floordiag.marking import _induced_element_map

    d = STAR
    auts = vertex_automorphisms(d)
    maps = [_induced_element_map(d, p) for p in auts]
    for m in iter_reduced_extensions(d):
        for S in all_pairings(d.n_marks(), 1):
            vals = {mu_S(d, f(m), S).key() for f in maps}
            assert len(vals) == 1


def test_elevator_partition():
    """Every elevator lands in exactly one of the three factor classes."""
    d = CHAIN2
    m = enumerate_markings(d)[0]
    S = make_pairing([(1, 2), (4, 5)])
    elevs = [e for e in elements_of(d) if e[0] != "floor"]
    in_pairs = set()
    for i, j in S:
        for e in (m[i - 1], m[j - 1]):
            if e[0] != "floor":
                assert e not in in_pairs
                in_pairs.add(e)
    assert in_pairs <= set(elevs)


# -- the downset DP against the marking-by-marking oracle -----------------------

MIXED = "ht:dl=[-2,0,1,1];dr=[2,0,0,-1];db=2;dt=1"


def marking_oracle(d, pairing, markings):
    return sum((mu_S(d, m, pairing) for m in markings), LaurentPoly.zero())


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
            assert descendant_sum(d, S) == marking_oracle(d, S, markings)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_descendant_sum_random_diagrams(data):
    diagrams = enumerate_floor_diagrams(data.draw(small_polygons()), 0)
    assume(diagrams)
    d = data.draw(st.sampled_from(diagrams))
    n = d.n_marks()
    pairing = data.draw(st.sampled_from(list(all_pairings(n, data.draw(st.integers(0, n // 2))))))
    assert descendant_sum(d, pairing) == marking_oracle(d, pairing, enumerate_markings(d))


def test_inexact_automorphism_division_is_an_engine_fault(monkeypatch):
    # CHAIN11 has 5 reduced extensions; 7 automorphisms cannot act freely
    monkeypatch.setattr(marking, "vertex_automorphisms", lambda d: [None] * 7)
    with pytest.raises(EngineError):
        descendant_sum(CHAIN11, frozenset())
    with pytest.raises(EngineError):
        count_markings(CHAIN11)


def test_non_free_action_on_markings_is_an_engine_fault(monkeypatch):
    identity = tuple(range(CHAIN11.n_floors))
    monkeypatch.setattr(marking, "vertex_automorphisms", lambda d: [identity, identity])
    with pytest.raises(EngineError):
        enumerate_markings(CHAIN11)
