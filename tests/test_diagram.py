import itertools
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from floordiag.diagram import (
    FloorDiagram,
    _consecutive,
    _labelled,
    canonical_form,
    canonical_key,
    codegree,
    enumerate_floor_diagrams,
    is_canonical,
    mult,
    op_A_minus,
    op_A_plus,
    op_B_l,
    op_B_r,
    validate,
    vertex_automorphisms,
)
from floordiag.invariant import invariant_codegree_coeff, refined_invariant
from floordiag.laurent import EngineError, LaurentPoly
from floordiag.polygon import HTransversePolygon, lattice_stats, make_delta_abn, make_delta_d
from strategies import small_polygons


def brute_force_labelled(poly, genus):
    """Independent generator: the keys of all labelled weighted DAGs on
    ordered floors satisfying the divergence equations."""
    a = poly.height
    iota = lattice_stats(poly).interior
    if genus > iota:
        return set()
    n_edges = a - 1 + genus
    pairs = [(i, j) for i in range(a) for j in range(i + 1, a)]
    deg_budget = iota - genus
    found = set()
    l_opts = set(itertools.permutations(poly.d_l))
    r_opts = set(itertools.permutations(poly.d_r))

    def weight_vectors(k, budget):
        if k == 0:
            yield ()
            return
        for w in range(1, budget + 2):
            for tail in weight_vectors(k - 1, budget - (w - 1)):
                yield (w,) + tail

    for support in itertools.combinations_with_replacement(pairs, n_edges):
        for weights in weight_vectors(n_edges, deg_budget):
            edges = tuple(sorted(zip((p[0] for p in support), (p[1] for p in support), weights)))
            for ls in l_opts:
                for rs in r_opts:
                    for snk in _distributions(poly.d_t, a):
                        src = []
                        ok = True
                        for v in range(a):
                            inflow = sum(w for i, j, w in edges if j == v)
                            outflow = sum(w for i, j, w in edges if i == v)
                            s = (rs[v] - ls[v]) - inflow + outflow + snk[v]
                            if s < 0:
                                ok = False
                                break
                            src.append(s)
                        if not ok or sum(src) != poly.d_b:
                            continue
                        d = FloorDiagram(tuple(zip(ls, rs, src, snk)), edges)
                        if not validate(d, poly):
                            found.add(d.key())
    return found


def brute_force_classes(poly, genus):
    """The brute-force labelled diagrams, bucketed by canonical form."""
    return {canonical_key(FloorDiagram(*k)) for k in brute_force_labelled(poly, genus)}


def dedupe_by_canonical_form(poly, genus, max_codeg=None):
    """The class list built by canonicalising every labelled diagram."""
    classes = {}
    for d, _, _ in _labelled(poly, genus, max_codeg):
        c = canonical_form(d)
        classes.setdefault(c.key(), c)
    return [classes[k] for k in sorted(classes)]


def _distributions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for tail in _distributions(total - first, parts - 1):
            yield (first,) + tail


def test_counts_delta3():
    assert len(enumerate_floor_diagrams(make_delta_d(3), 0)) == 3
    assert len(enumerate_floor_diagrams(make_delta_d(3), 1)) == 1
    assert enumerate_floor_diagrams(make_delta_d(3), 2) == []


def test_counts_delta4():
    counts = [len(enumerate_floor_diagrams(make_delta_d(4), g)) for g in range(4)]
    assert counts == [12, 11, 5, 1]


@pytest.mark.parametrize(
    "a,b,n,gmax",
    [(3, 0, 1, 2), (2, 2, 1, 2), (4, 0, 1, 2), (3, 2, 0, 2), (2, 0, 2, 1), (3, 1, 1, 2)],
)
def test_bruteforce_completeness(a, b, n, gmax):
    poly = make_delta_abn(a, b, n)
    for g in range(gmax + 1):
        fast = {canonical_key(d) for d in enumerate_floor_diagrams(poly, g)}
        slow = brute_force_classes(poly, g)
        assert fast == slow, (a, b, n, g, len(fast), len(slow))


def test_bruteforce_completeness_general_polygon():
    poly = HTransversePolygon((0, 1), (1, 1), 2, 1)
    for g in range(2):
        fast = {canonical_key(d) for d in enumerate_floor_diagrams(poly, g)}
        slow = brute_force_classes(poly, g)
        assert fast == slow


@settings(max_examples=30, deadline=None)
@given(small_polygons())
def test_sweep_matches_bruteforce_on_random_polygons(poly):
    # random labels put sources and sinks on interior floors and permute the
    # l and r labels, which the walk places floor by floor
    iota = lattice_stats(poly).interior
    for g in range(min(1, iota) + 1):
        labelled = brute_force_labelled(poly, g)
        assert_walk_matches_brute_force_labelled(poly, g, labelled)
        slow = {canonical_key(FloorDiagram(*k)) for k in labelled}
        for max_codeg in (None, 0, 1, 2):
            fast = {canonical_key(d) for d in enumerate_floor_diagrams(poly, g, max_codeg)}
            assert fast == {
                k for k in slow
                if max_codeg is None or codegree(FloorDiagram(*k)) <= max_codeg
            }
        full = refined_invariant(poly, g)
        for i in range(min(2, iota - g) + 1):
            assert invariant_codegree_coeff(poly, g, i) == full.coeff2(2 * (iota - g - i))


def assert_walk_matches_brute_force_labelled(poly, genus, slow):
    # every labelled diagram once, with its codegree and one assignment
    for max_codeg in (None, 0, 1):
        walked = list(_labelled(poly, genus, max_codeg))
        keys = [d.key() for d, _, _ in walked]
        assert len(keys) == len(set(keys)), (poly, genus, max_codeg)
        assert set(keys) == {
            k for k in slow
            if max_codeg is None or codegree(FloorDiagram(*k)) <= max_codeg
        }, (poly, genus, max_codeg)
        assert all(assign == 1 and codeg == codegree(d) for d, assign, codeg in walked)


@pytest.mark.parametrize("poly,gmax", [
    (make_delta_d(4), 3),
    (make_delta_abn(3, 1, 1), 2),
    (HTransversePolygon((0, 1), (1, 1), 2, 1), 1),
])
def test_labelled_walk_matches_bruteforce(poly, gmax):
    for g in range(gmax + 1):
        assert_walk_matches_brute_force_labelled(poly, g, brute_force_labelled(poly, g))


def test_classes_match_dedupe_by_canonical_form():
    polys = [(make_delta_d(4), 3), (make_delta_abn(3, 1, 1), 2),
             (HTransversePolygon((-2, 0, 1, 1), (2, 0, 0, -1), 2, 1), 1)]
    for poly, gmax in polys:
        for g in range(gmax + 1):
            for max_codeg in (None, 0, 1, 2):
                assert (enumerate_floor_diagrams(poly, g, max_codeg)
                        == dedupe_by_canonical_form(poly, g, max_codeg)), (poly, g, max_codeg)


@settings(max_examples=30, deadline=None)
@given(small_polygons(), st.integers(0, 2))
def test_classes_match_dedupe_by_canonical_form_on_random_polygons(poly, genus):
    for max_codeg in (None, 0, 1):
        assert (enumerate_floor_diagrams(poly, genus, max_codeg)
                == dedupe_by_canonical_form(poly, genus, max_codeg))


def test_max_codeg_restriction():
    poly = make_delta_d(4)
    full = enumerate_floor_diagrams(poly, 0)
    for cap in range(4):
        capped = enumerate_floor_diagrams(poly, 0, max_codeg=cap)
        assert {d.key() for d in capped} == {
            d.key() for d in full if codegree(d) <= cap
        }


def test_mult_examples():
    # the weight-2 cubic diagram and an all-weight-1 diagram
    chain = FloorDiagram(((0, 1, 3, 0), (0, 1, 0, 0), (0, 1, 0, 0)),
                         ((0, 1, 2), (1, 2, 1)))
    assert mult(chain).render() == "q + 2 + q^-1"
    flat = FloorDiagram(((0, 1, 2, 0), (0, 1, 1, 0), (0, 1, 0, 0)),
                        ((0, 1, 1), (1, 2, 1)))
    assert mult(flat) == LaurentPoly.one()


def test_mult_two_weighted_elevators():
    # weights 2 and 3: [2]^2 [3]^2, the multiplicity of the five-floor example
    weights = FloorDiagram(((0, 1, 5, 0), (0, 1, 0, 0)), ((0, 1, 2), (0, 1, 3)))
    expected = LaurentPoly({6: 1, 4: 4, 2: 8, 0: 10, -2: 8, -4: 4, -6: 1})
    assert mult(weights) == expected


def test_codegree_and_degree():
    poly = make_delta_d(3)
    for d in enumerate_floor_diagrams(poly, 0):
        assert codegree(d) in (0, 1)
        assert codegree(d) == 1 - d.degree()
    # codegree-0 classes: weight-2 chain for g=0, parallel pair for g=1
    zero = [d for d in enumerate_floor_diagrams(poly, 0) if codegree(d) == 0]
    assert len(zero) == 1


def test_codegree_zero_characterization():
    for g in range(3):
        for d in enumerate_floor_diagrams(make_delta_d(4), g):
            if codegree(d) != 0:
                continue
            assert d.is_layered()
            a = d.n_floors
            for v, (_, _, s, t) in enumerate(d.floors):
                assert s == 0 or v == 0
                assert t == 0 or v == a - 1


def reachability_oracle(d):
    """reach[i][j]: floor j lies above floor i along oriented elevators."""
    a = d.n_floors
    reach = [[False] * a for _ in range(a)]
    for i, j, _ in d.elevators:
        reach[i][j] = True
    for k in range(a):
        for i in range(a):
            for j in range(a):
                reach[i][j] |= reach[i][k] and reach[k][j]
    return reach


def test_layered_and_consecutive_match_reachability_oracle():
    for poly in (make_delta_d(4), make_delta_abn(3, 1, 1), make_delta_abn(2, 3, 1)):
        for g in range(lattice_stats(poly).interior + 1):
            for d, _, _ in _labelled(poly, g, None):
                reach = reachability_oracle(d)
                a = d.n_floors
                assert d.is_layered() == all(reach[v][v + 1] for v in range(a - 1))
                for v1 in range(a):
                    for v2 in range(a):
                        covers = reach[v1][v2] and not any(
                            reach[v1][w] and reach[w][v2] for w in range(a))
                        assert _consecutive(d, v1, v2) == covers, (d, v1, v2)


def test_codegree_zero_marked_count_binomial():
    import math

    from floordiag.marking import count_markings

    for (a, b, n) in [(3, 0, 1), (4, 0, 1), (2, 2, 1), (3, 2, 1)]:
        poly = make_delta_abn(a, b, n)
        iota = lattice_stats(poly).interior
        for g in range(iota + 1):
            marked = sum(
                count_markings(d)
                for d in enumerate_floor_diagrams(poly, g, max_codeg=0)
            )
            assert marked == math.comb(iota, g), (a, b, n, g)


def test_canonical_form_identifies_relabelings():
    # the star diagram for the cubic, labelled two ways
    d1 = FloorDiagram(((0, 1, 3, 0), (0, 1, 0, 0), (0, 1, 0, 0)),
                      ((0, 1, 1), (0, 2, 1)))
    d2 = FloorDiagram(((0, 1, 3, 0), (0, 1, 0, 0), (0, 1, 0, 0)),
                      ((0, 2, 1), (0, 1, 1)))
    assert canonical_key(d1) == canonical_key(d2)


def automorphism_count(diagram):
    """Order of the floor/elevator automorphism group (monovalent edges unlabelled)."""
    count = len(vertex_automorphisms(diagram))
    for _, group in itertools.groupby(diagram.elevators):
        count *= factorial(len(list(group)))
    return count


def test_automorphism_counts():
    path = FloorDiagram(((0, 1, 4, 0), (0, 1, 0, 0), (0, 1, 0, 0)),
                        ((0, 1, 3), (1, 2, 2)))
    assert automorphism_count(path) == 1
    unequal_pair = FloorDiagram(((0, 2, 4, 0), (0, 2, 0, 0)), ((0, 1, 1), (0, 1, 3)))
    assert automorphism_count(unequal_pair) == 1
    equal_pair = FloorDiagram(((0, 2, 2, 0), (0, 2, 0, 0)), ((0, 1, 1), (0, 1, 1)))
    assert automorphism_count(equal_pair) == 2
    star = FloorDiagram(((0, 1, 3, 0), (0, 1, 0, 0), (0, 1, 0, 0)),
                        ((0, 1, 1), (0, 2, 1)))
    assert len(vertex_automorphisms(star)) == 2


# -- the pruned canonical search against every topological order -------------


def _floor_order_extensions(diagram):
    """All relabellings p (old -> new) compatible with elevator orientation."""
    a = diagram.n_floors
    succ = [set() for _ in range(a)]
    indeg = [0] * a
    for i, j in {(i, j) for i, j, _ in diagram.elevators}:
        succ[i].add(j)
        indeg[j] += 1
    p = [0] * a
    used = [False] * a
    deg = list(indeg)

    def rec(pos):
        if pos == a:
            yield tuple(p)
            return
        for v in range(a):
            if not used[v] and deg[v] == 0:
                used[v] = True
                for w in succ[v]:
                    deg[w] -= 1
                p[v] = pos
                yield from rec(pos + 1)
                for w in succ[v]:
                    deg[w] += 1
                used[v] = False

    yield from rec(0)


def _relabel(diagram, p):
    inv = [0] * len(p)
    for old, new in enumerate(p):
        inv[new] = old
    floors = tuple(diagram.floors[inv[k]] for k in range(len(p)))
    elevs = tuple(sorted((p[i], p[j], w) for i, j, w in diagram.elevators))
    return FloorDiagram(floors, elevs)


def brute_force_canonical_form(diagram):
    """The least relabelling over every topological order of the floors."""
    return min((_relabel(diagram, p) for p in _floor_order_extensions(diagram)),
               key=FloorDiagram.key)


def brute_force_automorphisms(diagram):
    return {p for p in _floor_order_extensions(diagram)
            if _relabel(diagram, p).key() == diagram.key()}


def assert_search_matches_brute_force(diagram):
    least = brute_force_canonical_form(diagram)
    assert canonical_form(diagram) == least, diagram
    assert is_canonical(diagram) == (least == diagram), diagram
    auts = vertex_automorphisms(diagram)
    assert len(set(auts)) == len(auts)
    assert set(auts) == brute_force_automorphisms(diagram), diagram


# floors 0 and 1 are the two ready floors of the least value; placing
# floor 0 first readies floor 2, (0, 1, 1, 0), and placing floor 1 first
# readies the smaller floor 3, (0, 0, 0, 0), so the first choice listed
# leads to the larger floor sequence
TWO_LEAST_READY = FloorDiagram(
    ((0, 1, 2, 0), (0, 1, 2, 0), (0, 1, 1, 0), (0, 0, 0, 0), (0, 1, 0, 1)),
    ((0, 2, 1), (1, 3, 1), (2, 4, 1), (3, 4, 1)))


def test_canonical_search_matches_brute_force_on_quartic():
    assert validate(TWO_LEAST_READY, TWO_LEAST_READY.newton_polygon()) == []
    assert_search_matches_brute_force(TWO_LEAST_READY)
    # representatives, not only classes: enumerate_floor_diagrams and the
    # pinned CLI output depend on which relabelling is chosen
    for g in range(4):
        for d, _, _ in _labelled(make_delta_d(4), g, None):
            assert_search_matches_brute_force(d)
            assert_search_matches_brute_force(canonical_form(d))


@settings(max_examples=30, deadline=None)
@given(small_polygons(), st.integers(0, 2))
def test_canonical_search_matches_brute_force_on_random_polygons(poly, genus):
    for d, _, _ in _labelled(poly, genus, None):
        assert_search_matches_brute_force(d)


def test_min_floor_codegree_bound():
    # constant divergence n with k minimal floors bounds codegree from below
    for (a, b, n) in [(3, 0, 1), (4, 0, 1), (3, 2, 1), (3, 1, 2)]:
        poly = make_delta_abn(a, b, n)
        for g in range(3):
            for d in enumerate_floor_diagrams(poly, g):
                minimal = [
                    v for v in range(d.n_floors)
                    if not any(j == v for _, j, _ in d.elevators)
                ]
                k = len(minimal)
                sources = sum(f[2] for f in d.floors)
                bound = (k - 1) * (sources - n * k // 2)
                assert codegree(d) >= bound


def test_op_A_minus_source_merge():
    # sliding a weight-1 source one floor down drops the codegree by 1
    d = FloorDiagram(((0, 1, 2, 0), (0, 1, 1, 0), (0, 1, 0, 0)),
                     ((0, 1, 1), (1, 2, 1)))
    before = codegree(d)
    after = op_A_minus(d, 0, ("src", 1, 0))
    assert before - codegree(after) == 1
    assert after.newton_polygon() == d.newton_polygon()
    assert after.genus() == d.genus()


def test_op_A_plus_weighted_drop():
    # find a diagram with e1 from v1 to v2 and a weight-2 elevator from v1
    # skipping past v2; the slide drops the codegree by that weight
    hits = 0
    for g in (1, 2):
        for d in enumerate_floor_diagrams(make_delta_abn(3, 0, 3), g):
            for k1, (i1, j1, _) in enumerate(d.elevators):
                for k2, (i2, j2, w2) in enumerate(d.elevators):
                    if k1 == k2 or i2 != i1 or j2 <= j1 or w2 != 2:
                        continue
                    after = op_A_plus(d, k1, ("elev", k2, 0))
                    assert codegree(d) - codegree(after) == 2
                    assert after.genus() == d.genus()
                    assert after.newton_polygon() == d.newton_polygon()
                    hits += 1
    assert hits > 0


def test_op_A_plus_sink_merge():
    # sliding the sink at v1 up along e1 drops the codegree by its weight 1
    d = FloorDiagram(((0, 1, 3, 1), (0, 1, 0, 0)), ((0, 1, 1),))
    after = op_A_plus(d, 0, ("snk", 0, 0))
    assert after.floors[1][3] == 1 and after.elevators == ((0, 1, 2),)
    assert codegree(d) - codegree(after) == 1
    assert after.genus() == d.genus()
    assert after.newton_polygon() == d.newton_polygon()


def test_op_A_minus_elevator_merge():
    # e2 = (0, 2, 2) slides down to end at v1 = 1 along e1 = (1, 2, 1)
    d = FloorDiagram(((0, 1, 3, 0), (0, 1, 2, 0), (0, 3, 0, 0)), ((0, 2, 2), (1, 2, 1)))
    assert validate(d, d.newton_polygon()) == []
    after = op_A_minus(d, 1, ("elev", 0, 0))
    assert after.elevators == ((0, 1, 2), (1, 2, 3))
    assert codegree(d) - codegree(after) == 2
    assert after.genus() == d.genus()
    assert after.newton_polygon() == d.newton_polygon()


def test_op_B_l_drop():
    # general polygon with l labels -2 below 0: swapping drops codegree by 2
    poly = HTransversePolygon((-2, 0), (0, 2), 4, 0)
    diagrams = enumerate_floor_diagrams(poly, 0)
    cand = [
        d for d in diagrams
        if d.floors[0][0] == -2 and d.floors[1][0] == 0
    ]
    assert cand
    d = cand[0]
    after = op_B_l(d, 0, 1)
    assert codegree(d) - codegree(after) == 2
    assert after.newton_polygon() == d.newton_polygon()


def test_op_B_r_drop():
    poly = HTransversePolygon((0, 0), (2, 0), 4, 2)
    diagrams = enumerate_floor_diagrams(poly, 0)
    cand = [
        d for d in diagrams
        if d.floors[0][1] == 2 and d.floors[1][1] == 0
    ]
    assert cand
    after = op_B_r(cand[0], 0, 1)
    assert codegree(cand[0]) - codegree(after) == 2


def test_op_errors_on_missing_configuration():
    chain = FloorDiagram(((0, 1, 3, 0), (0, 1, 0, 0), (0, 1, 0, 0)),
                         ((0, 1, 2), (1, 2, 1)))
    with pytest.raises(ValueError):
        op_A_plus(chain, 0, ("elev", 1, 0))  # e2 adjacent to v2
    with pytest.raises(ValueError):
        op_A_minus(chain, 1, ("elev", 0, 0))  # e2 adjacent to v1
    with pytest.raises(ValueError):
        op_A_plus(chain, 0, ("snk", 0, 0))  # no sink at v1
    with pytest.raises(ValueError):
        op_A_minus(chain, 0, ("src", 1, 0))  # no source at v2
    for op in (op_A_plus, op_A_minus):
        with pytest.raises(ValueError):
            op(chain, 0, ("floor", 0, 0))  # not an elevator, sink or source
    with pytest.raises(ValueError):
        op_A_plus(chain, 0, ("src", 0, 0))  # A+ moves no source
    with pytest.raises(ValueError):
        op_A_minus(chain, 0, ("snk", 1, 0))  # A- moves no sink
    fan = FloorDiagram(((0, 1, 3, 0), (0, 1, 0, 0), (0, 1, 0, 0)),
                       ((0, 1, 1), (0, 2, 1), (1, 2, 1)))
    with pytest.raises(ValueError):
        op_A_plus(fan, 1, ("elev", 0, 0))  # (0, 1) would become (2, 1)
    with pytest.raises(ValueError):
        op_A_minus(fan, 0, ("elev", 1, 0))  # e2 = (0, 2) does not end at v2 = 1
    with pytest.raises(ValueError):
        op_A_minus(fan, 1, ("elev", 2, 0))  # (1, 2) would become (1, 0)
    with pytest.raises(ValueError):
        op_B_l(chain, 0, 1)  # equal l labels
    for op in (op_B_l, op_B_r):
        with pytest.raises(ValueError):
            op(chain, 0, 2)  # floor 1 lies between
        with pytest.raises(ValueError):
            op(chain, 1, 0)  # against the elevators
    with pytest.raises(ValueError):
        op_B_r(chain, 0, 1)  # equal r labels
    falling = FloorDiagram(((0, 1, 3, 0), (0, 2, 0, 0)), ((0, 1, 2),))
    with pytest.raises(ValueError):
        op_B_r(falling, 0, 1)  # r(v1) < r(v2)


def test_json_roundtrip():
    d = enumerate_floor_diagrams(make_delta_d(3), 0)[0]
    assert FloorDiagram.from_json(d.to_json()) == d


def test_determinism():
    poly = make_delta_d(4)
    first = [d.key() for d in enumerate_floor_diagrams(poly, 0)]
    assert first == sorted(first)
    assert first == [d.key() for d in enumerate_floor_diagrams(poly, 0)]


def test_negative_codegree_is_an_engine_fault():
    # Delta_3 has one interior point; two elevators of weight 9 give degree 16
    d = FloorDiagram(((0, 1, 3, 0), (0, 1, 0, 0), (0, 1, 0, 0)), ((0, 1, 9), (1, 2, 9)))
    with pytest.raises(EngineError):
        codegree(d)
