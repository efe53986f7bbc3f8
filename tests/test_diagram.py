import hashlib
import itertools
from math import factorial

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from floordiag.diagram import (
    FloorDiagram,
    _distinct_permutations,
    _gap_choices,
    _label_orders,
    _labelled,
    _openings,
    _placements,
    _splits,
    _transfer_splits,
    _walk_tables,
    automorphism_count,
    canonical_form,
    canonical_key,
    codegree,
    codegree_coefficients,
    compositions,
    enumerate_floor_diagrams,
    linear_extensions,
    mult,
    run_enumeration_task,
    validate,
    vertex_automorphisms,
)
from floordiag.invariant import invariant_codegree_coeff, refined_invariant
from floordiag.laurent import EngineError, LaurentPoly
from floordiag.polygon import (
    HTransversePolygon,
    _row_widths,
    lattice_stats,
    make_delta_abn,
    make_delta_d,
    parse_polygon,
    validate as polygon_errors,
)
from codegree_ops import _consecutive, op_A_minus, op_A_plus, op_B_l, op_B_r
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
    for d, _ in _labelled(poly, genus, max_codeg):
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
    assert list(enumerate_floor_diagrams(make_delta_d(3), 2)) == []


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
    # every labelled diagram once, with its codegree
    for max_codeg in (None, 0, 1):
        walked = list(_labelled(poly, genus, max_codeg))
        keys = [d.key() for d, _ in walked]
        assert len(keys) == len(set(keys)), (poly, genus, max_codeg)
        assert set(keys) == {
            k for k in slow
            if max_codeg is None or codegree(FloorDiagram(*k)) <= max_codeg
        }, (poly, genus, max_codeg)
        assert all(codeg == codegree(d) for d, codeg in walked)


@pytest.mark.parametrize("poly,gmax", [
    (make_delta_d(4), 3),
    (make_delta_abn(3, 1, 1), 2),
    (HTransversePolygon((0, 1), (1, 1), 2, 1), 1),
])
def test_labelled_walk_matches_bruteforce(poly, gmax):
    for g in range(gmax + 1):
        assert_walk_matches_brute_force_labelled(poly, g, brute_force_labelled(poly, g))


# (polygon, genus, max_codeg): (labelled diagrams, SHA-256 of the repr of
# their (key, 1, codegree) list, in walk order; the 1 keeps the hashes
# that were pinned when each row also held a count of weight assignments)
PINNED_WALKS = [
    (("abn:5,0,1", 0, None),
     (125, "37111407f392921ec98c0bec791efc6133eabdc70172f80d10a9d4408667f104")),
    (("abn:5,0,1", 1, None),
     (188, "87f7035127edb5bf0480c48ffce0b4b24e7026fe544fb93d2c3e5c7dc43518b2")),
    (("abn:5,0,1", 2, None),
     (148, "268af9ac426dd32eea9543d097eb11f40fcad6637d64c44b3cd69f259187a7e1")),
    (("ht:dl=[-2,0,1,1];dr=[2,0,0,-1];db=2;dt=1", 0, None),
     (4142, "f26075e7791556dece2ca0951bd9b7f4047fbf42fedab15c5e40cb9cf8ae49fc")),
    (("abn:4,2,1", 1, 1),
     (17, "ab78f9ce9918fd2780671371e669f6615de6fd1d97c258d42cdd37eacf1ef71b")),
]


@pytest.mark.parametrize("walk,pinned", PINNED_WALKS)
def test_walks_are_pinned(walk, pinned):
    # the walks list the same diagrams and codegrees in the same order
    literal, genus, max_codeg = walk
    rows = [(d.key(), 1, codeg) for d, codeg
            in _labelled(parse_polygon(literal), genus, max_codeg)]
    assert (len(rows), hashlib.sha256(repr(rows).encode()).hexdigest()) == pinned


@settings(max_examples=40, deadline=None)
@given(small_polygons(), st.integers(0, 2), st.integers(0, 3), st.data())
def test_placements_are_the_brute_force_placements(poly, genus, max_codeg, data):
    # every (s, t) whose gap above is crossed (flow >= 1) and whose least
    # codegree is within the bound, in order, with its cost and edge floor;
    # the divergences come from the label order, and floors j+1..a-2 open
    # at most the weight crossing their gaps with every source below and
    # the sinks left above
    assume(poly.height > 1)
    a = poly.height
    ls = data.draw(st.permutations(poly.d_l))
    rs = data.draw(st.permutations(poly.d_r))
    bound, base, placements = _walk_tables(poly, genus, max_codeg, ls, rs)
    assert bound == min(max_codeg, lattice_stats(poly).interior - genus)
    j = data.draw(st.integers(0, a - 2))
    src_left = data.draw(st.integers(0, poly.d_b))
    snk_left = data.draw(st.integers(0, poly.d_t))
    spent = base + data.draw(st.integers(0, 4))
    room = data.draw(st.integers(0, a - 1 + genus))
    divs = [r - l for l, r in zip(ls, rs)]
    in_flow = (poly.d_b - src_left) - (poly.d_t - snk_left) - sum(divs[:j])

    def most(u):
        return sum(max(0, poly.d_b - poly.d_t + u - sum(divs[:k + 1]))
                   for k in range(j + 1, a - 1))

    brute = []
    for s in range(src_left + 1):
        for t in range(snk_left + 1):
            here = spent + j * s + (a - 1 - j) * t
            flow = in_flow + s - t - divs[j]
            least = here + (j + 1) * (src_left - s)
            if flow >= 1 and least <= bound:
                brute.append((s, t, here, flow, least, max(room - most(snk_left - t), 0)))
    assert placements(j, src_left, snk_left, spent, room) == brute


@pytest.mark.parametrize("items", [
    (),
    ((0, 1),),
    ((0, 1), (0, 1), (0, 1)),
    ((0, 1), (0, 1), (0, 2), (1, 1), (1, 1)),
    ((0, 2), (1, 1), (1, 3), (1, 3), (2, 1), (2, 1), (2, 1)),
])
def test_splits_are_the_sub_multiset_splits(items):
    # each split once, with its ways: the index subsets of items that close it
    brute = {}
    for mask in range(1 << len(items)):
        closed = tuple(e for k, e in enumerate(items) if mask >> k & 1)
        still_open = tuple(e for k, e in enumerate(items) if not mask >> k & 1)
        split = (closed, still_open, sum(w for _, w in still_open))
        brute[split] = brute.get(split, 0) + 1
    splits = _splits(items)
    assert len(splits) == len(set(splits))
    ways = {split[:3]: split[3] for split in splits}
    assert len(ways) == len(splits) and ways == brute


@pytest.mark.parametrize("free_above", [None, 1, 2])
def test_openings_of_a_zero_total(free_above):
    # the walk asks _openings also when a split closes everything: it must
    # give the empty opening exactly when the floor need open nothing
    for cap in range(4):
        assert list(_openings(0, 0, cap, free_above)) == [((), (), 1, 1, ())]
        for least in range(1, 4):
            assert list(_openings(0, least, cap, free_above)) == []


def test_openings_without_free_slots_are_the_compositions():
    # labellings: the distinct orders of the weights opened
    for total in range(7):
        for least in range(4):
            for cap in range(5):
                want = [(weights, (), 1, len(set(itertools.permutations(weights))),
                         tuple(w for w in weights if w > 1))
                        for k in range(max(least, 1 if total else 0), min(cap, total) + 1)
                        for weights in compositions(total, k)]
                assert list(_openings(total, least, cap, None)) == want


@pytest.mark.parametrize("values", [(), (1,), (0, 0, 0), (-2, 0, 1, 1), (2, 2, 1, 1, 0)])
def test_distinct_permutations_in_lexicographic_order(values):
    assert list(_distinct_permutations(values)) == sorted(set(itertools.permutations(values)))


@pytest.mark.parametrize("poly,genus,i", [
    (make_delta_abn(4, 2, 1), 1, 1),
    (make_delta_abn(4, 2, 1), 1, 2),
    (make_delta_abn(8, 3, 2), 2, 2),
])
def test_heavy_elevators_are_short(poly, genus, i):
    # the premise of the codegree transfer's free slots: in a walk at
    # max_codeg=i, an elevator heavier than i is short wherever it opens,
    # and one closes below the top floor
    heavy = [(s, t) for d, _ in _labelled(poly, genus, i)
             for s, t, w in d.elevators if w > i]
    assert any(t < poly.height - 1 for _, t in heavy)
    assert all(t == s + 1 for s, t in heavy)


def test_walks_share_no_state_across_calls():
    # walks at max_codeg None, 0, 1 and 2 on one label order, interleaved
    # and repeated: a bounded walk lists the diagrams of the full walk
    # within its bound, and each call gives what it gave the first time
    poly = make_delta_abn(3, 2, 3)
    runs = [None, 0, 1, 2]

    def walk(max_codeg):
        found = run_enumeration_task(poly, 1, poly.d_l, poly.d_r, max_codeg)
        assert type(found) is list
        return [(d.key(), codeg) for d, codeg in found]

    first = {r: walk(r) for r in runs}
    assert max(w for (_, elevators), _ in first[None] for _, _, w in elevators) > 3
    for max_codeg in runs[1:]:
        assert first[max_codeg] == [(key, codeg) for key, codeg in first[None]
                                    if codeg <= max_codeg]
    assert {r: walk(r) for r in reversed(runs)} == first
    assert {r: walk(r) for r in runs} == first


def brute_gap_choices(comps, i):
    # {(elements placed, components after): index subsets of the pending
    # elevators placed}; the free slots (weight i + 1) count as placed
    pending = [(c, w) for c, (_, waiting) in enumerate(comps) for w in waiting]
    forced = sum(placed.count(i + 1) for placed, _ in comps)
    counts = {}
    for mask in range(1 << len(pending)):
        now = [[] for _ in comps]
        later = [[] for _ in comps]
        for k, (c, w) in enumerate(pending):
            (now if mask >> k & 1 else later)[c].append(w)
        after = tuple(sorted((tuple(sorted(placed + tuple(now[c]))), tuple(later[c]))
                             for c, (placed, _) in enumerate(comps)))
        key = (forced + bin(mask).count("1"), after)
        counts[key] = counts.get(key, 0) + 1
    return counts


def assert_transfer_choices_match_brute_force(comps, i):
    choices = {}
    for k, ways, after in _gap_choices(comps, i):
        choices[k, after] = choices.get((k, after), 0) + ways
    assert choices == brute_gap_choices(comps, i)
    # every placed elevator but a free slot closes or stays open
    n_placed, n_pending, splits = _transfer_splits(comps, i)
    assert n_placed == sum(len(placed) for placed, _ in comps)
    assert n_pending == sum(len(waiting) for _, waiting in comps)
    explicit = sum(w != i + 1 for placed, _ in comps for w in placed)
    assert sum(ways for _, _, ways, _, _, _, _ in splits) == 2 ** explicit


@pytest.mark.parametrize("comps,i", [
    ((), 1),
    ((((1,), ()),), 1),
    ((((), (1, 1, 1)),), 1),
    ((((1, 1), (1, 2)), ((3,), (2, 2, 2))), 2),
    ((((), (1, 1)), ((2,), (1,)), ((4, 4), (1, 3, 3))), 3),
    ((((1, 2), (2,)), ((1, 2), (2,))), 2),
])
def test_transfer_choices_match_brute_force(comps, i):
    assert_transfer_choices_match_brute_force(comps, i)


@st.composite
def component_tuples(draw):
    # (placed, pending) per component, sorted: placed weights up to the
    # free-slot weight i + 1, pending ones explicit (at most i)
    i = draw(st.integers(0, 3))
    comps = draw(st.lists(st.tuples(
        st.lists(st.integers(1, i + 1), max_size=3).map(lambda ws: tuple(sorted(ws))),
        st.lists(st.integers(1, max(i, 1)), max_size=3 if i else 0).map(
            lambda ws: tuple(sorted(ws)))),
        max_size=3))
    return tuple(sorted(comps)), i


@settings(max_examples=150, deadline=None)
@given(component_tuples())
def test_transfer_choices_match_brute_force_on_random_components(case):
    assert_transfer_choices_match_brute_force(*case)


@pytest.mark.parametrize("abn,genus", [((4, 2, 1), 1), ((8, 3, 2), 2)])
def test_walk_lists_each_split_once(monkeypatch, abn, genus):
    # a codegree-2 walk on the one label order of Delta_{a,b,n}: every
    # split the walk reads comes from the process-wide table, which lists
    # each tuple of open elevators once
    calls = []

    def counted(items):
        calls.append(items)
        return _splits(items)

    monkeypatch.setattr("floordiag.diagram._splits", counted)
    _splits.cache_clear()
    poly = make_delta_abn(*abn)
    assert run_enumeration_task(poly, genus, poly.d_l, poly.d_r, 2)
    info = _splits.cache_info()
    assert info.misses == info.currsize == len(set(calls)) < len(calls)
    assert info.hits + info.misses == len(calls)


@pytest.mark.parametrize("literal,genus", [
    ("abn:8,3,2", 2), ("ht:dl=[-2,0,1,1];dr=[2,0,0,-1];db=2;dt=1", 0)])
def test_transfer_lists_each_placement_once_per_label_order(monkeypatch, literal, genus):
    # the codegree transfer at i=2 reads the placements of each (floor,
    # sources left, sinks left, cost, room) of a label order from one table:
    # _placements runs once per distinct key of each order.  An order whose
    # base codegree exceeds the bound is skipped and reads none
    orders = []  # per label order, the keys _placements was called with
    over = []  # per label order, whether its base exceeds its bound

    def walk_tables(*args):
        orders.append([])
        bound, base, placements = _walk_tables(*args)
        over.append(base > bound)
        return bound, base, placements

    def counted(walk, *key):
        orders[-1].append(key)
        return _placements(walk, *key)

    monkeypatch.setattr("floordiag.diagram._walk_tables", walk_tables)
    monkeypatch.setattr("floordiag.diagram._placements", counted)
    poly = parse_polygon(literal)
    codegree_coefficients(poly, genus, 2)
    assert len(orders) == len(list(_label_orders(poly, genus, 2))) > 0
    assert all(len(keys) == len(set(keys)) for keys in orders)
    assert [not keys for keys in orders] == over
    assert any(len(keys) > 1 for keys in orders)


def assert_truncations_agree(polygon, genus):
    # the transfer at every i up to 2(iota - g) + 1 gives the first i + 1
    # coefficients of the transfer at 2(iota - g) + 1: a state's cuts are
    # taken at the least codegree among its paths, and a path that they
    # let through but its own cuts would stop only reaches coefficients
    # past i
    last = 2 * (lattice_stats(polygon).interior - genus) + 1
    full = codegree_coefficients(polygon, genus, last)
    for i in range(last + 1):
        assert codegree_coefficients(polygon, genus, i) == full[:i + 1], i


@settings(max_examples=25, deadline=None)
@given(small_polygons())
def test_every_truncation_of_the_transfer_agrees(polygon):
    for genus in range(lattice_stats(polygon).interior + 1):
        assert_truncations_agree(polygon, genus)


@pytest.mark.parametrize("genus", range(12))
def test_every_truncation_of_the_transfer_agrees_on_the_mixed_polygon(genus):
    # 144 label orders, some with a base codegree above small bounds
    assert_truncations_agree(parse_polygon("ht:dl=[-2,0,1,1];dr=[2,0,0,-1];db=2;dt=1"), genus)


def test_transfer_merges_the_paths_of_every_codegree(monkeypatch):
    # a state keys no codegree, so the paths that differ only in the
    # codegree spent share one: Delta_{8,3,2} at g=2, i=2 has 1,580
    # floor-phase states, each reading _transfer_splits once (3,934 with
    # the codegree spent in the key)
    calls = []

    def counted(comps, i):
        calls.append(comps)
        return _transfer_splits(comps, i)

    monkeypatch.setattr("floordiag.diagram._transfer_splits", counted)
    codegree_coefficients(make_delta_abn(8, 3, 2), 2, 2)
    assert len(calls) == 1580


@pytest.mark.parametrize("literal,genus", [
    ("abn:8,3,2", 2), ("ht:dl=[-2,0,1,1];dr=[2,0,0,-1];db=2;dt=1", 0)])
def test_listing_walk_lists_each_placement_once_per_label_order(monkeypatch, literal, genus):
    # the listing walk at max_codeg=2 reads the placements of each (floor,
    # sources left, sinks left, cost, room) of a label order from one cache:
    # _placements runs once per distinct key of each order
    orders = []  # per label order, the keys _placements was called with

    def walk_tables(*args):
        orders.append([])
        return _walk_tables(*args)

    def counted(walk, *key):
        orders[-1].append(key)
        return _placements(walk, *key)

    monkeypatch.setattr("floordiag.diagram._walk_tables", walk_tables)
    monkeypatch.setattr("floordiag.diagram._placements", counted)
    poly = parse_polygon(literal)
    for _ in _labelled(poly, genus, 2):
        pass
    assert len(orders) == len(list(_label_orders(poly, genus, 2))) > 0
    assert all(len(keys) == len(set(keys)) for keys in orders)
    assert sum(map(len, orders)) > len(orders)


def test_base_codegree_is_the_chain_codegree():
    # with every source on floor 0, every sink on the top floor and one
    # elevator of the gap flow F_k = d_b - sum_{m<=k} (r_m - l_m) per gap,
    # the chain diagram's codegree is the base of _walk_tables, for every
    # small polygon (the range of small_polygons) and every label order.
    # The base is also sum_k (w_{k+1} - F_k) over the row widths w, and no
    # gap flow exceeds the width of its lattice row, so each term is >= 0
    checked = 0
    for a in range(1, 4):
        slopes = list(itertools.combinations_with_replacement(range(-1, 2), a))
        for d_l, d_r, d_t in itertools.product(slopes, slopes, range(3)):
            poly = HTransversePolygon(d_l, d_r, d_t + sum(d_r) - sum(d_l), d_t)
            if polygon_errors(poly):
                continue
            widths = _row_widths(poly)
            for ls, rs in _label_orders(poly, 0, None):
                flows = [poly.d_b - x for x in
                         itertools.accumulate(r - l for l, r in zip(ls[:-1], rs[:-1]))]
                _, base, _ = _walk_tables(poly, 0, None, ls, rs)
                terms = [w - f for w, f in zip(widths[1:a], flows)]
                assert base == sum(terms) and all(x >= 0 for x in terms)
                if any(f < 1 for f in flows):
                    continue
                floors = tuple((l, r, poly.d_b * (m == 0), poly.d_t * (m == a - 1))
                               for m, (l, r) in enumerate(zip(ls, rs)))
                chain = FloorDiagram(floors, tuple((k, k + 1, f) for k, f in enumerate(flows)))
                assert validate(chain, poly) == []
                assert codegree(chain) == base
                checked += 1
    assert checked > 1000


def test_classes_match_dedupe_by_canonical_form():
    polys = [(make_delta_d(4), 3), (make_delta_abn(3, 1, 1), 2),
             (HTransversePolygon((-2, 0, 1, 1), (2, 0, 0, -1), 2, 1), 1)]
    for poly, gmax in polys:
        for g in range(gmax + 1):
            for max_codeg in (None, 0, 1, 2):
                assert (list(enumerate_floor_diagrams(poly, g, max_codeg))
                        == dedupe_by_canonical_form(poly, g, max_codeg)), (poly, g, max_codeg)


@settings(max_examples=30, deadline=None)
@given(small_polygons(), st.integers(0, 2))
def test_classes_match_dedupe_by_canonical_form_on_random_polygons(poly, genus):
    for max_codeg in (None, 0, 1):
        assert (list(enumerate_floor_diagrams(poly, genus, max_codeg))
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
            for d, _ in _labelled(poly, g, None):
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
                count_markings(d, len(vertex_automorphisms(d)))
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


def graph_automorphism_count(diagram):
    """Order of the floor/elevator automorphism group (monovalent edges unlabelled)."""
    count = len(vertex_automorphisms(diagram))
    for _, group in itertools.groupby(diagram.elevators):
        count *= factorial(len(list(group)))
    return count


def test_automorphism_counts():
    path = FloorDiagram(((0, 1, 4, 0), (0, 1, 0, 0), (0, 1, 0, 0)),
                        ((0, 1, 3), (1, 2, 2)))
    assert graph_automorphism_count(path) == 1
    unequal_pair = FloorDiagram(((0, 2, 4, 0), (0, 2, 0, 0)), ((0, 1, 1), (0, 1, 3)))
    assert graph_automorphism_count(unequal_pair) == 1
    equal_pair = FloorDiagram(((0, 2, 2, 0), (0, 2, 0, 0)), ((0, 1, 1), (0, 1, 1)))
    assert graph_automorphism_count(equal_pair) == 2
    star = FloorDiagram(((0, 1, 3, 0), (0, 1, 0, 0), (0, 1, 0, 0)),
                        ((0, 1, 1), (0, 2, 1)))
    assert len(vertex_automorphisms(star)) == 2


# -- the lister of poset orders against a filter of all permutations -----------


@st.composite
def precedence_masks(draw):
    """Bitmasks preds[0..n-1] with n <= 6: arbitrary ones, mostly cyclic, or
    acyclic ones whose elements are shuffled."""
    n = draw(st.integers(0, 6))
    if draw(st.booleans()):
        return draw(st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n))
    perm = draw(st.permutations(range(n)))
    preds = [0] * n
    for k in range(n):
        below = draw(st.integers(0, (1 << k) - 1))
        preds[perm[k]] = sum(1 << perm[u] for u in range(k) if below >> u & 1)
    return preds


def admissible_orders(preds):
    """The permutations of 0..n-1, in lexicographic order, that place every
    element after the elements of its mask."""
    n = len(preds)
    return [order for order in itertools.permutations(range(n))
            if all(order.index(u) < order.index(k)
                   for k in range(n) for u in range(n) if preds[k] >> u & 1)]


@settings(max_examples=200, deadline=None)
@given(precedence_masks())
def test_linear_extensions_match_filtered_permutations(preds):
    assert list(linear_extensions(preds)) == admissible_orders(preds)


@pytest.mark.parametrize("preds,orders", [
    ([], [()]),
    ([0, 0, 0], list(itertools.permutations(range(3)))),
    ([0, 0b1, 0b10], [(0, 1, 2)]),
    ([0b10, 0b100, 0], [(2, 1, 0)]),
    ([0b10, 0b1], []),
])
def test_linear_extensions_fixed_cases(preds, orders):
    assert list(linear_extensions(preds)) == orders


# -- canonical forms, automorphisms and the pruned automorphism_count ---------


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
    auts = vertex_automorphisms(diagram)
    assert len(set(auts)) == len(auts)
    assert set(auts) == brute_force_automorphisms(diagram), diagram
    assert automorphism_count(diagram) == (len(auts) if least == diagram else 0), diagram


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
        for d, _ in _labelled(make_delta_d(4), g, None):
            assert_search_matches_brute_force(d)
            assert_search_matches_brute_force(canonical_form(d))


@settings(max_examples=30, deadline=None)
@given(small_polygons(), st.integers(0, 2))
def test_canonical_search_matches_brute_force_on_random_polygons(poly, genus):
    for d, _ in _labelled(poly, genus, None):
        assert_search_matches_brute_force(d)


@settings(max_examples=30, deadline=None)
@given(small_polygons())
def test_automorphism_count_matches_brute_force_on_random_polygons(poly):
    # every labelling of every genus up to 2: 0 exactly off the canonical form
    for g in range(3):
        for d, _ in _labelled(poly, g, None):
            if brute_force_canonical_form(d) != d:
                assert automorphism_count(d) == 0, d
            else:
                assert automorphism_count(d) == len(brute_force_automorphisms(d)), d


@pytest.mark.parametrize("poly,gmax", [
    (make_delta_d(4), 3), (HTransversePolygon((-2, 0, 1, 1), (2, 0, 0, -1), 2, 1), 2)])
def test_classes_map_to_their_automorphism_counts(poly, gmax):
    for g in range(gmax + 1):
        classes = enumerate_floor_diagrams(poly, g)
        assert classes == {d: len(vertex_automorphisms(d)) for d in classes}


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
