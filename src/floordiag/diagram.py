"""Floor diagrams: data structure, exhaustive enumeration, multiplicity, codegree.

A floor diagram for an h-transverse polygon is a connected weighted acyclic
oriented multigraph.  Floors are stored with labels 0..a-1 chosen so that
every internal elevator goes from a lower to a higher label (any DAG admits
such a labelling).  Sources and sinks all have weight 1 and are stored as
per-floor counts.

Enumeration walks the floors bottom to top for each order of the l and r
labels, placing each floor's sources and sinks and tracking the multiset
of open elevators; it yields every labelled diagram once.  The moves of
a floor and their cuts are stated once, in _placements, which the walk
and codegree_coefficients both read.  enumerate_floor_diagrams
keeps, of each class, the one labelling that is its own canonical form,
and maps it to its number of floor automorphisms: one search along the
labelling's own floor sequence (automorphism_count) rejects the other
labellings and counts the automorphisms of that one, so it builds no
canonical forms and no automorphism groups.  canonical_form (the least
relabelling) and vertex_automorphisms (those that give back the diagram)
read every topological floor order that linear_extensions lists; a
layered diagram has one, so it is its own canonical form.

codegree_coefficients lists no diagram at all.  It keeps, per label
order, one level of walk states keyed by shape alone, each carrying,
indexed by codegree, the sum over its paths of the factors of a
labelled shape, every factor local to one floor or one gap; a state's
cuts are taken at the least codegree among its paths.
codegree_coefficient_sum, the sum over the labelled diagrams that the
walk lists, serves the tests as its oracle.

The key accounting identity, with iota the interior lattice count and
F_k = d_b - sum_{m<=k} (r_m - l_m) the weight crossing gap k in the chain
diagram (every source on floor 0, every sink on the top floor):

    codeg(D) = iota + a - 1 - sum(F_k)  +  sum(m over sources on floor m)
               + sum(a-1-m over sinks on floor m)  +  sum((span(e) - 1) * w(e))

The first term, the chain codegree, is the base of _walk_tables; every
further term is a nonnegative placement or span cost, so a walk that
starts at the base and adds them as it goes up bounds the codegree
cheaply.  A search without a codegree limit is bounded by iota - genus,
since deg >= 0.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache, lru_cache, partial
from math import comb, factorial
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from .laurent import EngineError, LaurentPoly, prod, quantum_integer
from .polygon import HTransversePolygon, ensure_valid, lattice_stats

Floor = Tuple[int, int, int, int]  # (l, r, sources, sinks)
Elevator = Tuple[int, int, int]  # (from, to, weight), from < to


@dataclass(frozen=True)
class FloorDiagram:
    floors: Tuple[Floor, ...]
    elevators: Tuple[Elevator, ...]  # sorted, with repetitions for parallel edges

    def __post_init__(self):
        object.__setattr__(self, "elevators", tuple(sorted(self.elevators)))

    @property
    def n_floors(self) -> int:
        return len(self.floors)

    def genus(self) -> int:
        return len(self.elevators) - len(self.floors) + 1

    def degree(self) -> int:
        return sum(w - 1 for _, _, w in self.elevators)

    def n_marks(self) -> int:
        monovalent = sum(f[2] + f[3] for f in self.floors)
        return len(self.floors) + len(self.elevators) + monovalent

    def newton_polygon(self) -> HTransversePolygon:
        d_l = tuple(sorted(f[0] for f in self.floors))
        d_r = tuple(sorted(f[1] for f in self.floors))
        d_b = sum(f[2] for f in self.floors)
        d_t = sum(f[3] for f in self.floors)
        return HTransversePolygon(d_l, d_r, d_b, d_t)

    def key(self) -> Tuple:
        return (self.floors, self.elevators)

    def is_layered(self) -> bool:
        """True when the floors are totally ordered by oriented reachability.
        Labels increase along elevators, so floor v + 1 is reachable from
        floor v only through an elevator (v, v + 1)."""
        links = {(i, j) for i, j, _ in self.elevators}
        return all((v, v + 1) in links for v in range(self.n_floors - 1))


def mult(diagram: FloorDiagram) -> LaurentPoly:
    """Refined multiplicity: the product of [w]^2 over all elevators."""
    return prod(
        quantum_integer(w) * quantum_integer(w)
        for _, _, w in diagram.elevators
        if w > 1
    )


def codegree(diagram: FloorDiagram) -> int:
    """iota - genus - degree, always nonnegative for a valid diagram."""
    stats = lattice_stats(diagram.newton_polygon())
    c = stats.interior - diagram.genus() - diagram.degree()
    if c < 0:
        raise EngineError("negative codegree: invalid floor diagram")
    return c


def validate(diagram: FloorDiagram, polygon: HTransversePolygon) -> List[str]:
    """Check every floor-diagram invariant against the polygon."""
    errs = []
    a = polygon.height
    if diagram.n_floors != a:
        errs.append("floor count differs from Card(d_l)")
        return errs
    if tuple(sorted(f[0] for f in diagram.floors)) != polygon.d_l:
        errs.append("l labels are not a bijection onto d_l")
    if tuple(sorted(f[1] for f in diagram.floors)) != polygon.d_r:
        errs.append("r labels are not a bijection onto d_r")
    if sum(f[2] for f in diagram.floors) != polygon.d_b:
        errs.append("source count differs from d_b")
    if sum(f[3] for f in diagram.floors) != polygon.d_t:
        errs.append("sink count differs from d_t")
    for i, j, w in diagram.elevators:
        if not (0 <= i < j < a):
            errs.append("elevator %r is not oriented along increasing labels" % ((i, j, w),))
        if w < 1:
            errs.append("elevator %r has nonpositive weight" % ((i, j, w),))
    for v, (l, r, s, t) in enumerate(diagram.floors):
        inflow = s + sum(w for i, j, w in diagram.elevators if j == v)
        outflow = t + sum(w for i, j, w in diagram.elevators if i == v)
        if inflow - outflow != r - l:
            errs.append("divergence fails at floor %d" % v)
    if not _connected(diagram):
        errs.append("diagram is not connected")
    if diagram.genus() < 0:
        errs.append("negative genus")
    return errs


def _connected(diagram: FloorDiagram) -> bool:
    a = diagram.n_floors
    if a == 1:
        return True
    parent = list(range(a))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j, _ in diagram.elevators:
        parent[find(i)] = find(j)
    return len({find(v) for v in range(a)}) == 1


# -- canonical forms and automorphisms ------------------------------------


def _below(diagram: FloorDiagram) -> List[int]:
    """Per floor, the bitmask of the floors its incoming elevators leave."""
    below = [0] * diagram.n_floors
    for i, j, _ in diagram.elevators:
        below[j] |= 1 << i
    return below


def linear_extensions(preds: Sequence[int]) -> Iterator[Tuple[int, ...]]:
    """Every order of the elements 0..n-1 that places each element k after
    every element of its bitmask preds[k], in lexicographic order of the
    indices; a cyclic preds has none."""
    n = len(preds)
    order: List[int] = []

    def rec(placed: int) -> Iterator[Tuple[int, ...]]:
        if len(order) == n:
            yield tuple(order)
            return
        for k in range(n):
            if not placed >> k & 1 and not preds[k] & ~placed:
                order.append(k)
                yield from rec(placed | 1 << k)
                order.pop()

    return rec(0)


def _relabellings(diagram: FloorDiagram) -> Iterator[Tuple[Tuple[int, ...], Tuple]]:
    """(p, key) per topological floor order: p maps each old label to its
    position in the order, and key is the diagram relabelled by p."""
    floors, elevators = diagram.floors, diagram.elevators
    for order in linear_extensions(_below(diagram)):
        p = [0] * len(order)
        for new, old in enumerate(order):
            p[old] = new
        yield tuple(p), (tuple(floors[v] for v in order),
                         tuple(sorted([(p[i], p[j], w) for i, j, w in elevators])))


def canonical_form(diagram: FloorDiagram) -> FloorDiagram:
    """The least relabelling over every topological floor order; identical
    for isomorphic diagrams."""
    return FloorDiagram(*min(key for _, key in _relabellings(diagram)))


def canonical_key(diagram: FloorDiagram) -> Tuple:
    return canonical_form(diagram).key()


def automorphism_count(diagram: FloorDiagram) -> int:
    """The number of floor automorphisms when the diagram is its own
    canonical form (canonical_form(d) == d), else 0.

    The floor sequence leads the key, so only a relabelling that places a
    ready floor of the least value at each position can be least.  The
    search follows the diagram's own floor sequence, placing at each
    position the ready floors equal to the diagram's floor there.  It
    returns 0 at the first ready floor that is smaller or the first
    complete relabelling whose elevators sort smaller; otherwise it has
    listed every relabelling that keeps the floor sequence, and those
    whose elevators sort equal are the automorphisms.
    """
    a = diagram.n_floors
    floors, elevators = diagram.floors, diagram.elevators
    below = _below(diagram)
    p = [0] * a
    count = 0

    def rec(pos: int, placed: int) -> bool:
        # False when a relabelling with a smaller key exists
        nonlocal count
        if pos == a:
            image = tuple(sorted([(p[i], p[j], w) for i, j, w in elevators]))
            if image < elevators:
                return False
            count += image == elevators
            return True
        own = floors[pos]
        same = []  # the ready floors equal to the diagram's floor at pos
        for v in range(a):
            if not placed >> v & 1 and not below[v] & ~placed:
                if floors[v] < own:
                    return False
                if floors[v] == own:
                    same.append(v)
        for v in same:
            p[v] = pos
            if not rec(pos + 1, placed | 1 << v):
                return False
        return True

    return count if rec(0, 0) else 0


def vertex_automorphisms(diagram: FloorDiagram) -> List[Tuple[int, ...]]:
    """Floor permutations preserving labels, decorations and weighted
    elevators: the relabellings that give back the diagram, each as p
    (old -> new), in lexicographic order of the floor orders."""
    key = diagram.key()
    return [p for p, image in _relabellings(diagram) if image == key]


# -- enumeration ------------------------------------------------------------


def _distinct_permutations(values: Sequence[int]) -> Iterator[Tuple[int, ...]]:
    """Permutations of a multiset without repeats, in lexicographic order."""
    if not values:
        yield ()
    for v in sorted(set(values)):
        rest = list(values)
        rest.remove(v)
        for tail in _distinct_permutations(rest):
            yield (v,) + tail


def compositions(
    total: int, parts: int, hi: Optional[int] = None
) -> Iterator[Tuple[int, ...]]:
    """Nondecreasing tuples of `parts` positive integers, none above `hi`,
    summing to `total`."""
    if hi is None:
        hi = total
    if parts == 0:
        if total == 0:
            yield ()
        return

    def rec(rest, k, lo):
        if rest > k * hi:
            return
        if k == 1:
            if rest >= lo:
                yield (rest,)
            return
        for first in range(lo, rest // k + 1):
            for tail in rec(rest - first, k - 1, first):
                yield (first,) + tail

    yield from rec(total, parts, 1)


def bounded_vectors(costs: Sequence[int], budget: int) -> Iterator[Tuple[int, ...]]:
    """Nonnegative integer vectors x with sum(costs[v] * x[v]) <= budget and
    x[v] = 0 wherever costs[v] is 0, in lexicographic order."""

    def rec(v, left):
        if v == len(costs):
            yield ()
            return
        cost = costs[v]
        for x in range(left // cost + 1 if cost else 1):
            for tail in rec(v + 1, left - cost * x):
                yield (x,) + tail

    yield from rec(0, budget)


@lru_cache(maxsize=None)
def _splits(items: Tuple[Tuple[int, int], ...]) -> Tuple[Tuple[Tuple, Tuple, int, int], ...]:
    """Every split of a sorted tuple of (key, weight) pairs into sorted
    sub-multisets (closed, still_open), with the weight kept open and the
    ways to pick closed, prod C(copies, taken): the one sub-multiset
    enumeration of the process, read by both walks and the gap choices."""
    groups = [(k, len(list(g))) for k, g in itertools.groupby(items)]

    def rec(idx):
        if idx == len(groups):
            yield (), (), 1
            return
        key, mult = groups[idx]
        for closed, still_open, ways in rec(idx + 1):
            for take in range(mult + 1):
                yield ((key,) * take + closed, (key,) * (mult - take) + still_open,
                       ways * comb(mult, take))

    return tuple((closed, still_open, sum(w for _, w in still_open), ways)
                 for closed, still_open, ways in rec(0))


@lru_cache(maxsize=None)
def _openings(
    total: int, least: int, cap: int, free_above: Optional[int]
) -> Tuple[Tuple[Tuple[int, ...], Tuple[int, ...], int, int, Tuple[int, ...]], ...]:
    """Ways to open between `least` and `cap` elevators, free slots
    included, carrying `total` >= 0 out of a floor, in one table for the
    process that both walks read.

    Gives (explicit weights, free slots, assignments, labellings, heavy)
    per opening.  Weights above `free_above` go to free slots of weight
    free_above+1, whose ordered weight assignments are counted rather than
    listed; free_above=None keeps every weight explicit.  labellings is
    n! / prod c_w! for the n weights opened, c_w of them equal to w, and
    heavy lists the weights above 1.  A total of 0 has only the empty
    opening, when least is 0.
    """
    hi = total if free_above is None else free_above
    found = []
    for explicit in range(min(total, hi * cap) + 1):
        free = total - explicit
        if free == 0:
            frees = [(0, 1)]
        else:
            # ordered tuples of k weights > hi summing to free
            frees = [
                (k, comb(free - hi * k - 1, k - 1))
                for k in range(1, min(cap, free // (hi + 1)) + 1)
            ]
        for k_free, ways in frees:
            slots = (hi + 1,) * k_free
            for k in range(max(least - k_free, 1 if explicit else 0),
                           min(cap - k_free, explicit) + 1):
                for weights in compositions(explicit, k, hi):
                    labels, opened = 1, 0
                    for _, group in itertools.groupby(weights + slots):
                        c = len(list(group))
                        opened += c
                        labels *= comb(opened, c)
                    found.append((weights, slots, ways, labels,
                                  tuple(w for w in weights + slots if w > 1)))
    return tuple(found)


def _walk_tables(
    polygon: HTransversePolygon, genus: int, max_codeg: Optional[int],
    ls: Sequence[int], rs: Sequence[int],
) -> Tuple[int, int, Callable]:
    """(bound, base, placements) for the label order (ls, rs): the one
    setup of both walks.  bound is the codegree bound of the search:
    every diagram has codeg = iota - genus - deg <= iota - genus, so that
    bound is exact, and max_codeg may lower it.  base is the chain
    codegree iota + a - 1 - sum(F_k), where both walks start.  placements
    is the functools.cache of _placements on the one row of gap flows
    G_k = F_k - d_t, the weight crossing gap k with every source and sink
    below it, and most[j][u] = sum_{k>j} max(0, G_k + u): floors j+1..a-2
    open at most that many elevators when u sinks are left for them, since
    gap k carries at most G_k + u and every elevator, free slots included,
    carries weight >= 1."""
    a, d_b, d_t = polygon.height, polygon.d_b, polygon.d_t
    iota = lattice_stats(polygon).interior
    bound = iota - genus if max_codeg is None else min(max_codeg, iota - genus)
    flows = tuple(d_b - d_t + x for x in itertools.accumulate(
        l - r for l, r in zip(ls[:-1], rs)))
    base = iota + a - 1 - sum(g + d_t for g in flows)
    most = tuple(tuple(sum(max(0, g + u) for g in flows[j + 1:]) for u in range(d_t + 1))
                 for j in range(a - 1))
    return bound, base, cache(partial(_placements, bound, flows, most))


def _placements(
    bound: int, flows: Tuple[int, ...], most: Tuple[Tuple[int, ...], ...],
    j: int, src_left: int, snk_left: int, spent: int, room: int,
) -> List[Tuple[int, int, int, int, int, int]]:
    """The placements of floor j < a-1 that the cuts keep, as (s, t, here,
    flow, least, must_open): s sources and t sinks on floor j, here the
    codegree spent with theirs added, flow the weight leaving floor j, least
    the least codegree of a completion, and must_open the fewest
    elevators floor j may open.  bound, the gap flows G_k and most come
    from _walk_tables; spent is the codegree so far (the base, then the
    placement and span costs below floor j), and room the edges still to
    open.  Each walk reads these through the functools.cache that
    _walk_tables hands it, and cuts its splits of the open elevators
    alike: a split that keeps weight `kept` open in c elevators needs flow
    >= kept and least + kept <= bound, and floor j opens flow - kept in at
    most min(room, 1 + genus + bound - least - c) elevators.

    The cuts, stated here once for both walks:
      - the weight leaving floor j is G_j less the sources still to
        place above it plus the sinks still to place above it, and it
        must be >= 1: a gap nothing crosses disconnects the diagram;
      - a source on floor m costs m and a sink on floor m costs a-1-m on
        top of the base codegree, and an elevator kept open across a gap
        adds its weight; the least codegree, with every source left over
        placed on floor j+1, must stay within the bound;
      - the a-1+genus edges are budgeted exactly: floors j+1..a-2 open at
        most most[j][sinks left], so floor j opens at least the rest, and
        floor a-2 opens exactly the edges left;
      - a gap crossed by c elevators forces c-1 units of genus or span
        surplus, so c is capped by 1 + genus + the span allowance.
    """
    top = len(flows)  # the top floor, a-1
    leaving = flows[j] - src_left + snk_left  # with no source or sink on floor j
    slack = bound - spent - (j + 1) * src_left
    found = []
    for s in range(max(0, 1 - leaving, -slack), src_left + 1):
        t_max = min(snk_left, leaving + s - 1, (slack + s) // (top - j))
        for t in range(t_max + 1):
            here = spent + j * s + (top - j) * t
            found.append((s, t, here, leaving + s - t, here + (j + 1) * (src_left - s),
                          max(room - most[j][snk_left - t], 0)))
    return found


def run_enumeration_task(
    polygon: HTransversePolygon,
    genus: int,
    ls: Tuple[int, ...],
    rs: Tuple[int, ...],
    max_codeg: Optional[int] = None,
) -> List[Tuple[FloorDiagram, int]]:
    """Labelled diagrams whose floor j has l label ls[j] and r label rs[j],
    as (diagram, codegree).

    One walk up the floors places each floor's sources and sinks
    (_placements, with its cuts), closes open elevators there and opens
    new ones; closed elevators with more independent cycles than the
    genus are cut where they appear, and the top floor must join every
    component left.  Caches local to the call list, once each, the
    placements of every (floor, sources left, sinks left, cost, room) and
    the openings of every (floor, total, least, cap) as (floor, weight)
    pairs, from the process-wide _openings.  The splits come from the
    process-wide _splits, whose ways the walk leaves unread: equal open
    elevators are one multiset in a diagram.  _openings alone decides how
    many elevators a floor opens, none included, and a split it gives no
    opening is cut.
    """
    bound, base, placements = _walk_tables(polygon, genus, max_codeg, ls, rs)
    a = polygon.height
    target_edges = a - 1 + genus
    found: List[Tuple[FloorDiagram, int]] = []

    srcs, snks = [0] * a, [0] * a  # sources and sinks of the floors below j
    # one copy of each floor list and elevator, shared by the diagrams found
    shared: Dict[Tuple, Tuple] = {}

    @cache
    def openings_of(j, total, least, cap):
        # the openings as the (floor, weight) pairs opened (faster than a
        # floor-free key)
        return [tuple((j, w) for w in weights)
                for weights, _, _, _, _ in _openings(total, least, cap, None)]

    def rec(j, src_left, snk_left, spent, open_edges, edges, comp, cycles):
        # open_edges: sorted (origin, weight) pairs crossing gap j-1; spent:
        # the base codegree plus the placement cost of the sources and sinks
        # below floor j and the span cost.  comp labels the connected
        # component of each floor below j under the closed `edges`, which
        # hold `cycles` independent cycles
        if j == a - 1:
            # the top floor takes the sources and sinks left, and every open
            # elevator closes there and must join every component; floor a-2
            # opened exactly the edges left, so the edge count is met
            codeg = spent + j * src_left
            joined = {comp[o] for o, _ in open_edges}
            if codeg > bound or len(joined) < len(set(comp)):
                return
            srcs[j], snks[j] = src_left, snk_left
            floors = tuple(zip(ls, rs, srcs, snks))
            elevators = tuple(shared.setdefault(e, e)
                              for e in edges + [(o, j, w) for o, w in open_edges])
            diagram = FloorDiagram(shared.setdefault(floors, floors), elevators)
            found.append((diagram, codeg))
            return
        # room only falls by openings, and cap below keeps it nonnegative
        room = target_edges - len(edges) - len(open_edges)
        splits = _splits(open_edges)
        for s, t, here, flow, least, must_open in placements(
                j, src_left, snk_left, spent, room):
            srcs[j], snks[j] = s, t
            for closed, still_open, kept, _ in splits:
                out_total = flow - kept
                if out_total < 0 or least + kept > bound:
                    continue
                cap = min(room, 1 + genus + bound - least - len(still_open))
                openings = openings_of(j, out_total, must_open, cap)
                if not openings:
                    continue
                # a subgraph has no more independent cycles than the diagram
                joined = {comp[o] for o, _ in closed}
                new_cycles = cycles + len(closed) - len(joined)
                if new_cycles > genus:
                    continue
                # floor j joins the components it closes elevators from
                label = min(joined, default=j)
                if len(joined) > 1:
                    new_comp = tuple(label if c in joined else c for c in comp) + (label,)
                else:
                    new_comp = comp + (label,)
                new_edges = edges + [(o, j, w) for o, w in closed]
                for opened in openings:
                    # origins below j, then nondecreasing weights: sorted
                    rec(j + 1, src_left - s, snk_left - t, here + kept, still_open + opened,
                        new_edges, new_comp, new_cycles)

    rec(0, polygon.d_b, polygon.d_t, base, (), [], (), 0)
    return found


def _label_orders(
    polygon: HTransversePolygon, genus: int, max_codeg: Optional[int]
) -> List[Tuple[Tuple[int, ...], Tuple[int, ...]]]:
    """Every pair (ls, rs) of l- and r-label orders of the floors, after
    checking the arguments; none when the genus exceeds the interior
    lattice count."""
    ensure_valid(polygon)
    if genus < 0:
        raise ValueError("genus must be nonnegative")
    if max_codeg is not None and max_codeg < 0:
        raise ValueError("codegree bound must be nonnegative")
    if genus > lattice_stats(polygon).interior:
        return []
    return [(ls, rs) for ls in _distinct_permutations(polygon.d_l)
            for rs in _distinct_permutations(polygon.d_r)]


def _labelled(
    polygon: HTransversePolygon,
    genus: int,
    max_codeg: Optional[int],
) -> Iterator[Tuple[FloorDiagram, int]]:
    """(labelled diagram, codegree) over all l- and r-label orders of the
    floors; each labelled diagram comes once."""
    for ls, rs in _label_orders(polygon, genus, max_codeg):
        yield from run_enumeration_task(polygon, genus, ls, rs, max_codeg)


def enumerate_floor_diagrams(
    polygon: HTransversePolygon,
    genus: int,
    max_codeg: Optional[int] = None,
) -> Dict[FloorDiagram, int]:
    """All floor diagrams with the given Newton polygon and genus, one
    canonical representative per isomorphism class, mapped to its number
    of floor automorphisms, in canonical-key order.

    With max_codeg set, only classes of codegree <= max_codeg are produced
    (exactly the ones contributing to the top max_codeg+1 coefficients).
    """
    # the walk yields each labelling once, so each class's canonical form once
    classes = []
    for d, _ in _labelled(polygon, genus, max_codeg):
        auts = automorphism_count(d)
        if auts:
            classes.append((d, auts))
    classes.sort(key=lambda c: c[0].key())
    return dict(classes)


def codegree_coefficient_sum(
    polygon: HTransversePolygon,
    genus: int,
    i: int,
    term,
) -> int:
    """Sum term(labelled diagram, codegree) over the labelled diagrams of
    codegree <= i of every label order.  The codegree path lists no
    diagram (codegree_coefficients); this sum is the tests' oracle for it.

    Each isomorphism class appears once per distinct labelling, so the
    caller's term sums over the labellings of a class to the class term.
    """
    return sum(term(d, codeg) for d, codeg in _labelled(polygon, genus, i))


# -- codegree coefficients by a transfer over walk states --------------------


def _square_codegrees(w: int, n: int) -> List[int]:
    """The codegree 0..n-1 coefficients of [w]^2: 1, 2, ..., w, ..., 2, 1,
    then zeros.  Every weight above n-1 gives 1, 2, ..., n, so a free slot
    counts as weight n."""
    return [max(0, min(c + 1, 2 * w - 1 - c)) for c in range(n)]


def _times(p: Sequence[int], f: Sequence[int], n: int) -> List[int]:
    """The first n coefficients of the product of p and f (each at least n
    long)."""
    out = [0] * n
    for x in range(n):
        v = p[x]
        if v:
            for y in range(n - x):
                out[x + y] += v * f[y]
    return out


def _exact_quotient(num: int, den: int) -> int:
    q, r = divmod(num, den)
    if r:
        raise EngineError("codegree transfer: %d is not a multiple of %d" % (num, den))
    return q


@lru_cache(maxsize=None)
def _transfer_splits(comps: Tuple, i: int) -> Tuple[int, int, Tuple[Tuple, ...]]:
    """(placed elevators, pending ones, splits) of a components tuple; per
    _splits entry of the placed ones: (weight and number kept open, pending
    included; ways; cycles added; untouched components; placed and pending
    elevators left to floor j's component).  Free slots (i+1) all close."""
    slot = i + 1
    items = tuple((c, w) for c, (placed, _) in enumerate(comps)
                  for w in placed if w != slot)
    free = tuple((c, w) for c, (placed, _) in enumerate(comps)
                 for w in placed if w == slot)
    held = [w for _, pending in comps for w in pending]
    found = []
    for closed, still_open, kept, ways in _splits(items):
        closed += free
        joined = {c for c, _ in closed}
        left: List[List[int]] = [[] for _ in comps]
        for c, w in still_open:
            left[c].append(w)
        others = tuple((tuple(left[c]), comps[c][1])
                       for c in range(len(comps)) if c not in joined)
        placed = tuple(sorted(w for c in joined for w in left[c]))
        pending = tuple(sorted(w for c in joined for w in comps[c][1]))
        found.append((kept + sum(held), len(still_open) + len(held), ways,
                      len(closed) - len(joined), others, placed, pending))
    return len(items) + len(free), len(held), tuple(found)


@lru_cache(maxsize=None)
def _gap_choices(comps: Tuple, i: int) -> Tuple[Tuple[int, int, Tuple], ...]:
    """(elements placed, ways, components after) for every choice of the
    pending elevators of a components tuple to place in a gap: the _splits
    of the pending (component, weight) items, the closed part placed.  The
    free slots, of weight i+1, of the floor below are placed already."""
    items = tuple((c, w) for c, (_, pending) in enumerate(comps) for w in pending)
    forced = sum(placed.count(i + 1) for placed, _ in comps)
    found = []
    for now, later, _, ways in _splits(items):
        after = ((tuple(sorted(placed + tuple(w for d, w in now if d == c))),
                  tuple(w for d, w in later if d == c)) for c, (placed, _) in enumerate(comps))
        found.append((forced + len(now), ways, tuple(sorted(after))))
    return tuple(found)


def codegree_coefficients(polygon: HTransversePolygon, genus: int, i: int) -> List[int]:
    """[coef_0, ..., coef_i] of G_Delta(g), by one forward transfer per
    label order over walk states, with no labelled diagram listed.  Past
    2(iota - g), the bottom exponent, every coefficient is 0, so the
    transfer runs at most to 2(iota - g) + 1.

    Over the labelled diagrams L of codegree <= k, coef_k G_Delta(g) sums
    ext(L) * coef_{k - codeg(L)} prod [w]^2, where ext(L) counts the
    reduced linear extensions that keep the floors in label order.  The
    tests' oracle, marking.count_in_label_order, counts them by the class
    path's downset DP with the floors chained, not by these gap factors.
    The transfer groups the diagrams into labelled shapes: every weight
    above i gives the same codegree-i term, so an elevator heavier than i
    is a free slot of weight i+1, and a shape counts the ordered weight
    assignments of its free slots.  A free slot is always short: kept
    open, its weight i+1 would exceed the codegree bound.  Every factor of
    a shape is local to one floor or one gap, so the walk goes up level by
    level, with the placements and cuts of _placements, and merges the
    nodes whose futures agree.  A state after gap j-1 is

      (sources left, sinks left, cycles, components, pending sinks)

    where each component of the floors below j that still has open
    elevators is a pair of sorted weight tuples: the open elevators
    already placed in a gap (only those may close) and those still
    pending.  Free slots are placed elevators of weight i+1, which close
    on the next floor.  A component with nothing open cannot be joined
    any more, so its state is dropped.  The edges closed, the elevators
    opened so far, the weight crossing the gap and the elements placed
    below floor j all follow from the state.  Each state carries, as a
    list of ints indexed by codegree, the sum over its paths of the
    weight below: entry c sums the terms of codegree c, a path's
    codegree so far (spent: the order's base plus the placement and
    span costs) plus the codegree of its term of prod [w]^2.  The list
    stops where the least cost of the sources left would take it past
    i.  So the paths that differ only in spent share a state.  Every
    [w]^2 has constant term 1, so the first nonzero entry is the least
    spent among them, and the state's placements and cuts are taken
    there: the loosest of its paths' cuts.  A path that they let through
    but its own spent would cut ends past coefficient i (every diagram
    the transfer completes has codegree <= iota - g), where it is
    truncated.  A placement of cost here - spent, with weight kept open,
    shifts the series by here - spent + kept and keeps only the entries
    that can still reach coefficient i; the top floor shifts it by the
    cost of its sources.  A label order whose base exceeds the bound has
    no placement left, and is skipped.

    The count treats equal copies as distinct and divides once at the
    end, so every step is an integer.  Floor j:
      - its s sources go into the prefix below it (j floors, the elements
        placed in gaps below j, the sources below): C(prefix + s, s);
      - its t sinks take labels among the sinks so far: C(d_t - u + t, t),
        u the sinks left before it;
      - closing c' of the p placed copies of a weight in a component takes
        C(p, c') ways;
      - opening c equal elevators (free slots counted as equal) after e
        opened before takes C(e + c, c) ways, the product over a floor's
        openings being C(e + n, n) n! / prod c!; each opened weight
        multiplies the sum by the codegree coefficients of [w]^2
        (1, 2, ..., i+1 for a free slot), and the free slots by their
        ordered weight assignments.
    Gap j then places any x of the q pending copies of a weight in a
    component, and of the pending sinks, in C(q, x) ways, and its k
    elements (the free slots of floor j among them) in k! orders; the top
    floor places every sink left in gap a-1.  The total is divided once by
    (a-1+g)! d_t!, the labellings of the elevators and the sinks, and the
    division is checked to be exact.  Coefficient k sums entry k of the
    top level's shifted series.  The openings, splits and gap choices
    depend on their key and i alone (_openings, which the listing walk
    reads too, and _transfer_splits and _gap_choices, both regroupings
    of _splits), so every call of the process shares them.  The
    factorials, [w]^2 and the truncated product of [w]^2 over each
    opening's heavy weights (heavy_product) stay per call, and the cache
    of placements per label order.
    """
    n_coeffs = i + 1
    total = [0] * n_coeffs
    orders = _label_orders(polygon, genus, i)
    if not orders:
        return total
    last = 2 * (lattice_stats(polygon).interior - genus) + 1
    if i > last:
        return codegree_coefficients(polygon, genus, last) + [0] * (i - last)
    a, d_b, d_t = polygon.height, polygon.d_b, polygon.d_t
    target_edges = a - 1 + genus
    fact = [factorial(k) for k in range(target_edges + d_t + 1)]
    squares = [_square_codegrees(w, n_coeffs) for w in range(i + 2)]

    @cache
    def heavy_product(heavy):
        # the truncated product of [w]^2 over an opening's heavy weights
        factor = squares[heavy[0]]
        for w in heavy[1:]:
            factor = _times(factor, squares[w], n_coeffs)
        return factor

    for ls, rs in orders:
        bound, base, placements = _walk_tables(polygon, genus, i, ls, rs)
        if base > bound:
            continue  # no placement of this order is within the bound
        series = [0] * n_coeffs
        series[base] = 1
        level: Dict[Tuple, List[int]] = {(d_b, d_t, 0, (), 0): series}
        for j in range(a - 1):
            # floor j: sources, sinks, closings and openings
            after_floor: Dict[Tuple, List[int]] = {}
            for (src_left, snk_left, cycles, comps, pend), series in level.items():
                # the least codegree spent among the state's paths, whose
                # cuts are the loosest
                spent = 0
                while not series[spent]:
                    spent += 1
                closed_edges = cycles + j - len(comps)
                n_placed, n_pending, table = _transfer_splits(comps, i)
                opened_before = closed_edges + n_placed + n_pending
                room = target_edges - opened_before
                prefix = j + closed_edges + n_placed + d_t - snk_left - pend + d_b - src_left
                for s, t, here, flow, least, must_open in placements(
                        j, src_left, snk_left, spent, room):
                    placing = comb(prefix + s, s) * comb(d_t - snk_left + t, t)
                    for kept, n_kept, ways, new_cycles, others, placed, pending in table:
                        out_total = flow - kept
                        if out_total < 0 or least + kept > bound:
                            continue
                        new_cycles += cycles
                        if new_cycles > genus:
                            continue
                        cap = min(room, 1 + genus + bound - least - n_kept)
                        # the placement and span costs move the series up by
                        # shift, and only its entries below n can still reach
                        # coefficient i
                        shift = here - spent + kept
                        n = n_coeffs - (least - spent) - kept
                        head = (src_left - s, snk_left - t, new_cycles)
                        ways *= placing
                        for weights, free, assign, labels, heavy in _openings(
                                out_total, must_open, cap, i):
                            # floor j joins the components it closes from; with
                            # nothing open above it, it is cut off from the top
                            mine = (placed + free, tuple(sorted(pending + weights)))
                            if mine == ((), ()):
                                continue
                            opened = len(weights) + len(free)
                            scale = ways * assign * labels * comb(opened_before + opened, opened)
                            part = series
                            if n > spent + 1 and heavy:  # each [w]^2 has constant term 1
                                part = _times(series, heavy_product(heavy), n)
                            key = head + (tuple(sorted(others + (mine,))), pend + t)
                            got = after_floor.get(key)
                            if got is None:
                                after_floor[key] = [0] * (spent + shift) + [
                                    scale * v for v in part[spent:n]]
                            else:
                                for k in range(spent, n):
                                    got[k + shift] += scale * part[k]
            # gap j: place pending elevators and sinks
            level = {}
            for (src_left, snk_left, cycles, comps, pend), series in after_floor.items():
                n = len(series)
                for k, ways, new_comps in _gap_choices(comps, i):
                    for x in range(pend + 1):
                        scale = ways * comb(pend, x) * fact[k + x]
                        key = (src_left, snk_left, cycles, new_comps, pend - x)
                        got = level.get(key)
                        if got is None:
                            level[key] = [scale * v for v in series]
                        else:
                            for e in range(n):
                                got[e] += scale * series[e]
        # the top floor takes the sources and sinks left and closes every
        # open elevator, each placed already; gap a-1 takes every sink left
        j = a - 1
        for (src_left, snk_left, cycles, comps, pend), series in level.items():
            if any(pending for _, pending in comps):
                continue
            closed_edges = cycles + j - len(comps)
            n_placed = sum(len(placed) for placed, _ in comps)
            prefix = j + closed_edges + n_placed + d_t - snk_left - pend + d_b - src_left
            scale = (comb(prefix + src_left, src_left) * comb(d_t, snk_left)
                     * fact[pend + snk_left])
            shift = j * src_left
            for c, v in enumerate(series):
                total[c + shift] += scale * v
    labellings = fact[target_edges] * fact[d_t]
    return [_exact_quotient(v, labellings) for v in total]
