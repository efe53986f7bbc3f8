"""Floor diagrams: data structure, exhaustive enumeration, multiplicity, codegree.

A floor diagram for an h-transverse polygon is a connected weighted acyclic
oriented multigraph.  Floors are stored with labels 0..a-1 chosen so that
every internal elevator goes from a lower to a higher label (any DAG admits
such a labelling).  Sources and sinks all have weight 1 and are stored as
per-floor counts.

Enumeration walks the floors bottom to top for each order of the l and r
labels, placing each floor's sources and sinks and tracking the multiset
of open elevators; it yields every labelled diagram once.  One walk serves
labelled diagrams and diagram shapes (heavy short elevators left free).
The walk spends its edge budget exactly: a floor opens at least the
elevators that the floors above it cannot, so the floor below the top
opens all that are left.  enumerate_floor_diagrams keeps, of each class,
the one labelling that is its own canonical form (is_canonical), so it
builds no canonical forms; codegree_coefficient_sum sums over the
labelled shapes as they come, so the codegree path needs no canonical
forms or automorphisms.  canonical_form serves the codegree-reducing
operations; a layered diagram has one topological order, so it is its
own canonical form.  The key accounting identity, with iota the
interior lattice count and E0 the internal elevator set:

    codeg(D) = iota + a - 1 - sum(F_gap)  +  sum((span(e) - 1) * w(e))

where F_gap is the total weight crossing a gap (forced by the divergence
constraints once sources and sinks are placed).  The first part depends
only on the source/sink placement: with every source on floor 0 and every
sink on the top floor it is _base_codegree, a source on floor m adds m and
a sink on floor m adds a-1-m.  The second part depends only on elevator
spans.  Both grow as the walk goes up, which makes them cheap to bound
during the search.  A search without a codegree limit is bounded by
iota - genus, since deg >= 0.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

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

    def to_json(self) -> Dict:
        return {
            "floors": [
                {"l": l, "r": r, "sources": s, "sinks": t}
                for (l, r, s, t) in self.floors
            ],
            "elevators": [list(e) for e in self.elevators],
        }

    @classmethod
    def from_json(cls, data: Dict) -> "FloorDiagram":
        floors = tuple(
            (f["l"], f["r"], f["sources"], f["sinks"]) for f in data["floors"]
        )
        elevs = tuple(tuple(e) for e in data["elevators"])
        return cls(floors, elevs)


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


def canonical_form(diagram: FloorDiagram) -> FloorDiagram:
    """The least relabelling; identical for isomorphic diagrams.

    The floor sequence leads the key, so only a relabelling that places a
    ready floor of the least value at each position can be least.  The
    search lists every such relabelling and returns the least.
    """
    a = diagram.n_floors
    floors, elevators = diagram.floors, diagram.elevators
    below = _below(diagram)
    p = [0] * a  # old label -> new label
    order: List[int] = []
    found: List[Tuple] = []  # (floors, elevators) of each relabelling

    def rec(pos: int, placed: int) -> None:
        if pos == a:
            found.append((tuple(floors[v] for v in order),
                          tuple(sorted([(p[i], p[j], w) for i, j, w in elevators]))))
            return
        ready = [v for v in range(a) if not placed >> v & 1 and not below[v] & ~placed]
        least = min(floors[v] for v in ready)
        for v in ready:
            if floors[v] == least:
                p[v] = pos
                order.append(v)
                rec(pos + 1, placed | 1 << v)
                order.pop()

    rec(0, 0)
    return FloorDiagram(*min(found))


def canonical_key(diagram: FloorDiagram) -> Tuple:
    return canonical_form(diagram).key()


def is_canonical(diagram: FloorDiagram) -> bool:
    """True when no relabelling has a smaller key: canonical_form(d) == d.

    The search follows the diagram's own floor sequence, placing at each
    position the ready floors equal to the diagram's floor there, and
    stops at the first ready floor that is smaller or the first complete
    relabelling whose elevators sort smaller.
    """
    a = diagram.n_floors
    floors, elevators = diagram.floors, diagram.elevators
    below = _below(diagram)
    p = [0] * a

    def rec(pos: int, placed: int) -> bool:
        if pos == a:
            return tuple(sorted([(p[i], p[j], w) for i, j, w in elevators])) >= elevators
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

    return rec(0, 0)


def vertex_automorphisms(diagram: FloorDiagram) -> List[Tuple[int, ...]]:
    """Floor permutations preserving labels, decorations and weighted elevators.

    An automorphism p (old -> new) keeps every elevator pointing up, so it
    lists the floors in a topological order: the search places at each
    position a ready floor equal to the diagram's own floor there.
    """
    a = diagram.n_floors
    floors, elevators = diagram.floors, diagram.elevators
    below = _below(diagram)
    p = [0] * a
    found: List[Tuple[int, ...]] = []

    def rec(pos: int, placed: int) -> None:
        if pos == a:
            if tuple(sorted([(p[i], p[j], w) for i, j, w in elevators])) == elevators:
                found.append(tuple(p))
            return
        for v in range(a):
            if not placed >> v & 1 and not below[v] & ~placed and floors[v] == floors[pos]:
                p[v] = pos
                rec(pos + 1, placed | 1 << v)

    rec(0, 0)
    return found


# -- enumeration ------------------------------------------------------------


def _distinct_permutations(values: Sequence[int]) -> Iterator[Tuple[int, ...]]:
    """Permutations of a multiset without repeats, in lexicographic order."""
    counts = {}
    for v in values:
        counts[v] = counts.get(v, 0) + 1
    keys = sorted(counts)
    n = len(values)
    out: List[int] = []

    def rec():
        if len(out) == n:
            yield tuple(out)
            return
        for v in keys:
            if counts[v]:
                counts[v] -= 1
                out.append(v)
                yield from rec()
                out.pop()
                counts[v] += 1

    yield from rec()


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


def _splits(items: Tuple[Tuple[int, int], ...]) -> Iterator[Tuple[Tuple, Tuple]]:
    """Every split of a sorted tuple of (origin, weight) pairs into two
    sorted sub-multisets (closed, still_open)."""
    groups = [(k, len(list(g))) for k, g in itertools.groupby(items)]

    def rec(idx):
        if idx == len(groups):
            yield (), ()
            return
        key, mult = groups[idx]
        for closed, still_open in rec(idx + 1):
            for take in range(mult + 1):
                yield (key,) * take + closed, (key,) * (mult - take) + still_open

    yield from rec(0)


def _openings(
    total: int, least: int, cap: int, free_above: Optional[int]
) -> Iterator[Tuple[Tuple[int, ...], int, int]]:
    """Ways to open between `least` and `cap` elevators, free slots
    included, carrying `total` > 0 out of a floor.

    Yields (explicit weights, free slots, assignments).  Weights above
    `free_above` go to free slots, whose ordered weight assignments are
    counted rather than listed; free_above=None keeps every weight explicit.
    """
    if free_above is None:
        explicit_totals: Sequence[int] = (total,)
    else:
        explicit_totals = range(min(total, free_above * cap) + 1)
    for explicit in explicit_totals:
        free = total - explicit
        if free == 0:
            frees = [(0, 1)]
        else:
            # ordered tuples of k weights > free_above summing to free
            frees = [
                (k, comb(free - free_above * k - 1, k - 1))
                for k in range(1, min(cap, free // (free_above + 1)) + 1)
            ]
        for k_free, ways in frees:
            for k in range(max(least - k_free, 1 if explicit else 0),
                           min(cap - k_free, explicit) + 1):
                for weights in compositions(explicit, k, free_above):
                    yield weights, k_free, ways


def _base_codegree(
    polygon: HTransversePolygon, ls: Sequence[int], rs: Sequence[int], iota: int
) -> int:
    """Codegree of the assignment with all sources at the bottom floor and
    all sinks at the top, were every elevator short: the floor under all
    further displacement and span costs."""
    a = polygon.height
    flow_sum = (a - 1) * polygon.d_b - sum(
        (a - 1 - m) * (r - l) for m, (l, r) in enumerate(zip(ls, rs))
    )
    return iota + a - 1 - flow_sum


def _search_bound(
    polygon: HTransversePolygon, genus: int, max_codeg: Optional[int]
) -> Tuple[int, int]:
    """(iota, codegree bound of the search).  Every diagram has
    codeg = iota - genus - deg <= iota - genus, so that bound is exact."""
    iota = lattice_stats(polygon).interior
    bound = iota - genus if max_codeg is None else min(max_codeg, iota - genus)
    return iota, bound


def run_enumeration_task(
    polygon: HTransversePolygon,
    genus: int,
    ls: Tuple[int, ...],
    rs: Tuple[int, ...],
    max_codeg: Optional[int] = None,
    free_above: Optional[int] = None,
) -> List[Tuple[FloorDiagram, int, int]]:
    """Labelled diagrams whose floor j has l label ls[j] and r label rs[j],
    as (diagram, assignments, codegree).

    One walk up the floors places each floor's sources and sinks, closes
    open elevators there and opens new ones.  A source on floor m costs m
    and a sink on floor m costs a-1-m on top of _base_codegree; a source
    not yet placed costs at least the next floor, which bounds the search
    before the placement is complete.  A gap that nothing crosses, and
    closed elevators with more independent cycles than the genus, are cut
    where they appear; the top floor must join every component left.

    The a-1+genus edges are budgeted exactly.  Of the `room` edges still
    to open when floor j is reached, a floor k in j+1..a-2 can open at
    most the weight crossing gap k (every elevator, free slots included,
    carries weight >= 1), and that weight is at most d_b minus the sinks
    on floors 0..j minus divs[0..k].  Floor j opens at least the rest,
    and a branch that cannot is cut; on floor a-2 nothing is left to the
    floors above, so it opens exactly the edges left and the top floor
    needs no edge count.

    With free_above=None every weight is explicit and assignments is 1.
    With free_above=i (and max_codeg=i) the diagrams are shapes: elevators
    heavier than i become free slots of weight i+1, and assignments counts
    the ordered weight assignments of the free slots.  Such an elevator is
    always short (a longer span would already cost more than i), and every
    weight above i gives the same codegree-i term, so every diagram of
    codegree <= i belongs to exactly one shape.
    """
    iota, bound = _search_bound(polygon, genus, max_codeg)
    a = polygon.height
    divs = [r - l for l, r in zip(ls, rs)]
    base = _base_codegree(polygon, ls, rs, iota)
    target_edges = a - 1 + genus
    # most[j][u]: the most elevators floors j+1..a-2 can open when u sinks
    # are left for them.  The weight crossing gap k is at most
    # d_b - (d_t - u) - sums[k+1]: every source below it and no further sink
    sums = list(itertools.accumulate(divs, initial=0))
    most = [[sum(max(0, polygon.d_b - polygon.d_t + u - x) for x in sums[j + 2:a])
             for u in range(polygon.d_t + 1)] for j in range(a)]
    found: List[Tuple[FloorDiagram, int, int]] = []

    srcs, snks = [0] * a, [0] * a  # sources and sinks of the floors below j
    # one copy of each floor list and elevator, shared by the diagrams found
    shared: Dict[Tuple, Tuple] = {}

    def rec(j, src_left, snk_left, placed, in_flow, open_edges, n_free,
            edges, comp, cycles, span_cost, assign):
        # open_edges: sorted (origin, weight) pairs crossing gap j-1; the
        # n_free free slots all close at floor j, and in_flow is the weight
        # of both.  placed: the placement cost of the sources and sinks
        # below floor j.  comp labels the connected component of each floor
        # below j under the closed elevators `edges`, which hold `cycles`
        # independent cycles
        free_edges = [(j - 1, j, free_above + 1)] * n_free if n_free else []
        if j == a - 1:
            # the top floor takes the sources and sinks left, and every open
            # elevator closes there and must join every component; floor a-2
            # opened exactly the edges left, so the edge count is met
            codeg = base + placed + j * src_left + span_cost
            joined = {comp[o] for o, _ in open_edges}
            if n_free:
                joined.add(comp[j - 1])
            if codeg > bound or len(joined) < len(set(comp)):
                return
            srcs[j], snks[j] = src_left, snk_left
            floors = tuple(zip(ls, rs, srcs, snks))
            closing = [(o, j, w) for o, w in open_edges]
            elevators = tuple(shared.setdefault(e, e) for e in edges + closing + free_edges)
            diagram = FloorDiagram(shared.setdefault(floors, floors), elevators)
            found.append((diagram, assign, codeg))
            return
        # room only falls by openings, and cap below keeps it nonnegative
        room = target_edges - len(edges) - n_free - len(open_edges)
        # s sources and t sinks here: the weight crossing gap j is
        # in_flow + s - t - divs[j], which must be >= 1 (a gap nothing crosses
        # disconnects the diagram), and the least codegree, with every source
        # left over placed on floor j+1, must stay within the bound
        slack = bound - base - placed - span_cost - (j + 1) * src_left
        for s in range(max(0, divs[j] + 1 - in_flow, -slack), src_left + 1):
            t_max = min(snk_left, in_flow + s - divs[j] - 1, (slack + s) // (a - 1 - j))
            for t in range(t_max + 1):
                srcs[j], snks[j] = s, t
                here = placed + j * s + (a - 1 - j) * t
                flow = in_flow + s - t - divs[j]
                least = base + here + (j + 1) * (src_left - s)
                # floors j+1..a-2 open at most most[j][sinks left], so floor j
                # opens at least must_open, and at least need if it opens any
                must_open = room - most[j][snk_left - t]
                need = max(must_open, 1)
                for closed, still_open in _splits(open_edges):
                    # an elevator kept open crosses gap j: its weight adds to
                    # the span cost and is not left to open here
                    kept = sum(w for _, w in still_open)
                    out_total = flow - kept
                    if out_total < 0:
                        continue
                    cost = span_cost + kept
                    if least + cost > bound:
                        continue
                    if not out_total and must_open > 0:
                        continue
                    # a subgraph has no more independent cycles than the diagram
                    joined = {comp[o] for o, _ in closed}
                    if n_free:
                        joined.add(comp[j - 1])
                    new_cycles = cycles + len(closed) + n_free - len(joined)
                    if new_cycles > genus:
                        continue
                    # floor j joins the components it closes elevators from
                    label = min(joined, default=j)
                    if len(joined) > 1:
                        new_comp = tuple(label if c in joined else c for c in comp) + (label,)
                    else:
                        new_comp = comp + (label,)
                    new_edges = edges + [(o, j, w) for o, w in closed] + free_edges
                    if out_total == 0:
                        rec(j + 1, src_left - s, snk_left - t, here, flow, still_open,
                            0, new_edges, new_comp, new_cycles, cost, assign)
                        continue
                    # a gap crossed by c elevators forces c-1 units of genus or
                    # span surplus, so c is capped by 1 + genus + the span allowance
                    cap = min(room, 1 + genus + bound - least - len(still_open))
                    if cap < need:
                        continue
                    for weights, k_free, ways in _openings(
                            out_total, must_open, cap, free_above):
                        # origins below j, then nondecreasing weights: sorted
                        opened = still_open + tuple((j, w) for w in weights)
                        rec(j + 1, src_left - s, snk_left - t, here, flow, opened, k_free,
                            new_edges, new_comp, new_cycles, cost, assign * ways)

    rec(0, polygon.d_b, polygon.d_t, 0, 0, (), 0, [], (), 0, 0, 1)
    return found


def _labelled(
    polygon: HTransversePolygon,
    genus: int,
    max_codeg: Optional[int],
    free_above: Optional[int] = None,
) -> Iterator[Tuple[FloorDiagram, int, int]]:
    """(labelled diagram, assignments, codegree) over all l- and r-label
    orders of the floors; each labelled diagram comes once."""
    ensure_valid(polygon)
    if genus < 0:
        raise ValueError("genus must be nonnegative")
    if max_codeg is not None and max_codeg < 0:
        raise ValueError("codegree bound must be nonnegative")
    if genus > lattice_stats(polygon).interior:
        return
    for ls in _distinct_permutations(polygon.d_l):
        for rs in _distinct_permutations(polygon.d_r):
            yield from run_enumeration_task(polygon, genus, ls, rs, max_codeg, free_above)


def enumerate_floor_diagrams(
    polygon: HTransversePolygon,
    genus: int,
    max_codeg: Optional[int] = None,
) -> List[FloorDiagram]:
    """All floor diagrams with the given Newton polygon and genus, one
    canonical representative per isomorphism class, sorted by canonical key.

    With max_codeg set, only classes of codegree <= max_codeg are produced
    (exactly the ones contributing to the top max_codeg+1 coefficients).
    """
    # the walk yields each labelling once, so each class's canonical form once
    classes = [d for d, _, _ in _labelled(polygon, genus, max_codeg) if is_canonical(d)]
    return sorted(classes, key=FloorDiagram.key)


def codegree_coefficient_sum(
    polygon: HTransversePolygon,
    genus: int,
    i: int,
    shape_term,
) -> int:
    """Sum shape_term(labelled_shape, shape_codegree) times the number of
    ordered free-weight assignments, over the labelled shapes of codegree
    <= i of every label order.

    Each isomorphism class of shapes appears once per distinct labelling,
    so the caller's term sums over the labellings of a class to the class
    term; it must also be constant across the free weights of a shape.
    """
    return sum(
        assign * shape_term(d, codeg)
        for d, assign, codeg in _labelled(polygon, genus, i, free_above=i)
    )


# -- codegree-reducing operations ------------------------------------------


EdgeRef = Tuple[str, int, int]  # ("elev", index, 0) | ("src", floor, copy) | ("snk", floor, copy)


def _consecutive(diagram: FloorDiagram, v1: int, v2: int) -> bool:
    """v2 covers v1 in the floor order induced by reachability."""
    # above[v]: bitmask of the floors reachable from v; the elevators are
    # sorted, so those leaving higher floors come first in reverse
    above = [0] * diagram.n_floors
    for i, j, _ in reversed(diagram.elevators):
        above[i] |= 1 << j | above[j]
    if not above[v1] >> v2 & 1:
        return False
    return not any(above[w] >> v2 & 1 for w in range(diagram.n_floors) if above[v1] >> w & 1)


def _rebuild(floors, elevators) -> FloorDiagram:
    d = FloorDiagram(tuple(floors), tuple(elevators))
    poly = d.newton_polygon()
    errs = validate(d, poly)
    if errs:
        raise EngineError("operation produced an invalid diagram: " + "; ".join(errs))
    return canonical_form(d)


def _op_A(diagram: FloorDiagram, e1_index: int, e2: EdgeRef, side: int) -> FloorDiagram:
    """Slide e2 along an elevator e1 from v1 to v2: for A+ (side 0) an
    elevator or sink leaving v1 moves its tail up to v2, for A- (side 1) an
    elevator or source ending at v2 moves its head down to v1."""
    v1, v2, w1 = diagram.elevators[e1_index]
    here, there = (v1, v2) if side == 0 else (v2, v1)
    name, tag, monovalent, at, leaving, other = (
        ("A+", "snk", "sink", "v1", "leaving v1", "v2"),
        ("A-", "src", "source", "v2", "ending at v2", "v1"),
    )[side]
    elevs = list(diagram.elevators)
    floors = [list(f) for f in diagram.floors]
    kind, idx, _ = e2
    if kind == "elev":
        i, j, w2 = elevs[idx]
        ends = [i, j]
        if idx == e1_index or ends[side] != here or ends[1 - side] == there:
            raise ValueError("%s needs a second elevator %s, not adjacent to %s"
                             % (name, leaving, other))
        ends[side] = there
        if ends[0] > ends[1]:
            raise ValueError("%s would reverse an elevator (configuration not of the %s shape)"
                             % (name, name))
        elevs[idx] = (ends[0], ends[1], w2)
    elif kind == tag:
        column = 3 - side  # sinks, or sources
        if floors[idx][column] <= 0 or idx != here:
            raise ValueError("%s needs a %s at %s" % (name, monovalent, at))
        w2 = 1
        floors[here][column] -= 1
        floors[there][column] += 1
    else:
        raise ValueError("%s moves an elevator or %s %s" % (name, monovalent, leaving))
    elevs[e1_index] = (v1, v2, w1 + w2)
    return _rebuild([tuple(f) for f in floors], elevs)


def op_A_plus(diagram: FloorDiagram, e1_index: int, e2: EdgeRef) -> FloorDiagram:
    """Slide an elevator or sink leaving v1 up to v2 along an elevator e1 from v1 to v2."""
    return _op_A(diagram, e1_index, e2, 0)


def op_A_minus(diagram: FloorDiagram, e1_index: int, e2: EdgeRef) -> FloorDiagram:
    """Slide an elevator or source ending at v2 down to v1 along an elevator e1 from v1 to v2."""
    return _op_A(diagram, e1_index, e2, 1)


def _op_B(diagram: FloorDiagram, v1: int, v2: int, side: int) -> FloorDiagram:
    """Swap the l (side 0) or r (side 1) labels of consecutive floors v1 < v2
    and add their difference to the elevator joining them."""
    name = "B^" + "lr"[side]
    if not _consecutive(diagram, v1, v2):
        raise ValueError(name + " needs consecutive floors")
    x1, x2 = diagram.floors[v1][side], diagram.floors[v2][side]
    delta = x2 - x1 if side == 0 else x1 - x2
    if delta <= 0:
        raise ValueError(name + (" needs l(v1) < l(v2)", " needs r(v1) > r(v2)")[side])
    # v2 covers v1 in the reachability order, so an elevator joins them
    link = next(k for k, (i, j, _) in enumerate(diagram.elevators) if (i, j) == (v1, v2))
    floors = [list(f) for f in diagram.floors]
    floors[v1][side], floors[v2][side] = x2, x1
    elevs = list(diagram.elevators)
    i, j, w = elevs[link]
    elevs[link] = (i, j, w + delta)
    return _rebuild([tuple(f) for f in floors], elevs)


def op_B_l(diagram: FloorDiagram, v1: int, v2: int) -> FloorDiagram:
    """Swap the l labels of consecutive floors v1 < v2 with l(v1) < l(v2)."""
    return _op_B(diagram, v1, v2, 0)


def op_B_r(diagram: FloorDiagram, v1: int, v2: int) -> FloorDiagram:
    """Swap the r labels of consecutive floors v1 < v2 with r(v1) > r(v2)."""
    return _op_B(diagram, v1, v2, 1)
