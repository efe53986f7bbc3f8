"""Markings (linear extensions of the diagram poset), pairings, the
refined S-multiplicity and its sum over the markings of a diagram.

Elements of the poset are the floors and all elevators, including the
weight-1 sources and sinks.  Same-floor sources, same-floor sinks and
parallel elevators of equal weight are interchangeable under diagram
automorphisms, so extensions are enumerated in a reduced form where each
such group appears in a fixed internal order; dividing the reduced count
by the number of floor automorphisms gives the number of marked classes.

reduced_poset lists the elements and their cover predecessors in one
pass; iter_reduced_extensions and descendant_sum walk the downsets of
that poset.  count_reduced_extensions builds its own, smaller masks and
leaves the sources out of its downset DP: they are minimal and each lies
under one floor.  When floor v is placed after m elements of the DP and
after the S sources of the floors placed before it, its s_v sources, in
their fixed order, go into that prefix in C(m + S + s_v, s_v) ways.
It keeps its own masks because a shared builder (sources last, masked
off) measured slower: the label-order count over the 22,756 labellings
of the invariant_classes benchmark calls took 1.62-1.72 s of CPU time
against 1.42-1.56 s (three alternating runs, 2-core shared host).

A marking orders the floors, and relabelling the diagram by that order
gives one of its labellings.  So the marked classes of a diagram are also
counted, without automorphisms, by summing over its distinct labellings
the reduced extensions that keep the floors in label order.  That count
is the same downset DP with the floors chained in label order:
count_reduced_extensions(diagram, in_label_order=True).
"""

from __future__ import annotations

from math import comb
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple

from .diagram import FloorDiagram, vertex_automorphisms
from .laurent import EngineError, LaurentPoly, divide_exact, quantum_integer

Element = Tuple  # ("floor", v) | ("elev", i, j, w, copy) | ("src", v, copy) | ("snk", v, copy)
Marking = Tuple[Element, ...]
Pairing = FrozenSet[Tuple[int, int]]


def reduced_poset(diagram: FloorDiagram) -> Tuple[List[Element], List[int]]:
    """Elements of the reduced poset and, per element, the bitmask of the
    elements directly below it (a floor lists every one of its sources).

    The elements are the floors, the elevators, then per floor its sources
    and its sinks.  Copies of a group are adjacent, and each copy after the
    first lies above the one before it.
    """
    elems: List[Element] = [("floor", v) for v in range(diagram.n_floors)]
    preds = [0] * len(elems)

    def add(e: Element, below: int) -> int:
        if e[-1]:
            below |= 1 << len(elems) - 1
        elems.append(e)
        preds.append(below)
        return 1 << len(elems) - 1

    previous, c = None, 0
    for e in diagram.elevators:
        c = c + 1 if e == previous else 0
        preds[e[1]] |= add(("elev",) + e + (c,), 1 << e[0])
        previous = e
    for v, (_, _, s, t) in enumerate(diagram.floors):
        for c in range(s):
            preds[v] |= add(("src", v, c), 0)
        for c in range(t):
            add(("snk", v, c), 1 << v)
    return elems, preds


def iter_reduced_extensions(diagram: FloorDiagram) -> Iterator[Marking]:
    """Linear extensions with interchangeable copies in canonical order."""
    elems, preds = reduced_poset(diagram)
    n = len(elems)
    full = (1 << n) - 1
    seq: List[Element] = []

    def rec(placed: int):
        if placed == full:
            yield tuple(seq)
            return
        for k in range(n):
            bit = 1 << k
            if not placed & bit and (preds[k] & ~placed) == 0:
                seq.append(elems[k])
                yield from rec(placed | bit)
                seq.pop()

    yield from rec(0)


def count_reduced_extensions(diagram: FloorDiagram, in_label_order: bool = False) -> int:
    """Number of reduced linear extensions, by a DP over the downsets of
    the floors, elevators and sinks; see the module docstring.  With
    in_label_order, only those that place the floors in label order."""
    a = diagram.n_floors
    sources = [f[2] for f in diagram.floors]
    # elements 0..a-1 are the floors, then the elevators, then the sinks;
    # copies of one elevator, and the sinks of one floor, keep a fixed order;
    # in label order, floor v - 1 lies below floor v
    preds = [1 << v - 1 if in_label_order and v else 0 for v in range(a)]
    previous = None
    for k, e in enumerate(diagram.elevators, a):
        preds.append(1 << e[0] | (1 << k - 1 if e == previous else 0))
        preds[e[1]] |= 1 << k
        previous = e
    for v, (_, _, _, t) in enumerate(diagram.floors):
        for c in range(t):
            preds.append(1 << (len(preds) - 1 if c else v))
    n = len(preds)
    memo: Dict[int, int] = {(1 << n) - 1: 1}

    def count(placed: int, m: int, before: int) -> int:
        # placed: a downset of m elements; before: the sources of its floors
        got = memo.get(placed)
        if got is not None:
            return got
        total = 0
        for k in range(n):
            bit = 1 << k
            if not placed & bit and not preds[k] & ~placed:
                if k < a:
                    s = sources[k]
                    total += comb(m + before + s, s) * count(placed | bit, m + 1, before + s)
                else:
                    total += count(placed | bit, m + 1, before)
        memo[placed] = total
        return total

    return count(0, 0, 0)


def _induced_element_map(perm: Sequence[int]):
    """Reduced-extension map induced by a floor automorphism.  It sends each
    group of interchangeable copies onto a group of the same size, and a
    reduced extension lists every group in copy order, so the copy indices
    carry over."""

    def image(e: Element) -> Element:
        if e[0] == "elev":
            return ("elev", perm[e[1]], perm[e[2]], e[3], e[4])
        return (e[0], perm[e[1]]) + e[2:]

    def apply(seq: Marking) -> Marking:
        return tuple(image(e) for e in seq)

    return apply


def enumerate_markings(diagram: FloorDiagram) -> List[Marking]:
    """One marking per isomorphism class of marked diagrams.

    The floor-automorphism action on reduced extensions is checked to be
    free (orbit sizes all equal the group order) instead of assumed.
    """
    auts = vertex_automorphisms(diagram)
    maps = [_induced_element_map(p) for p in auts]
    seen = set()
    reps: List[Marking] = []
    for seq in iter_reduced_extensions(diagram):
        if seq in seen:
            continue
        orbit = {m(seq) for m in maps}
        if len(orbit) != len(auts):
            raise EngineError("automorphism action on markings is not free")
        seen.update(orbit)
        reps.append(min(orbit))
    return reps


def count_markings(diagram: FloorDiagram) -> int:
    """Number of marked classes: reduced extensions / floor automorphisms."""
    total = count_reduced_extensions(diagram)
    auts = len(vertex_automorphisms(diagram))
    if total % auts:
        raise EngineError("automorphism action on markings is not free")
    return total // auts


# -- pairings ----------------------------------------------------------------


def canonical_pairing(s: int) -> Pairing:
    """S_s = {{1,2}, {3,4}, ..., {2s-1,2s}}."""
    return frozenset((2 * k + 1, 2 * k + 2) for k in range(s))


def make_pairing(pairs: Sequence[Tuple[int, int]], n: Optional[int] = None) -> Pairing:
    norm = []
    used = set()
    for i, j in pairs:
        i, j = min(i, j), max(i, j)
        if j != i + 1:
            raise ValueError("pairing pairs must be consecutive {i, i+1}")
        if i in used or j in used:
            raise ValueError("pairing pairs must be disjoint")
        if i < 1 or (n is not None and j > n):
            raise ValueError("pair %r out of range" % ((i, j),))
        used.update((i, j))
        norm.append((i, j))
    return frozenset(norm)


def all_pairings(n: int, s: int) -> Iterator[Pairing]:
    """Every pairing of order s of {1..n} (disjoint consecutive pairs)."""

    def rec(start, left):
        if left == 0:
            yield ()
            return
        for i in range(start, n - 2 * left + 2):
            for tail in rec(i + 2, left - 1):
                yield ((i, i + 1),) + tail

    for combo in rec(1, s):
        yield frozenset(combo)


def parse_pairing(text: str) -> Pairing:
    """Parse a pairing literal like 'pairs:1-2,3-4'."""
    text = text.strip()
    if not text.startswith("pairs:"):
        raise ValueError("pairing literal must start with 'pairs:'")
    body = text[len("pairs:"):]
    if not body:
        return frozenset()
    pairs = []
    for item in body.split(","):
        i, _, j = item.partition("-")
        try:
            pairs.append((int(i), int(j)))
        except ValueError:
            raise ValueError("pairing literal %r has a pair %r that is not i-j"
                             % (text, item)) from None
    return make_pairing(pairs)


# -- compatibility and refined S-multiplicity --------------------------------


def _tail_floor(e: Element) -> Optional[int]:
    """Floor the elevator emanates from (None for a source)."""
    if e[0] == "elev":
        return e[1]
    if e[0] == "snk":
        return e[1]
    return None


def _head_floor(e: Element) -> Optional[int]:
    """Floor the elevator ends at (None for a sink)."""
    if e[0] == "elev":
        return e[2]
    if e[0] == "src":
        return e[1]
    return None


def _weight(e: Element) -> int:
    return e[3] if e[0] == "elev" else 1


def _adjacent(e: Element, v: int) -> bool:
    return _tail_floor(e) == v or _head_floor(e) == v


def _pair_kind(x: Element, y: Element) -> Optional[str]:
    """'floor' / 'double' for the two compatible configurations, None otherwise."""
    floors = [e for e in (x, y) if e[0] == "floor"]
    elevs = [e for e in (x, y) if e[0] != "floor"]
    if len(floors) == 1:
        return "floor" if _adjacent(elevs[0], floors[0][1]) else None
    if len(floors) == 2:
        return None
    t0, t1 = _tail_floor(elevs[0]), _tail_floor(elevs[1])
    if t0 is not None and t0 == t1:
        return "double"
    h0, h1 = _head_floor(elevs[0]), _head_floor(elevs[1])
    if h0 is not None and h0 == h1:
        return "double"
    return None


def is_compatible(diagram: FloorDiagram, marking: Marking, pairing: Pairing) -> bool:
    for i, j in pairing:
        if _pair_kind(marking[i - 1], marking[j - 1]) is None:
            return False
    return True


_TWO = quantum_integer(2)


def mu_S(diagram: FloorDiagram, marking: Marking, pairing: Pairing) -> LaurentPoly:
    """Refined S-multiplicity of the marked diagram; zero when incompatible.

    Elevators paired with an adjacent floor contribute [w](q^2), paired
    elevators with a common floor contribute [w][w'][w+w']/[2], all others
    contribute [w]^2.
    """
    paired: Dict[Element, str] = {}
    double_pairs: List[Tuple[Element, Element]] = []
    for i, j in pairing:
        x, y = marking[i - 1], marking[j - 1]
        kind = _pair_kind(x, y)
        if kind is None:
            return LaurentPoly.zero()
        if kind == "floor":
            e = x if x[0] != "floor" else y
            paired[e] = "single"
        else:
            paired[x] = paired[y] = "double"
            double_pairs.append((x, y))
    out = LaurentPoly.one()
    for e in marking:
        if e[0] == "floor" or e in paired:
            continue
        w = _weight(e)
        if w > 1:
            q = quantum_integer(w)
            out = out * q * q
    for e in paired:
        if paired[e] == "single":
            w = _weight(e)
            if w > 1:
                out = out * quantum_integer(w).substitute_q_squared()
    for x, y in double_pairs:
        w, wp = _weight(x), _weight(y)
        num = quantum_integer(w) * quantum_integer(wp) * quantum_integer(w + wp)
        out = out * divide_exact(num, _TWO)
    return out


_UNIT = ("unit",)


def _factor_terms(key: Tuple) -> Tuple[Tuple[int, int], ...]:
    """Terms of the mu_S factor named by key: ("square", w) is [w]^2,
    ("floor", w) is [w](q^2) and ("double", w, w') is [w][w'][w+w']/[2]."""
    kind, w = key[0], key[1]
    if kind == "square":
        return (quantum_integer(w) * quantum_integer(w)).key()
    if kind == "floor":
        return quantum_integer(w).substitute_q_squared().key()
    wp = key[2]
    num = quantum_integer(w) * quantum_integer(wp) * quantum_integer(w + wp)
    return divide_exact(num, _TWO).key()


def _single_key(e: Element) -> Tuple:
    w = _weight(e)
    return ("square", w) if w > 1 else _UNIT


def _pair_key(x: Element, y: Element) -> Optional[Tuple]:
    """Factor key of x, y at the two positions of a pair; None when incompatible."""
    kind = _pair_kind(x, y)
    if kind == "floor":
        w = _weight(x if x[0] != "floor" else y)
        return ("floor", w) if w > 1 else _UNIT
    if kind == "double":
        w, wp = sorted((_weight(x), _weight(y)))
        return ("double", w, wp) if wp > 1 else _UNIT
    return None


def descendant_sum(diagram: FloorDiagram, pairing: Pairing) -> LaurentPoly:
    """Sum of mu_S over the marked classes of the diagram, without listing them.

    mu_S is a product of one factor per unpaired position and one per pair
    {i, i+1} in S, so the sum over reduced extensions is a DP over the
    downsets of the reduced poset: the next position is the number of
    placed elements plus one, and a pair's first position places both of
    its elements at once.  Floor automorphisms act freely on reduced
    extensions and preserve mu_S, so dividing by their number gives the sum
    over marked classes; that division is checked to be exact.
    """
    elems, preds = reduced_poset(diagram)
    n = len(elems)
    full = (1 << n) - 1
    firsts = {i for i, _ in pairing}
    singles = [_single_key(e) for e in elems]
    pair_keys: Dict[Tuple[int, int], Optional[Tuple]] = {}
    terms: Dict[Tuple, Tuple[Tuple[int, int], ...]] = {}
    memo: Dict[int, Dict[int, int]] = {full: {0: 1}}

    def add_into(acc: Dict[int, int], p: Dict[int, int]) -> None:
        for e2, v in p.items():
            acc[e2] = acc.get(e2, 0) + v

    def total(placed: int, pos: int) -> Dict[int, int]:
        got = memo.get(placed)
        if got is not None:
            return got
        # sub-sums grouped by factor, so each distinct factor multiplies once
        groups: Dict[Tuple, Dict[int, int]] = {}
        for x in range(n):
            bit = 1 << x
            if placed & bit or preds[x] & ~placed:
                continue
            if pos not in firsts:
                add_into(groups.setdefault(singles[x], {}), total(placed | bit, pos + 1))
                continue
            after_x = placed | bit
            for y in range(n):
                ybit = 1 << y
                if after_x & ybit or preds[y] & ~after_x:
                    continue
                if (x, y) not in pair_keys:
                    pair_keys[(x, y)] = _pair_key(elems[x], elems[y])
                key = pair_keys[(x, y)]
                if key is not None:
                    add_into(groups.setdefault(key, {}), total(after_x | ybit, pos + 2))
        out = groups.pop(_UNIT, {})
        for key, sub in groups.items():
            if key not in terms:
                terms[key] = _factor_terms(key)
            for e2, v in terms[key]:
                for f2, w in sub.items():
                    out[e2 + f2] = out.get(e2 + f2, 0) + v * w
        memo[placed] = out
        return out

    auts = len(vertex_automorphisms(diagram))
    result = {}
    for e2, v in total(0, 1).items():
        if v % auts:
            raise EngineError("automorphism action on markings is not free")
        result[e2] = v // auts
    return LaurentPoly(result)
