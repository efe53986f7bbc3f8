"""Markings (linear extensions of the diagram poset), pairings, the
refined S-multiplicity and its sum over the markings of a diagram.

Elements of the poset are the floors and all elevators, including the
weight-1 sources and sinks.  Same-floor sources, same-floor sinks and
parallel elevators of equal weight are interchangeable under diagram
automorphisms, so extensions are enumerated in a reduced form where each
such group appears in a fixed internal order; dividing the reduced count
by the number of floor automorphisms gives the number of marked classes.
count_markings and descendant_sum take that number from the caller
(enumerate_floor_diagrams maps each class to it); enumerate_markings
lists the automorphisms itself, to check that they act freely.

reduced_poset lists the elements and their cover predecessors in one
pass; iter_reduced_extensions maps the orders of that poset that
diagram.linear_extensions lists to its elements, and descendant_sum
walks its downsets.  The extension counts build their own, smaller
masks (_extension_masks) and leave the sources out of the downset DP
(_count_downsets): they are minimal and each lies under one floor.  When
floor v is placed after m elements of the DP and after the S sources of
the floors placed before it, its s_v sources, in their fixed order, go
into that prefix in C(m + S + s_v, s_v) ways.
That DP is a forward pass, one downset size at a time: each downset
carries its count of extensions, its ready elements and the sources of
its floors.

Both DPs carry each downset's ready elements forward.  Each element
lists the elements directly above it (_successors), so a new downset
finds its ready elements from the one element just placed instead of
testing every element, and the DPs step over ready elements only.

mu_S is the product of the factors that _single_key names for each
unpaired position and _pair_key for each pair of S (None when the pair
is incompatible); _factor_terms expands a key, once per process.
is_compatible, mu_S and descendant_sum all read that one rule.

descendant_sum can stop at a doubled exponent, exactly: each element of
weight w contributes doubled top exponent 2(w - 1) with coefficient 1,
whatever the pairing, so the terms of the sum at or above an exponent
come only from the terms of each downset's sub-sum at or above that
exponent minus the tops placed, and the DP keeps no others.

A marking orders the floors, and relabelling the diagram by that order
gives one of its labellings.  So the marked classes of a diagram are also
counted, without automorphisms, by summing over its distinct labellings
the reduced extensions that keep the floors in label order:
count_in_label_order(diagram), the same downset DP with each floor set
above the one before it.  Summed over the labelled diagrams, it is the
tests' oracle for the codegree transfer (diagram.codegree_coefficients),
which carries its own factors up the floor walk and lists no diagram.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple

from .diagram import FloorDiagram, linear_extensions, vertex_automorphisms
from .laurent import EngineError, LaurentPoly, divide_exact, prod, quantum_integer

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
    for order in linear_extensions(preds):
        yield tuple(elems[k] for k in order)


def _successors(preds: Sequence[int]) -> List[List[Tuple[int, int]]]:
    """Per element, (bit, cover predecessors) of each element directly above
    it: placing element k makes ready each of its successors whose cover
    predecessors are then all placed."""
    succs: List[List[Tuple[int, int]]] = [[] for _ in preds]
    for u, below in enumerate(preds):
        left = below
        while left:
            bit = left & -left
            left ^= bit
            succs[bit.bit_length() - 1].append((1 << u, below))
    return succs


def _extension_masks(diagram: FloorDiagram) -> Tuple[List[int], List[int]]:
    """Per element of the floors, elevators and sinks, the bitmask of its
    cover predecessors and its number of sources.  Elements 0..a-1 are the
    floors, then the elevators, then the sinks; copies of one elevator, and
    the sinks of one floor, keep a fixed order.  The sources are left out:
    they are minimal and each lies under one floor."""
    a = diagram.n_floors
    preds = [0] * a
    previous = None
    for k, e in enumerate(diagram.elevators, a):
        preds.append(1 << e[0] | (1 << k - 1 if e == previous else 0))
        preds[e[1]] |= 1 << k
        previous = e
    for v, (_, _, _, t) in enumerate(diagram.floors):
        for c in range(t):
            preds.append(1 << (len(preds) - 1 if c else v))
    sources = [f[2] for f in diagram.floors] + [0] * (len(preds) - a)
    return preds, sources


def _count_downsets(preds: Sequence[int], sources: Sequence[int]) -> int:
    """Linear extensions of the poset of preds, with sources[k] sources in a
    fixed order under element k, by a forward pass over the downsets; see
    the module docstring."""
    n = len(preds)
    succs = _successors(preds)
    # the downsets of m elements: placed -> [extensions of placed, its ready
    # elements, the sources of its floors]
    level = {0: [1, sum(1 << k for k in range(n) if not preds[k]), 0]}
    for m in range(n):
        after_level: Dict[int, List[int]] = {}
        for placed, (ways, ready, before) in level.items():
            left = ready
            while left:
                bit = left & -left
                left ^= bit
                k = bit.bit_length() - 1
                s = sources[k]
                more = ways * comb(m + before + s, s) if s else ways
                after = placed | bit
                entry = after_level.get(after)
                if entry is not None:
                    entry[0] += more
                    continue
                after_ready = ready ^ bit
                for ubit, below in succs[k]:
                    if not below & ~after:
                        after_ready |= ubit
                after_level[after] = [more, after_ready, before + s]
        level = after_level
    return level[(1 << n) - 1][0]


def count_reduced_extensions(diagram: FloorDiagram) -> int:
    """Number of reduced linear extensions, by a forward pass over the
    downsets of the floors, elevators and sinks; see the module docstring."""
    return _count_downsets(*_extension_masks(diagram))


def count_in_label_order(diagram: FloorDiagram) -> int:
    """Reduced linear extensions that place the floors in label order: the
    same downset DP with each floor above the one before it."""
    preds, sources = _extension_masks(diagram)
    for v in range(1, diagram.n_floors):
        preds[v] |= 1 << (v - 1)
    return _count_downsets(preds, sources)


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


def count_markings(diagram: FloorDiagram, automorphisms: int) -> int:
    """Number of marked classes: reduced extensions / floor automorphisms.

    automorphisms is the number of floor automorphisms of the diagram
    (enumerate_floor_diagrams maps each class to it); the division is
    checked to be exact.
    """
    total = count_reduced_extensions(diagram)
    if total % automorphisms:
        raise EngineError("automorphism action on markings is not free")
    return total // automorphisms


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
    if s < 0:
        raise ValueError("pairing order must be nonnegative")

    def rec(start, left):
        if left == 0:
            yield ()
            return
        for i in range(start, n - 2 * left + 2):
            for tail in rec(i + 2, left - 1):
                yield ((i, i + 1),) + tail

    return (frozenset(combo) for combo in rec(1, s))


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


_TWO = quantum_integer(2)
_UNIT = ("unit",)


@lru_cache(maxsize=None)
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
    """Factor key of e at an unpaired position: [w]^2."""
    w = _weight(e)
    return ("square", w) if w > 1 else _UNIT


def _pair_key(x: Element, y: Element) -> Optional[Tuple]:
    """Factor key of x, y at the two positions of a pair; None when
    incompatible.  The two compatible configurations are an elevator
    paired with a floor it is adjacent to, [w](q^2), and two elevators
    with a common floor, [w][w'][w+w']/[2]."""
    if x[0] == "floor":
        x, y = y, x  # a floor, if any, is y
    if y[0] == "floor":
        if x[0] == "floor" or y[1] not in (_tail_floor(x), _head_floor(x)):
            return None
        w = _weight(x)
        return ("floor", w) if w > 1 else _UNIT
    t0, t1 = _tail_floor(x), _tail_floor(y)
    h0, h1 = _head_floor(x), _head_floor(y)
    if (t0 is None or t0 != t1) and (h0 is None or h0 != h1):
        return None
    w, wp = sorted((_weight(x), _weight(y)))
    return ("double", w, wp) if wp > 1 else _UNIT


def is_compatible(marking: Marking, pairing: Pairing) -> bool:
    return all(_pair_key(marking[i - 1], marking[j - 1]) is not None for i, j in pairing)


def mu_S(marking: Marking, pairing: Pairing) -> LaurentPoly:
    """Refined S-multiplicity of the marked diagram; zero when incompatible.

    The product of one factor per pair of S (_pair_key) and one per
    unpaired position (_single_key, [w]^2).
    """
    keys = [_pair_key(marking[i - 1], marking[j - 1]) for i, j in pairing]
    if None in keys:
        return LaurentPoly.zero()
    paired = {k for pair in pairing for k in pair}
    keys += [_single_key(e) for k, e in enumerate(marking, 1) if k not in paired]
    return prod(LaurentPoly(dict(_factor_terms(key))) for key in keys if key != _UNIT)


def descendant_sum(
    diagram: FloorDiagram, pairing: Pairing, automorphisms: int,
    lowest: Optional[int] = None,
) -> LaurentPoly:
    """Sum of mu_S over the marked classes of the diagram, without listing
    them; with lowest set, only its terms of doubled exponent >= lowest.

    mu_S is a product of one factor per unpaired position and one per pair
    {i, i+1} in S, so the sum over reduced extensions is a DP over the
    downsets of the reduced poset: the next position is the number of
    placed elements plus one, and a pair's first position places both of
    its elements at once.  The DP steps only over the ready elements of a
    downset; each carries its ready mask, updated from the successor lists
    of the element just placed.  Floor automorphisms act freely on reduced
    extensions and preserve mu_S, so dividing by their number gives the sum
    over marked classes; automorphisms is their number, and the division
    is checked to be exact.  The factors' terms are a process-wide table.

    The truncation is exact at every downset: every factor has coefficient
    1 at its doubled top exponent, which is 2(w - 1) for an element of
    weight w and the sum of the two for a pair, whatever the pairing.  So a
    term of exponent >= lowest in the sum over reduced extensions comes only
    from terms of the sum over completions of a downset at or above lowest
    minus the tops of its placed elements, and each memo entry keeps just
    those.
    """
    elems, preds = reduced_poset(diagram)
    n = len(elems)
    full = (1 << n) - 1
    succs = _successors(preds)
    firsts = {i for i, _ in pairing}
    singles = [_single_key(e) for e in elems]
    tops = [2 * (_weight(e) - 1) for e in elems]
    trim = lowest is not None
    pair_keys: Dict[Tuple[int, int], Optional[Tuple]] = {}
    # sums are plain {doubled exponent: coefficient} dicts: the same DP on
    # LaurentPoly operations measured slower
    memo: Dict[int, Dict[int, int]] = {full: {0: 1}}

    def add_into(acc: Dict[int, int], p: Dict[int, int]) -> None:
        for e2, v in p.items():
            acc[e2] = acc.get(e2, 0) + v

    def total(placed: int, pos: int, ready: int, cut: int) -> Dict[int, int]:
        """Sum over the completions of placed, at doubled exponents >= cut
        when trimming (cut is lowest minus the tops of the placed elements)."""
        got = memo.get(placed)
        if got is not None:
            return got
        # sub-sums grouped by factor, so each distinct factor multiplies once
        groups: Dict[Tuple, Dict[int, int]] = {}
        left = ready
        while left:
            bit = left & -left
            left ^= bit
            x = bit.bit_length() - 1
            after_x = placed | bit
            ready_x = ready ^ bit
            for ubit, below in succs[x]:
                if not below & ~after_x:
                    ready_x |= ubit
            if pos not in firsts:
                add_into(groups.setdefault(singles[x], {}),
                         total(after_x, pos + 1, ready_x, cut - tops[x]))
                continue
            left_y = ready_x
            while left_y:
                ybit = left_y & -left_y
                left_y ^= ybit
                y = ybit.bit_length() - 1
                if (x, y) not in pair_keys:
                    pair_keys[(x, y)] = _pair_key(elems[x], elems[y])
                key = pair_keys[(x, y)]
                if key is None:
                    continue
                after_y = after_x | ybit
                ready_y = ready_x ^ ybit
                for ubit, below in succs[y]:
                    if not below & ~after_y:
                        ready_y |= ubit
                add_into(groups.setdefault(key, {}),
                         total(after_y, pos + 2, ready_y, cut - tops[x] - tops[y]))
        out = groups.pop(_UNIT, {})
        for key, sub in groups.items():
            for e2, v in _factor_terms(key):
                for f2, w in sub.items():
                    out[e2 + f2] = out.get(e2 + f2, 0) + v * w
        if trim:
            out = {e2: v for e2, v in out.items() if e2 >= cut}
        memo[placed] = out
        return out

    minimal = sum(1 << k for k in range(n) if not preds[k])
    result = {}
    for e2, v in total(0, 1, minimal, lowest if trim else 0).items():
        if v % automorphisms:
            raise EngineError("automorphism action on markings is not free")
        result[e2] = v // automorphisms
    return LaurentPoly(result)
