"""Building blocks for layered floor diagrams: templates, capping trees,
admissible collections, and the reconstruction bijection.

A template is a layered weighted multigraph on totally ordered vertices
carrying no separating edge, weighted away from its short edges.  The
census enumerated here contains the atomic templates: pieces that cannot
be written as two valid pieces sharing a single vertex (composites arise
in reconstruction by placing two templates with touching spans, which the
position sets below allow).  Sources never sit on the minimal vertex and
sinks never on the maximal one: the reconstruction owns those slots.
Templates with both sources and sinks cannot appear in any admissible
collection (sources force the first slot, sinks the last), so they are
excluded as well.  reconstructions rebuilds the layered diagrams of a
collection at given positions in one pass; every gap of such a diagram
carries a short edge, so its one topological order makes it its own
canonical form.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterator, List, Tuple

from .diagram import (
    Elevator,
    FloorDiagram,
    bounded_vectors,
    codegree,
    compositions,
    enumerate_floor_diagrams,
    validate as validate_diagram,
)
from .laurent import EngineError
from .polygon import make_delta_abn

Long = Tuple[int, int, int]  # (p, q, w), 1-based vertices, q - p >= 2


@dataclass(frozen=True)
class Template:
    length: int
    shorts: Tuple[int, ...]  # short-edge count per gap, len length-1
    longs: Tuple[Long, ...]  # weighted non-short internal edges, sorted
    sources: Tuple[int, ...]  # per vertex, len length
    sinks: Tuple[int, ...]

    def genus(self) -> int:
        return sum(self.shorts) + len(self.longs) - self.length + 1

    def codeg(self) -> int:
        c = sum((q - p - 1) * w for p, q, w in self.longs)
        c += sum(v * count for v, count in enumerate(self.sources))
        c += sum(
            (self.length - 1 - v) * count for v, count in enumerate(self.sinks)
        )
        return c

    def n_sources(self) -> int:
        return sum(self.sources)

    def n_sinks(self) -> int:
        return sum(self.sinks)

    def is_closed(self) -> bool:
        return self.length > 1 and not self.n_sources() and not self.n_sinks()

    def key(self) -> Tuple:
        return (self.length, self.shorts, self.longs, self.sources, self.sinks)

    def to_json(self) -> Dict:
        return {
            "length": self.length,
            "short_edges_per_gap": list(self.shorts),
            "long_edges": [list(e) for e in self.longs],
            "sources": list(self.sources),
            "sinks": list(self.sinks),
            "genus": self.genus(),
            "codegree": self.codeg(),
        }


POINT = Template(1, (), (), (0,), (0,))


def _long_spans_gap(long: Long, gap: int) -> bool:
    """gap g sits between vertices g and g+1 (1-based)."""
    p, q, _ = long
    return p <= gap < q


def _structurally_valid(t: Template) -> bool:
    """Layeredness, the no-separating-edge condition, and the slot rules
    (no source at the bottom vertex, no sink at the top, not both kinds)."""
    l = t.length
    if l == 1:
        return not t.longs and not any(t.sources) and not any(t.sinks)
    if any(c < 1 for c in t.shorts):
        return False  # consecutive vertices would be incomparable
    if t.sources[0] or t.sinks[-1]:
        return False
    if t.n_sources() and t.n_sinks():
        return False
    for p, q, w in t.longs:
        if not (1 <= p and q <= l and q - p >= 2 and w >= 1):
            return False
    for gap in range(1, l):
        if t.shorts[gap - 1] != 1:
            continue
        if any(_long_spans_gap(e, gap) for e in t.longs):
            continue
        # a lone short edge is separating unless a source above the gap or a
        # sink at or below it keeps some element incomparable to it
        if any(t.sources[v] for v in range(gap, l)):
            continue
        if any(t.sinks[v] for v in range(gap)):
            continue
        return False
    return True


def _is_composite(t: Template) -> bool:
    """True when the template splits at an interior vertex into a sink-free
    lower piece and a source-free upper piece, both structurally valid;
    such shapes are produced by two touching templates instead."""
    for j in range(2, t.length):
        if any(e[0] < j < e[1] for e in t.longs):
            continue
        lower = Template(
            j,
            t.shorts[: j - 1],
            tuple(e for e in t.longs if e[1] <= j),
            t.sources[:j],
            t.sinks[: j - 1] + (0,),
        )
        upper = Template(
            t.length - j + 1,
            t.shorts[j - 1:],
            tuple((p - j + 1, q - j + 1, w) for p, q, w in t.longs if p >= j),
            (0,) + t.sources[j:],
            t.sinks[j - 1:],
        )
        if lower.n_sinks() or upper.n_sources():
            continue
        if _structurally_valid(lower) and _structurally_valid(upper):
            return True
    return False


def is_template(t: Template) -> bool:
    return _structurally_valid(t) and not _is_composite(t)


def enumerate_templates(max_genus: int, max_codeg: int) -> List[Template]:
    """All atomic templates of genus <= max_genus and codegree <= max_codeg,
    sorted by (genus, codegree, length, structure)."""
    if max_genus < 0 or max_codeg < 0:
        raise ValueError("bounds must be nonnegative")
    out = [POINT]
    max_len = 1 + max_genus + max_codeg  # codeg + genus >= length - 1
    for l in range(2, max_len + 1):
        for shorts in itertools.product(range(1, max_genus + 2), repeat=l - 1):
            base_edges = sum(shorts)
            if base_edges - l + 1 > max_genus:
                continue
            for longs in _long_multisets(l, max_genus - (base_edges - l + 1), max_codeg):
                for sources, sinks in _decorations(l, max_codeg):
                    t = Template(l, shorts, longs, sources, sinks)
                    if t.genus() > max_genus or t.codeg() > max_codeg:
                        continue
                    if is_template(t):
                        out.append(t)
    out.sort(key=lambda t: (t.genus(), t.codeg(), t.length, t.key()))
    return out


def _long_multisets(l: int, genus_budget: int, codeg_budget: int) -> Iterator[Tuple[Long, ...]]:
    spots = [
        (p, q, w)
        for p in range(1, l - 1)
        for q in range(p + 2, l + 1)
        for w in range(1, codeg_budget // (q - p - 1) + 1)
    ]

    def rec(idx, g_left, c_left):
        yield ()
        for k in range(idx, len(spots)):
            p, q, w = spots[k]
            cost = (q - p - 1) * w
            if g_left >= 1 and cost <= c_left:
                for tail in rec(k, g_left - 1, c_left - cost):
                    yield ((p, q, w),) + tail

    yield from rec(0, genus_budget, codeg_budget)


def _decorations(l: int, codeg_budget: int) -> Iterator[Tuple[Tuple[int, ...], Tuple[int, ...]]]:
    src_costs = [v for v in range(l)]  # source at vertex v+1 costs v
    snk_costs = [l - 1 - v for v in range(l)]
    zeros = (0,) * l
    for src in bounded_vectors(src_costs, codeg_budget):
        if any(src):
            yield src, zeros
        else:
            for snk in bounded_vectors(snk_costs, codeg_budget):
                yield zeros, snk


def template_census(max_genus: int, max_codeg: int) -> Dict[Tuple[int, int], int]:
    counts: Dict[Tuple[int, int], int] = {}
    for t in enumerate_templates(max_genus, max_codeg):
        key = (t.genus(), t.codeg())
        counts[key] = counts.get(key, 0) + 1
    return counts


# -- capping trees -------------------------------------------------------------

TreeShape = Tuple  # nested sorted tuples; a leaf is ()


@dataclass(frozen=True)
class CappingTree:
    floors: int
    divergence: int
    shape: TreeShape  # children of the root, each a nested shape

    def weighted_edges(self) -> List[Tuple[int, int]]:
        """(weight, subtree size) for every edge, root first."""
        out = []

        def walk(children):
            for child in children:
                size = _shape_size(child)
                out.append((self.divergence * size, size))
                walk(child)

        walk(self.shape)
        return out

    def codeg(self) -> int:
        a, n = self.floors, self.divergence
        total = (a - 1) * (n * a - 2) // 2
        return total - sum(w - 1 for w, _ in self.weighted_edges())

    def to_json(self) -> Dict:
        return {
            "floors": self.floors,
            "divergence": self.divergence,
            "root_children": self.shape,
            "codegree": self.codeg(),
        }


def _shape_size(shape: TreeShape) -> int:
    return 1 + sum(_shape_size(c) for c in shape)


def _rooted_shapes(size: int) -> List[TreeShape]:
    """All rooted trees on `size` vertices as canonical nested tuples."""
    if size == 1:
        return [()]
    out = set()
    for k in range(1, size):
        for parts in compositions(size - 1, k):
            child_lists = [_rooted_shapes(p) for p in parts]
            for combo in itertools.product(*child_lists):
                out.add(tuple(sorted(combo)))
    return sorted(out)


def enumerate_capping_trees(a: int, n: int, max_codeg: int) -> List[CappingTree]:
    """All capping trees with `a` floors and divergence n at every floor but
    the root, of codegree <= max_codeg.  Empty when n(a-2) > max_codeg."""
    if max_codeg < 0:
        raise ValueError("codegree bound must be nonnegative")
    if n < 1:
        raise ValueError("capping trees need positive divergence")
    if a < 3:
        return []  # the root must disconnect the tree, so it needs >= 2 children
    out = []
    for shape in _rooted_shapes(a):
        if len(shape) < 2:
            continue
        tree = CappingTree(a, n, shape)
        c = tree.codeg()
        if c < 0:
            raise EngineError("negative capping-tree codegree")
        if c <= max_codeg:
            out.append(tree)
    out.sort(key=lambda t: (t.codeg(), t.shape))
    return out


# -- admissible collections and reconstruction --------------------------------


@dataclass(frozen=True)
class AdmissibleCollection:
    parts: Tuple[Template, ...]

    def genus(self) -> int:
        return sum(t.genus() for t in self.parts)

    def codeg(self) -> int:
        return sum(t.codeg() for t in self.parts)

    def is_admissible(self) -> bool:
        if not self.parts:
            return False
        if self.parts[0].n_sinks() or self.parts[-1].n_sources():
            return False
        return all(t.is_closed() for t in self.parts[1:-1])


def enumerate_admissible_collections(genus: int, codeg: int) -> List[AdmissibleCollection]:
    """Admissible collections with the exact total genus and codegree."""
    census = enumerate_templates(genus, codeg)
    firsts = [t for t in census if not t.n_sinks()]
    lasts = [t for t in census if not t.n_sources()]
    middles = [t for t in census if t.is_closed()]
    out = []
    max_parts = genus + 2
    for m in range(1, max_parts + 1):
        pools = [firsts if j == 0 else lasts if j == m - 1 else middles for j in range(m)]
        if m == 1:
            pools = [[t for t in census if not t.n_sinks() and not t.n_sources()]]

        def rec(j, g_left, c_left, acc):
            if j == len(pools):
                if g_left == 0 and c_left == 0:
                    out.append(AdmissibleCollection(tuple(acc)))
                return
            for t in pools[j]:
                g, c = t.genus(), t.codeg()
                if g <= g_left and c <= c_left:
                    rec(j + 1, g_left - g, c_left - c, acc + [t])

        rec(0, genus, codeg, [])
    return out


def positions(collection: AdmissibleCollection, a: int) -> Iterator[Tuple[int, ...]]:
    """Elements of A_a: bottom vertices k_j of each template span, with
    k_1 = 1 and k_m + l_m = a + 1.  Consecutive spans may share one vertex
    when both templates have length >= 2 (a zero-length connecting chain)."""
    parts = collection.parts
    m = len(parts)
    last = a + 1 - parts[-1].length
    if last < 1:
        return
    if m == 1:
        if last == 1:
            yield (1,)
        return

    def min_step(j):
        both_long = parts[j].length >= 2 and parts[j + 1].length >= 2
        return parts[j].length - (1 if both_long else 0)

    def rec(j, k, acc):
        if j == m - 2:
            if last >= k + min_step(j):
                yield acc + (last,)
            return
        for nxt in range(k + min_step(j), last + 1):
            yield from rec(j + 1, nxt, acc + (nxt,))

    yield from rec(0, 1, (1,))


def reconstructions(
    collection: AdmissibleCollection,
    kappa: Tuple[int, ...],
    a: int,
    b: int,
    n: int,
) -> Iterator[FloorDiagram]:
    """The layered floor diagrams that the collection at positions kappa
    determines, one per element of B: a multiset of short-edge weights per
    gap.  The divergences force the weight crossing each gap, and a gap
    that no template covers takes a single edge.  Infeasible positions
    yield nothing."""
    sources, sinks = [0] * a, [0] * a
    fixed: List[Elevator] = []
    counts = [1] * (a - 1)  # short edges per gap
    for t, k in zip(collection.parts, kappa):
        for v in range(t.length):
            sources[k - 1 + v] += t.sources[v]
            sinks[k - 1 + v] += t.sinks[v]
        fixed.extend((k - 2 + p, k - 2 + q, w) for p, q, w in t.longs)
        counts[k - 1:k - 2 + t.length] = t.shorts
    # the bottom and top floors, free of template sources and sinks, take
    # the ones left
    sources[0] += a * n + b - sum(sources)
    sinks[-1] += b - sum(sinks)
    if sources[0] < 0 or sinks[-1] < 0:
        return
    pools = []
    flow = 0
    for g in range(a - 1):
        flow += sources[g] - sinks[g] - n
        rest = flow - sum(w for p, q, w in fixed if p <= g < q)
        pools.append([[(g, g + 1, w) for w in comp] for comp in compositions(rest, counts[g])])
    floors = tuple((0, n, s, t) for s, t in zip(sources, sinks))
    polygon = make_delta_abn(a, b, n)
    for shorts in itertools.product(*pools):
        diagram = FloorDiagram(floors, tuple(fixed) + tuple(itertools.chain(*shorts)))
        errs = validate_diagram(diagram, polygon)
        if errs:
            raise EngineError("reconstruction produced an invalid diagram: " + "; ".join(errs))
        yield diagram


@dataclass
class BijectionReport:
    name: str
    passed: bool
    reconstructed: int
    enumerated: int
    details: List[str]

    def line(self) -> str:
        return "%s %s" % ("PASS" if self.passed else "FAIL", self.name)


def verify_bijection(a: int, b: int, n: int, genus: int, i: int) -> BijectionReport:
    """Check that reconstruction hits every diagram class of codegree
    exactly i exactly once, and that every enumerated class of codegree
    <= i is layered.  Both sides are canonical forms, so they compare by
    key."""
    if a <= i or b < i:
        raise ValueError("bijection region needs a > i and b >= i")
    polygon = make_delta_abn(a, b, n)
    name = "bijection a=%d b=%d n=%d g=%d i=%d" % (a, b, n, genus, i)
    details: List[str] = []
    recon: Dict[Tuple, int] = {}
    for col in enumerate_admissible_collections(genus, i):
        for kappa in positions(col, a):
            for d in reconstructions(col, kappa, a, b, n):
                if d.genus() != genus or codegree(d) != i:
                    return BijectionReport(
                        name, False, 0, 0,
                        ["reconstructed diagram has wrong genus or codegree"],
                    )
                recon[d.key()] = recon.get(d.key(), 0) + 1
    dupes = {k: c for k, c in recon.items() if c > 1}
    enumerated = enumerate_floor_diagrams(polygon, genus, max_codeg=i)
    not_layered = [d for d in enumerated if not d.is_layered()]
    exact = {d.key() for d in enumerated if codegree(d) == i}
    passed = not dupes and not not_layered and set(recon) == exact
    if dupes:
        details.append("%d classes reconstructed more than once" % len(dupes))
    if not_layered:
        details.append("%d enumerated classes are not layered" % len(not_layered))
    missing = exact - set(recon)
    spurious = set(recon) - exact
    if missing:
        details.append("%d enumerated classes not reconstructed" % len(missing))
    if spurious:
        details.append("%d reconstructed classes not enumerated" % len(spurious))
    if passed:
        details.append("%d classes matched" % len(exact))
    return BijectionReport(name, passed, len(recon), len(exact), details)
