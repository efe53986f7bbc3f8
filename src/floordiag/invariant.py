"""Tropical refined invariants and refined descendant invariants.

G_Delta(g) sums count * multiplicity over floor-diagram classes of genus g,
with one multiplicity per multiset of elevator weights;
G_Delta(0;s) sums the refined S-multiplicity over marked genus-0 classes
for a pairing of order s.  Results are memoized on disk keyed by polygon,
parameters and a digest of the engine source, because the verification
suites recompute the same invariants many times; any edit to the engine
starts a fresh cache, with no version to bump by hand.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import warnings
from dataclasses import dataclass, field
from math import comb
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .diagram import codegree_coefficients, enumerate_floor_diagrams, mult
from .laurent import LaurentPoly
from .marking import (
    Pairing,
    all_pairings,
    canonical_pairing,
    count_markings,
    descendant_sum,
    enumerate_markings,
    make_pairing,
    mu_S,
)
from .polygon import HTransversePolygon, chop_top, lattice_stats


def _source_digest() -> str:
    """Short sha256 of the package's *.py files (sorted names and bytes)."""
    h = hashlib.sha256()
    for f in sorted(Path(__file__).parent.glob("*.py")):
        h.update(f.name.encode())
        h.update(f.read_bytes())
    return h.hexdigest()[:16]


# Part of every cache key: a cached entry is only served to the same source.
ALGO_VERSION = "floordiag-" + _source_digest()

_ENV_CACHE = "FLOORDIAG_CACHE_DIR"


def cache_dir() -> Optional[Path]:
    """Cache directory from $FLOORDIAG_CACHE_DIR; '' disables caching."""
    env = os.environ.get(_ENV_CACHE)
    if env == "":
        return None
    if env:
        return Path(env)
    return Path.home() / ".cache" / "floordiag"


# A cache file is named by 32 hex digits of its key's sha256 and _ENTRY, or
# _PARTIAL and the writer's pid for a write under way; no other file is.
_ENTRY, _PARTIAL = ".json", ".tmp"
_CACHE_NAME = re.compile(r"[0-9a-f]{32}(%s|%s[0-9]+)" % (re.escape(_ENTRY), re.escape(_PARTIAL)))


def _cache_files(base: Path, suffix: str) -> List[Path]:
    """The files in base that _CACHE_NAME names with suffix _ENTRY or _PARTIAL."""
    return [f for f in base.iterdir() if (m := _CACHE_NAME.fullmatch(f.name))
            and m[1].startswith(suffix) and f.is_file()]


def _cache_path(kind: str, polygon: HTransversePolygon, params: str) -> Optional[Path]:
    base = cache_dir()
    if base is None:
        return None
    token = "|".join((ALGO_VERSION, kind, polygon.key(), params))
    return base / (hashlib.sha256(token.encode()).hexdigest()[:32] + _ENTRY)


def _cached(
    kind: str,
    polygon: HTransversePolygon,
    params: str,
    compute: Callable[[], LaurentPoly],
    possible: Callable[[LaurentPoly], bool],
) -> LaurentPoly:
    """The cached value for (kind, polygon, params), else compute(), stored.

    A missing, unreadable or malformed entry is a miss, and so is one
    that no engine run could give: a negative coefficient, or a value
    that possible rejects.  A miss is recomputed and rewritten, and a
    failed write leaves the value uncached.
    """
    path = _cache_path(kind, polygon, params)
    if path is None:
        return compute()
    try:
        data = json.loads(path.read_text())
        if isinstance(data, dict) and all(type(v) is int for v in data.values()):
            value = LaurentPoly.from_json(data)
            if value.has_nonnegative_coeffs() and possible(value):
                return value
    except (ValueError, OSError):
        pass
    value = compute()
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(_PARTIAL + str(os.getpid()))
        tmp.write_text(json.dumps(value.to_json()))
        tmp.replace(path)
    except OSError:
        pass
    return value


def clear_cache() -> int:
    """Remove every cached result and the temporary file of every
    interrupted write; return the number of results removed."""
    base = cache_dir()
    if base is None or not base.is_dir():
        return 0
    for f in _cache_files(base, _PARTIAL):
        f.unlink(missing_ok=True)
    entries = _cache_files(base, _ENTRY)
    for f in entries:
        f.unlink()
    return len(entries)


def _pairing_token(pairing: Pairing) -> str:
    return ",".join("%d-%d" % p for p in sorted(pairing))


def refined_invariant(polygon: HTransversePolygon, genus: int) -> LaurentPoly:
    """G_Delta(g); zero when g exceeds the interior lattice count.

    mult(D) depends only on the multiset of elevator weights above 1, so the
    marking counts of the classes that share that multiset are summed first
    and mult is computed once per multiset.
    """
    iota = lattice_stats(polygon).interior
    if genus > iota:
        return LaurentPoly.zero()
    top = 2 * (iota - genus)

    def possible(value: LaurentPoly) -> bool:
        # G_Delta(g) is symmetric with top term C(iota, g) q^(iota - g)
        return (value.is_symmetric() and value.coeff2(top) == comb(iota, genus)
                and value.degree2() == top)

    def compute() -> LaurentPoly:
        # weight multiset -> [its first class, marking count of its classes]
        groups: Dict[Tuple[int, ...], List] = {}
        for D, auts in enumerate_floor_diagrams(polygon, genus).items():
            weights = tuple(sorted(w for _, _, w in D.elevators if w > 1))
            groups.setdefault(weights, [D, 0])[1] += count_markings(D, auts)
        total = LaurentPoly.zero()
        for D, n in groups.values():
            total = total + mult(D).scalar_mul(n)
        return total

    return _cached("G", polygon, "g=%d" % genus, compute, possible)


def refined_descendant(
    polygon: HTransversePolygon,
    s: int,
    pairing: Optional[Pairing] = None,
    max_codeg: Optional[int] = None,
) -> LaurentPoly:
    """G_Delta(0;s) for a pairing of order s (the consecutive one by default).

    With max_codeg set, only the coefficients of codegree <= max_codeg are
    computed: the sweep keeps the classes of codegree <= max_codeg, and
    descendant_sum carries only the terms of doubled exponent
    >= 2 (interior - max_codeg) through its DP.
    """
    stats = lattice_stats(polygon)
    if s < 0:
        raise ValueError("s must be nonnegative")
    if s > stats.s_max:
        warnings.warn("s=%d exceeds s_max=%d; invariant is zero" % (s, stats.s_max))
        return LaurentPoly.zero()
    if pairing is None:
        pairing = canonical_pairing(s)
    pairing = make_pairing(pairing, stats.n_delta)
    if len(pairing) != s:
        raise ValueError("pairing order %d does not match s=%d" % (len(pairing), s))

    top = 2 * stats.interior
    lowest = None if max_codeg is None else 2 * (stats.interior - max_codeg)

    def possible(value: LaurentPoly) -> bool:
        # G_Delta(0;s) has top term q^iota; the full value is symmetric, and
        # a truncated one has no term below the lowest exponent it keeps
        if value.coeff2(top) != 1 or value.degree2() != top:
            return False
        return value.is_symmetric() if lowest is None else value.valuation2() >= lowest

    def compute() -> LaurentPoly:
        total = LaurentPoly.zero()
        for D, auts in enumerate_floor_diagrams(polygon, 0, max_codeg=max_codeg).items():
            total = total + descendant_sum(D, pairing, auts, lowest)
        return total

    params = "s=%d;S=%s;mc=%s" % (s, _pairing_token(pairing), max_codeg)
    return _cached("Gs", polygon, params, compute, possible)


def descendant_codegree_coeff(polygon: HTransversePolygon, s: int, i: int) -> int:
    """coef_i G_Delta(0;s) through codegree-bounded enumeration."""
    stats = lattice_stats(polygon)
    g = refined_descendant(polygon, s, max_codeg=i)
    return g.coeff2(2 * (stats.interior - i))


def invariant_codegree_coeff(
    polygon: HTransversePolygon, genus: int, i: int) -> int:
    """coef_i G_Delta(g), by the forward transfer over walk states
    (diagram.codegree_coefficients), with no labelled diagram listed.

    Relabelling each marked class by the order its marking gives the floors
    turns the sum over classes into a sum over labelled diagrams L of
    mult(L) times the reduced linear extensions of L that keep the floors
    in label order (the labelled floor diagrams of Fomin-Mikhalkin).
    Diagrams are grouped into shapes by their small-weight pattern (heavy
    short elevators left as free slots).  Every factor of a shape's term is
    local to one floor or one gap: the source binomials, the gap
    factorials, the codegree coefficients of each [w]^2 (1, 2, ..., i+1 for
    a free slot) and the ordered assignments of the free weights.  So the
    transfer carries their codegree-truncated sums through the walk states,
    treating equal elevators and sinks as distinct copies and dividing once
    at the end, and needs no canonical forms or automorphisms.
    """
    if min(genus, i) >= 0 and i > 2 * (lattice_stats(polygon).interior - genus):
        return 0  # past 2(iota - g), the bottom exponent, or g > iota: no transfer
    return codegree_coefficients(polygon, genus, i)[i]


# -- verification reports -----------------------------------------------------


@dataclass
class Report:
    name: str
    passed: bool
    details: List[str] = field(default_factory=list)

    def line(self) -> str:
        return "%s %s" % ("PASS" if self.passed else "FAIL", self.name)


def verify_pairing_independence(polygon: HTransversePolygon, s: int) -> Report:
    """Recompute G_Delta(0;s) for every pairing of order s and compare."""
    stats = lattice_stats(polygon)
    name = "pairing-independence %s s=%d" % (polygon.key(), s)
    if not 0 <= s <= stats.s_max:
        raise ValueError("pairing independence needs 0 <= s <= s_max")
    pairings = list(all_pairings(stats.n_delta, s))
    values: Dict[Tuple, List[str]] = {}
    for S in pairings:
        val = refined_descendant(polygon, s, pairing=S)
        values.setdefault(val.key(), []).append(_pairing_token(S))
    passed = len(values) == 1
    details = ["%d pairings checked" % len(pairings)]
    if not passed:
        for key, tags in values.items():
            details.append(
                "value %s from pairings %s" % (LaurentPoly(dict(key)).render(), tags[:4])
            )
    return Report(name, passed, details)


def verify_recursion(polygon: HTransversePolygon, s: int) -> Report:
    """Check G(0;s+1) = G(0;s) - 2 G_chop(0;s) exactly."""
    stats = lattice_stats(polygon)
    name = "recursion %s s=%d" % (polygon.key(), s)
    if 2 * s > stats.n_delta - 2:
        raise ValueError("recursion needs 2s <= n(Delta) - 2")
    smaller = chop_top(polygon)
    lhs = refined_descendant(polygon, s + 1)
    rhs = refined_descendant(polygon, s) - refined_descendant(smaller, s).scalar_mul(2)
    passed = lhs == rhs
    details = [] if passed else ["lhs=%s rhs=%s" % (lhs.render(), rhs.render())]
    return Report(name, passed, details)


def verify_monotonicity(polygon: HTransversePolygon, i: int) -> Report:
    """coef_i G(0;0) >= coef_i G(0;1) >= ... >= 0."""
    stats = lattice_stats(polygon)
    name = "monotonicity %s i=%d" % (polygon.key(), i)
    if not 0 <= i <= stats.interior:
        raise ValueError("monotonicity needs 0 <= i <= iota")
    chain = [
        descendant_codegree_coeff(polygon, s, i) for s in range(stats.s_max + 1)
    ]
    passed = all(x >= y for x, y in zip(chain, chain[1:])) and chain[-1] >= 0
    return Report(name, passed, ["chain: %s" % (chain,)])


def marked_class_table(
    polygon: HTransversePolygon, pairings: Sequence[Pairing]
) -> List[Dict]:
    """Per-marked-class multiplicity table: mult plus mu_S for each pairing."""
    rows = []
    for D in enumerate_floor_diagrams(polygon, 0):
        for m in enumerate_markings(D):
            row = {"mult": mult(D), "mu": [mu_S(m, S) for S in pairings]}
            rows.append(row)
    return rows
