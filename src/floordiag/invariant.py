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
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .coeff import coeff_product_of_squares
from .diagram import codegree_coefficient_sum, enumerate_floor_diagrams, mult
from .laurent import LaurentPoly
from .marking import (
    Pairing,
    all_pairings,
    canonical_pairing,
    count_markings,
    count_reduced_extensions,
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


def _cache_path(kind: str, polygon: HTransversePolygon, params: str) -> Optional[Path]:
    base = cache_dir()
    if base is None:
        return None
    token = "|".join((ALGO_VERSION, kind, polygon.key(), params))
    name = hashlib.sha256(token.encode()).hexdigest()[:32] + ".json"
    return base / name


def _cached(
    kind: str,
    polygon: HTransversePolygon,
    params: str,
    compute: Callable[[], LaurentPoly],
) -> LaurentPoly:
    """The cached value for (kind, polygon, params), else compute(), stored.

    A missing, unreadable or malformed entry is a miss; a failed write
    leaves the value uncached.
    """
    path = _cache_path(kind, polygon, params)
    if path is None:
        return compute()
    try:
        data = json.loads(path.read_text())
        if isinstance(data, dict) and all(type(v) is int for v in data.values()):
            return LaurentPoly.from_json(data)
    except (ValueError, OSError):
        pass
    value = compute()
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".tmp%d" % os.getpid())
        tmp.write_text(json.dumps(value.to_json()))
        tmp.replace(path)
    except OSError:
        pass
    return value


def clear_cache() -> int:
    base = cache_dir()
    if base is None or not base.is_dir():
        return 0
    n = 0
    for f in base.glob("*.json"):
        f.unlink()
        n += 1
    return n


def _pairing_token(pairing: Pairing) -> str:
    return ",".join("%d-%d" % p for p in sorted(pairing))


def refined_invariant(polygon: HTransversePolygon, genus: int) -> LaurentPoly:
    """G_Delta(g); zero when g exceeds the interior lattice count.

    mult(D) depends only on the multiset of elevator weights above 1, so the
    marking counts of the classes that share that multiset are summed first
    and mult is computed once per multiset.
    """
    if genus > lattice_stats(polygon).interior:
        return LaurentPoly.zero()

    def compute() -> LaurentPoly:
        # weight multiset -> [its first class, marking count of its classes]
        groups: Dict[Tuple[int, ...], List] = {}
        for D in enumerate_floor_diagrams(polygon, genus):
            weights = tuple(sorted(w for _, _, w in D.elevators if w > 1))
            groups.setdefault(weights, [D, 0])[1] += count_markings(D)
        total = LaurentPoly.zero()
        for D, n in groups.values():
            total = total + mult(D).scalar_mul(n)
        return total

    return _cached("G", polygon, "g=%d" % genus, compute)


def refined_descendant(
    polygon: HTransversePolygon,
    s: int,
    pairing: Optional[Pairing] = None,
    max_codeg: Optional[int] = None,
) -> LaurentPoly:
    """G_Delta(0;s) for a pairing of order s (the consecutive one by default).

    With max_codeg set, only codegree <= max_codeg coefficients are kept.
    """
    stats = lattice_stats(polygon)
    if s < 0:
        raise ValueError("s must be nonnegative")
    if s > stats.s_max:
        warnings.warn("s=%d exceeds s_max=%d; invariant is zero" % (s, stats.s_max))
        return LaurentPoly.zero()
    if pairing is None:
        pairing = canonical_pairing(s)
    pairing = make_pairing(pairing, stats.boundary - 1)
    if len(pairing) != s:
        raise ValueError("pairing order %d does not match s=%d" % (len(pairing), s))

    def compute() -> LaurentPoly:
        total = LaurentPoly.zero()
        for D in enumerate_floor_diagrams(polygon, 0, max_codeg=max_codeg):
            total = total + descendant_sum(D, pairing)
        if max_codeg is not None:
            top2 = 2 * stats.interior
            total = LaurentPoly(
                {e2: v for e2, v in total.key() if e2 >= top2 - 2 * max_codeg}
            )
        return total

    params = "s=%d;S=%s;mc=%s" % (s, _pairing_token(pairing), max_codeg)
    return _cached("Gs", polygon, params, compute)


def descendant_codegree_coeff(polygon: HTransversePolygon, s: int, i: int) -> int:
    """coef_i G_Delta(0;s) through codegree-bounded enumeration."""
    stats = lattice_stats(polygon)
    g = refined_descendant(polygon, s, max_codeg=i)
    return g.coeff2(2 * (stats.interior - i))


def invariant_codegree_coeff(
    polygon: HTransversePolygon, genus: int, i: int) -> int:
    """coef_i G_Delta(g) as a sum over labelled shapes.

    Relabelling each marked class by the order its marking gives the floors
    turns the sum over classes into a sum over labelled diagrams L of
    mult(L) times the reduced linear extensions of L that keep the floors
    in label order (the labelled floor diagrams of Fomin-Mikhalkin).
    Diagrams are grouped into shapes by their small-weight pattern; within
    a shape both that extension count and the codegree-(i - codeg)
    coefficient of prod [w]^2 (the composition-sum shortcut) are constant,
    so each labelled shape contributes assignments * extensions *
    coefficient in one step, with no canonical forms or automorphisms.
    """
    def shape_term(pseudo, codeg):
        weights = [w for _, _, w in pseudo.elevators]
        return (count_reduced_extensions(pseudo, in_label_order=True)
                * coeff_product_of_squares(i - codeg, weights))

    return codegree_coefficient_sum(polygon, genus, i, shape_term)


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
    n = stats.boundary - 1
    name = "pairing-independence %s s=%d" % (polygon.key(), s)
    if s > stats.s_max:
        return Report(name, False, ["s beyond s_max"])
    pairings = list(all_pairings(n, s))
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
    if 2 * s > stats.boundary - 1 - 2:
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
    if i > stats.interior:
        return Report(name, False, ["codegree beyond the polynomial degree"])
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
            row = {"mult": mult(D), "mu": [mu_S(D, m, S) for S in pairings]}
            rows.append(row)
    return rows
