"""The four floordiag benchmark workloads and the exact check of every call.

Each workload is a closed loop: one caller issues its calls in sequence and
waits for each result.  A call's `run` looks its engine function up on the
module at call time, so the tracer's wrappers see benchmark calls too.  A
call's `check` returns None when the result is exact, or the reason it is
not, naming the oracle that disagrees.

The seed picks only inputs and order: the non-consecutive pairings in
`descendants`, the grid subset and order in `codegree_grid`, the request
order in `cli_session` and the call order everywhere.  The engine receives
only the generated inputs.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import os
import random
import shutil
from dataclasses import dataclass, field
from math import comb
from pathlib import Path
from typing import Callable, Dict, List, Optional

CACHE_ENV = "FLOORDIAG_CACHE_DIR"

MIXED = "ht:dl=[-2,0,1,1];dr=[2,0,0,-1];db=2;dt=1"

# (polygon, genus) for invariant_classes: Delta_6 in every genus, the mixed-
# slope polygon of the README and Delta_{4,1,2}.
INVARIANT_CASES = [("abn:6,0,1", g) for g in range(11)] + [(MIXED, 0), ("abn:4,1,2", 1)]

# (polygon, s) under the consecutive pairing for descendants.
DESCENDANT_CASES = [("abn:5,0,1", s) for s in range(8)]

# Kontsevich N_d at q=1 and Welschinger W_d at q=-1 of G_{Delta_d}(0).
ENUMERATIVE = {"abn:5,0,1": (87304, 18264), "abn:6,0,1": (26312976, 2845440)}

# Delta_4 descendants under non-consecutive pairings: orders and picks per order.
PAIRING_POLYGON = "abn:4,0,1"
PAIRING_PICKS = {1: 4, 2: 4}

# codegree_grid: the U_1 part of the criterion-6 grid, a third picked by the seed.
FIT_BOX = {"a": range(4, 9), "b": range(2, 6), "n": range(1, 5)}
FIT_DEGREES = {"a": 3, "b": 2, "n": 2}  # i + 2g, i + g, i + g for g = i = 1
FIT_HOLDOUT = {"a": 9, "b": 2, "n": 1}
SHAPE_CASE = ("abn:8,3,2", 2, 2)  # polygon, genus, codegree

CLI_REQUESTS = (
    [["verify", "--suite", "all"]]
    + [["invariant", "--polygon", "abn:5,0,1", "--genus", str(g)] for g in range(7)]
    + [["invariant", "--polygon", "abn:4,2,1", "--genus", str(g)] for g in range(3)]
    + [["descendant", "--polygon", "abn:4,0,1", "--s", str(s)] for s in range(6)]
    + [
        ["descendant", "--polygon", "abn:4,0,1", "--s", "1", "--pairing", "pairs:3-4"],
        ["coeffs", "--i", "1", "--grid", "a=2..5,b=2..4,n=0..2,s=0..2", "--check"],
        ["fit", "--i", "1", "--genus", "0", "--grid", "a=3..5,b=2..4,n=1..3,s=0..2"],
        ["templates", "--max-genus", "1", "--max-codeg", "2"],
        ["capping", "--a", "4", "--n", "1", "--max-codeg", "2"],
    ]
)


@dataclass
class Call:
    label: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]


@dataclass
class Workload:
    name: str
    calls: List[Call]
    cache_parent: Optional[Path] = None  # cli_session: fresh cache per pass
    _pass: int = field(default=0, repr=False)

    def begin_pass(self) -> None:
        """Point the engine's cache at a fresh empty directory, or disable it."""
        if self.cache_parent is None:
            os.environ[CACHE_ENV] = ""
            return
        self._pass += 1
        path = self.cache_parent / ("cache-%d-%d" % (os.getpid(), self._pass))
        path.mkdir(parents=True)
        os.environ[CACHE_ENV] = str(path)

    def end_pass(self) -> int:
        """Remove this pass's cache directory; return the bytes it held."""
        path = os.environ.get(CACHE_ENV)
        if not path:
            return 0
        held = sum(f.stat().st_size for f in Path(path).iterdir())
        shutil.rmtree(path)
        return held


# -- exact references -----------------------------------------------------


def at_minus_one(poly) -> int:
    """Value at q = -1 in integers, from the exponent-sorted key."""
    total = 0
    for e2, v in poly.key():
        if e2 % 2:
            raise ValueError("half-integer exponent has no real value at q=-1")
        total += -v if (e2 // 2) % 2 else v
    return total


def poly_check(ref: Dict, iota: Optional[int] = None, genus: int = 0,
               enumerative=None) -> Callable[[object], Optional[str]]:
    """Stored value, codegree-0 = C(iota, genus), and N_d / W_d when given."""

    def check(value) -> Optional[str]:
        if value.to_json() != ref["value"]:
            return "differs from %s" % ref["oracle"]
        if iota is not None and value.codegree_coeff(0) != comb(iota, genus):
            return "codegree-0 coefficient is not C(%d,%d)" % (iota, genus)
        if enumerative is not None:
            kontsevich, welschinger = enumerative
            if value.evaluate_at_one() != kontsevich:
                return "value at q=1 is not Kontsevich's N_d = %d" % kontsevich
            if at_minus_one(value) != welschinger:
                return "value at q=-1 is not Welschinger's W_d = %d" % welschinger
        return None

    return check


def _poly_label(kind: str, literal: str, param: str) -> str:
    return "%s %s %s" % (kind, literal, param)


# -- workloads ------------------------------------------------------------


def invariant_classes(fd, refs: Dict, rng: random.Random) -> Workload:
    calls = []
    for literal, g in INVARIANT_CASES:
        polygon = fd.polygon.parse_polygon(literal)
        iota = fd.polygon.lattice_stats(polygon).interior
        label = _poly_label("G", literal, "g=%d" % g)
        calls.append(Call(
            label,
            lambda p=polygon, g=g: fd.invariant.refined_invariant(p, g),
            poly_check(refs[label], iota, g, ENUMERATIVE.get(literal) if g == 0 else None),
        ))
    rng.shuffle(calls)
    return Workload("invariant_classes", calls)


def pairings_of_order(n: int, s: int) -> List[frozenset]:
    """Every set of s disjoint consecutive pairs {i, i+1} inside 1..n."""
    pairs = [(i, i + 1) for i in range(1, n)]
    return [
        frozenset(combo) for combo in itertools.combinations(pairs, s)
        if all(q[0] > p[1] for p, q in zip(combo, combo[1:]))
    ]


def descendants(fd, refs: Dict, rng: random.Random) -> Workload:
    calls = []
    for literal, s in DESCENDANT_CASES:
        polygon = fd.polygon.parse_polygon(literal)
        label = _poly_label("G0s", literal, "s=%d" % s)
        # G(0;0) is G(0): it has the genus-0 oracles too
        check = (poly_check(refs[label], fd.polygon.lattice_stats(polygon).interior, 0,
                            ENUMERATIVE.get(literal))
                 if s == 0 else poly_check(refs[label]))
        calls.append(Call(
            label, lambda p=polygon, s=s: fd.invariant.refined_descendant(p, s), check))
    polygon = fd.polygon.parse_polygon(PAIRING_POLYGON)
    n_marks = fd.polygon.lattice_stats(polygon).boundary - 1
    for s, picks in PAIRING_PICKS.items():
        consecutive = frozenset((2 * k + 1, 2 * k + 2) for k in range(s))
        choices = [p for p in pairings_of_order(n_marks, s) if p != consecutive]
        golden = refs[_poly_label("G0s", PAIRING_POLYGON, "s=%d" % s)]
        for pairing in rng.sample(choices, picks):
            token = ",".join("%d-%d" % p for p in sorted(pairing))
            calls.append(Call(
                _poly_label("G0s", PAIRING_POLYGON, "s=%d pairs:%s" % (s, token)),
                lambda p=polygon, s=s, S=pairing: fd.invariant.refined_descendant(
                    p, s, pairing=S),
                poly_check(golden),
            ))
    rng.shuffle(calls)
    return Workload("descendants", calls)


def grid_points() -> List[tuple]:
    """The U_1 points (a, b, n, s) of the criterion-6 grid, in grid order."""
    i = 1
    points = []
    for a, b, n in itertools.product(range(2, 13), range(2, 8), range(0, 7)):
        if a * n + 2 * b > 14 or a <= i or b <= i:
            continue
        for s in range((a * n + b - i) // 2 + 1):
            if a * n + b >= i + 2 * s:
                points.append((a, b, n, s))
    return points


def grid_third(rng: random.Random) -> List[tuple]:
    """One point of each neighbouring triple, so every seed costs about the same.

    A third, not more: the pass stays short enough for two or three passes
    in a run, whose median steadies the result.
    """
    points = grid_points()
    picked = [triple[rng.randrange(len(triple))] for triple in
              (points[k:k + 3] for k in range(0, len(points), 3))]
    rng.shuffle(picked)
    return picked


def codegree_grid(fd, refs: Dict, rng: random.Random) -> Workload:
    calls = []
    for a, b, n, s in grid_third(rng):
        polygon = fd.polygon.make_delta_abn(a, b, n)

        def run(a=a, b=b, n=n, s=s, polygon=polygon):
            return (fd.coeff.coeff_closed_form(1, a, b, n, s),
                    fd.invariant.descendant_codegree_coeff(polygon, s, 1))

        def check(pair, a=a, b=b, n=n, s=s):
            closed, enumerated = pair
            if closed != enumerated:
                return "closed form %d differs from enumeration %d" % (closed, enumerated)
            if closed != (n + 2) * a + 2 * b + 2 - 2 * s:
                return "coef_1 is not (n+2)a + 2b + 2 - 2s"
            return None

        calls.append(Call("coef_1 a=%d b=%d n=%d s=%d" % (a, b, n, s), run, check))

    fit_ref = refs["fit coef_1 genus 1"]

    def run_fit():
        def sampler(a, b, n):
            return fd.invariant.invariant_codegree_coeff(fd.polygon.make_delta_abn(a, b, n), 1, 1)
        box = {v: list(r) for v, r in FIT_BOX.items()}
        return fd.polyfit.verify_polynomiality(
            sampler, box, FIT_DEGREES, holdout=FIT_HOLDOUT, name="coef_1 of genus 1")

    def check_fit(report):
        if not report.passed:
            return "fit is not exact: %s" % "; ".join(report.details)
        if report.polynomial.to_json() != fit_ref["value"]:
            return "fitted polynomial differs from %s" % fit_ref["oracle"]
        return None

    calls.append(Call("fit coef_1 genus 1", run_fit, check_fit))
    literal, genus, i = SHAPE_CASE
    shape_label = "coef_%d %s g=%d" % (i, literal, genus)
    shape_ref = refs[shape_label]
    polygon = fd.polygon.parse_polygon(literal)
    calls.append(Call(
        shape_label,
        lambda: fd.invariant.invariant_codegree_coeff(polygon, genus, i),
        lambda v: None if v == shape_ref["value"] else "differs from %s" % shape_ref["oracle"],
    ))
    rng.shuffle(calls)
    return Workload("codegree_grid", calls)


def run_cli(fd, argv: List[str]):
    """floordiag.cli.main in-process; returns (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = fd.cli.main(list(argv))
    return code, out.getvalue()


def cli_session(fd, refs: Dict, rng: random.Random, cache_parent: Path) -> Workload:
    calls = []
    for argv in CLI_REQUESTS * 2:
        label = " ".join(argv)
        ref = refs[label]

        def check(result, ref=ref):
            code, stdout = result
            if code != 0:
                return "exit code %d" % code
            if stdout != ref["stdout"]:
                return "output differs from %s" % ref["oracle"]
            return None

        calls.append(Call(label, lambda argv=argv: run_cli(fd, argv), check))
    rng.shuffle(calls)
    return Workload("cli_session", calls, cache_parent=cache_parent)


BUILDERS = {
    "invariant_classes": invariant_classes,
    "descendants": descendants,
    "codegree_grid": codegree_grid,
    "cli_session": cli_session,
}


def build(name: str, fd, refs: Dict, seed: int, cache_parent: Path) -> Workload:
    rng = random.Random("%s:%d" % (name, seed))
    if name == "cli_session":
        return cli_session(fd, refs[name], rng, cache_parent)
    return BUILDERS[name](fd, refs[name], rng)
