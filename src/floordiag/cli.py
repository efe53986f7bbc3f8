"""Command-line surface: invariants, descendants, coefficient grids, fits,
template/capping censuses, golden-file verification suites, and cache
management.

The `verify` suites take every input and expected value from
`golden/paper_examples.json` (`paper_examples()`), the one table that the
acceptance criteria in `tests/test_acceptance.py` read as well.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 engine fault.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from importlib import resources
from typing import Dict, Iterable, List, Optional

from . import invariant as inv
from . import polyfit
from .coeff import coeff_closed_form, in_region_U
from .laurent import EngineError, LaurentPoly
from .marking import parse_pairing
from .polygon import lattice_stats, make_delta_abn, parse_polygon
from .templates import (
    enumerate_capping_trees,
    enumerate_templates,
    template_census,
    verify_bijection,
)

USAGE_ERROR = 2
VERIFY_ERROR = 1
ENGINE_FAULT = 3


def _print_poly(p: LaurentPoly, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(p.to_json()))
    else:
        print(p.render())


def cmd_invariant(args) -> int:
    polygon = parse_polygon(args.polygon)
    stats = lattice_stats(polygon)
    if args.genus > stats.interior:
        print(
            "warning: genus %d exceeds the interior count %d; the invariant is zero"
            % (args.genus, stats.interior),
            file=sys.stderr,
        )
    value = inv.refined_invariant(polygon, args.genus)
    _print_poly(value, args.format)
    return 0


def cmd_descendant(args) -> int:
    polygon = parse_polygon(args.polygon)
    pairing = parse_pairing(args.pairing) if args.pairing else None
    value = inv.refined_descendant(polygon, args.s, pairing=pairing)
    _print_poly(value, args.format)
    return 0


def _parse_range(key: str, text: str) -> List[int]:
    """The values lo..hi (inclusive) or v1|v2|... of grid variable `key`."""
    try:
        if ".." in text:
            lo, hi = text.split("..")
            values = list(range(int(lo), int(hi) + 1))
        else:
            values = [int(x) for x in text.split("|")]
    except ValueError:
        raise ValueError("grid variable %s has a malformed range %r (write lo..hi or v1|v2|...)"
                         % (key, text)) from None
    if not values:
        raise ValueError("grid variable %s has an empty range %s" % (key, text))
    if len(set(values)) != len(values):
        raise ValueError("grid variable %s repeats a value in %s" % (key, text))
    return values


def _parse_grid(text: str) -> Dict[str, List[int]]:
    grid: Dict[str, List[int]] = {}
    for item in text.split(","):
        key, _, val = item.partition("=")
        key = key.strip()
        if key in grid:
            raise ValueError("grid sets variable %s twice" % key)
        grid[key] = _parse_range(key, val)
    return grid


def _check_variables(grid: Dict[str, List[int]], variables: Iterable[str]) -> None:
    """The grid sets each of the variables and no other."""
    unknown = sorted(set(grid) - set(variables))
    if unknown:
        raise ValueError("grid sets %s, which this command does not take (it takes %s)"
                         % (", ".join(unknown), ", ".join(variables)))
    missing = sorted(set(variables) - set(grid))
    if missing:
        raise ValueError("grid must set %s (missing %s)" % (", ".join(variables), missing))


def cmd_coeffs(args) -> int:
    grid = _parse_grid(args.grid)
    _check_variables(grid, "abns")
    rows = []
    for a in grid["a"]:
        for b in grid["b"]:
            for n in grid["n"]:
                for s in grid["s"]:
                    if not in_region_U(args.i, a, b, n, s):
                        continue
                    rows.append(
                        (args.i, a, b, n, s, coeff_closed_form(args.i, a, b, n, s),
                         "closed_form")
                    )
                    if args.check:
                        polygon = make_delta_abn(a, b, n)
                        rows.append(
                            (args.i, a, b, n, s,
                             inv.descendant_codegree_coeff(polygon, s, args.i),
                             "enumeration")
                        )
    if not rows:
        raise ValueError("empty grid: no points inside the region U_%d" % args.i)
    if args.format == "json":
        print(json.dumps([
            dict(zip(("i", "a", "b", "n", "s", "value", "source"), row))
            for row in rows
        ]))
    else:
        out = io.StringIO()
        writer = csv.writer(out)
        writer.writerow(["i", "a", "b", "n", "s", "value", "source"])
        writer.writerows(rows)
        print(out.getvalue(), end="")
    return 0


def cmd_fit(args) -> int:
    grid = _parse_grid(args.grid)
    if args.genus == 0 and "s" in grid:
        def sampler(a, b, n, s):
            return inv.descendant_codegree_coeff(make_delta_abn(a, b, n), s, args.i)
        degrees = {"a": args.i, "b": args.i, "n": args.i, "s": args.i}
    else:
        def sampler(a, b, n):
            return inv.invariant_codegree_coeff(make_delta_abn(a, b, n), args.genus, args.i)
        degrees = {
            "a": args.i + 2 * args.genus,
            "b": args.i + args.genus,
            "n": args.i + args.genus,
        }
    _check_variables(grid, degrees)
    box = {v: grid[v] for v in degrees}
    report = polyfit.verify_polynomiality(
        sampler, box, degrees, name="fit i=%d g=%d" % (args.i, args.genus)
    )
    print(json.dumps(report.to_json(), indent=2))
    return 0 if report.passed else VERIFY_ERROR


def cmd_templates(args) -> int:
    ts = enumerate_templates(args.max_genus, args.max_codeg)
    if args.format == "json":
        print(json.dumps([t.to_json() for t in ts]))
    else:
        counts = template_census(args.max_genus, args.max_codeg)
        for (g, c), k in sorted(counts.items()):
            print("genus %d codegree %d: %d templates" % (g, c, k))
        print("total: %d" % len(ts))
    return 0


def cmd_capping(args) -> int:
    ts = enumerate_capping_trees(args.a, args.n, args.max_codeg)
    if args.format == "json":
        print(json.dumps([t.to_json() for t in ts]))
    else:
        for t in ts:
            print("codegree %d: children sizes %s" % (t.codeg(), [len(str(c)) for c in t.shape]))
        print("total: %d" % len(ts))
    return 0


def cmd_cache(args) -> int:
    base = inv.cache_dir()
    if args.action == "dir":
        print(base if base else "(caching disabled)")
    elif args.action == "info":
        if base and base.is_dir():
            files = list(base.glob("*.json"))
            print("%d cached results in %s" % (len(files), base))
        else:
            print("cache empty (%s)" % (base if base else "disabled"))
    elif args.action == "clear":
        print("removed %d cached results" % inv.clear_cache())
    return 0


# -- verification suites -------------------------------------------------------


def paper_examples() -> Dict:
    """The paper's worked examples: inputs and expected values of every
    suite, the one table that `verify` and the acceptance criteria read."""
    with resources.files("floordiag.golden").joinpath("paper_examples.json").open() as fh:
        return json.load(fh)


def _suite_paper_examples(report: List[str]) -> bool:
    golden = paper_examples()
    ok = True
    for entry in golden["invariants"]:
        polygon = parse_polygon(entry["polygon"])
        got = inv.refined_invariant(polygon, entry["genus"])
        match = got.to_json() == entry["value"]
        ok &= match
        report.append("%s G(%d): %s" % (entry["polygon"], entry["genus"],
                                        "ok" if match else "got " + got.render()))
    for entry in golden["descendants"]:
        polygon = parse_polygon(entry["polygon"])
        got = inv.refined_descendant(polygon, entry["s"])
        match = got.to_json() == entry["value"]
        ok &= match
        report.append("%s G(0;%d): %s" % (entry["polygon"], entry["s"],
                                          "ok" if match else "got " + got.render()))
    # Table of per-class S-multiplicities for the cubic
    table = golden["cubic_table"]
    rows = inv.marked_class_table(
        parse_polygon(table["polygon"]), [parse_pairing(p) for p in table["pairings"]])
    got = sorted([r["mult"].render()] + [m.render() for m in r["mu"]] for r in rows)
    match = got == sorted(table["rows"])
    ok &= match
    report.append("cubic marked-class table: %s" % ("ok" if match else "mismatch"))
    return ok


def _suite_identities(report: List[str]) -> bool:
    from .laurent import divide_exact, poly_geq, quantum_integer

    ok = True
    K = 12
    for k in range(1, K + 1):
        for l in range(0, K + 1):
            lhs = quantum_integer(k) * quantum_integer(k + l)
            rhs = LaurentPoly.zero()
            for c in range(k):
                rhs = rhs + quantum_integer(2 * k + l - 1 - 2 * c)
            ok &= lhs == rhs
    report.append("product expansion [k][k+l]: %s" % ("ok" if ok else "FAIL"))
    good = True
    for k in range(1, K + 1):
        got = divide_exact(quantum_integer(2 * k), quantum_integer(2))
        good &= got == quantum_integer(k).substitute_q_squared()
    ok &= good
    report.append("[2k]/[2] = [k](q^2): %s" % ("ok" if good else "FAIL"))
    good = True
    for k in range(1, K + 1):
        for l in range(1, K + 1):
            lhs = quantum_integer(k) * quantum_integer(k + l - 1)
            rhs = quantum_integer(l)
            if k > 1:
                rhs = rhs + quantum_integer(k - 1) * quantum_integer(k + l)
            good &= lhs == rhs
    ok &= good
    report.append("[k][k+l-1] = [k-1][k+l] + [l] (corrected): %s" % ("ok" if good else "FAIL"))
    good = True
    for k in range(1, K + 1):
        for l in range(1, K + 1):
            sq = (quantum_integer(k) * quantum_integer(k)
                  * quantum_integer(l) * quantum_integer(l))
            num = quantum_integer(k) * quantum_integer(l) * quantum_integer(k + l)
            good &= poly_geq(sq, divide_exact(num, quantum_integer(2)))
    ok &= good
    report.append("[k]^2[l]^2 >= [k][l][k+l]/[2]: %s" % ("ok" if good else "FAIL"))
    return ok


def _suite_monotonicity(report: List[str]) -> bool:
    ok = True
    for literal in paper_examples()["monotonicity"]:
        polygon = parse_polygon(literal)
        stats = lattice_stats(polygon)
        for i in range(stats.interior + 1):
            r = inv.verify_monotonicity(polygon, i)
            ok &= r.passed
            report.append(r.line() + " " + "; ".join(r.details))
    return ok


def _suite_recursion(report: List[str]) -> bool:
    ok = True
    for entry in paper_examples()["recursion"]:
        polygon = parse_polygon(entry["polygon"])
        for s in range(entry["s_max"] + 1):
            r = inv.verify_recursion(polygon, s)
            ok &= r.passed
            report.append(r.line())
    return ok


def _suite_bijection(report: List[str]) -> bool:
    golden = paper_examples()
    ok = True
    for entry in golden["bijection"]:
        r = verify_bijection(**entry)
        ok &= r.passed
        report.append(r.line() + " " + "; ".join(r.details))
    figure = golden["template_census"]
    census = template_census(figure["max_genus"], figure["max_codeg"])
    expected = {(c["genus"], c["codegree"]): c["templates"] for c in figure["counts"]}
    match = census == expected
    ok &= match
    report.append("template census vs figure: %s" % ("ok" if match else "FAIL %r" % census))
    return ok


def _suite_theorem_1_7(report: List[str]) -> bool:
    ok = True
    for entry in paper_examples()["theorem_1_7"]:
        polygon = parse_polygon(entry["polygon"])
        i = entry["i"]
        seq = [
            inv.descendant_codegree_coeff(polygon, s, i)
            for s in range(lattice_stats(polygon).s_max + 1)
        ]
        deriv = polyfit.discrete_derivative(seq, i)
        good = all(v == entry["derivative"] for v in deriv)
        ok &= good
        report.append(
            "%s i=%d derivative %s: %s"
            % (entry["polygon"], i, deriv, "ok" if good else "FAIL")
        )
    return ok


SUITES = {
    "paper-examples": _suite_paper_examples,
    "identities": _suite_identities,
    "monotonicity": _suite_monotonicity,
    "recursion": _suite_recursion,
    "bijection": _suite_bijection,
    "theorem-1-7": _suite_theorem_1_7,
}


def cmd_verify(args) -> int:
    names = list(SUITES) if args.suite == "all" else [args.suite]
    all_ok = True
    for name in names:
        report: List[str] = []
        ok = SUITES[name](report)
        all_ok &= ok
        print("%s suite %s" % ("PASS" if ok else "FAIL", name))
        for line in report:
            print("  " + line)
    return 0 if all_ok else VERIFY_ERROR


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="floordiag",
        description="Tropical refined invariants of h-transverse polygons "
        "via floor diagrams.  Results are cached under "
        "$FLOORDIAG_CACHE_DIR (default ~/.cache/floordiag; set empty to disable).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("invariant", help="compute G_Delta(g)")
    p.add_argument("--polygon", required=True, help="abn:a,b,n or ht:dl=[..];dr=[..];db=N;dt=M")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_invariant)

    p = sub.add_parser("descendant", help="compute G_Delta(0;s)")
    p.add_argument("--polygon", required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--pairing", help="pairs:1-2,3-4 (defaults to the consecutive pairing)")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_descendant)

    p = sub.add_parser("coeffs", help="closed-form codegree coefficients on a grid")
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--grid", required=True, help="a=2..5,b=2..4,n=0..2,s=0..2")
    p.add_argument("--check", action="store_true", help="also tabulate the enumeration oracle")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_coeffs)

    p = sub.add_parser("fit", help="exact polynomial fit of a coefficient over a grid")
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--genus", type=int, default=0)
    p.add_argument("--grid", required=True,
                   help="a=4..8,b=2..5,n=1..4 or any distinct values, e.g. a=4|6|8|10|12")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("templates", help="enumerate the template census")
    p.add_argument("--max-genus", type=int, required=True)
    p.add_argument("--max-codeg", type=int, required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_templates)

    p = sub.add_parser("capping", help="enumerate capping trees")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--max-codeg", type=int, required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_capping)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("--suite", choices=tuple(SUITES) + ("all",), required=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("cache", help="result cache management")
    p.add_argument("action", choices=("dir", "info", "clear"))
    p.set_defaults(func=cmd_cache)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except EngineError as exc:
        print("engine fault: %s" % exc, file=sys.stderr)
        return ENGINE_FAULT
    except (ValueError, KeyError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
