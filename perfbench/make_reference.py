"""Regenerate perfbench/reference.json, the stored exact output of every call.

    python3 perfbench/make_reference.py

Run it only on a commit whose outputs are trusted: the benchmark compares
every later run against these values.  Values that an independent oracle
also fixes are cross-checked here before they are stored, and each entry
names its oracle.  Seeded inputs need no stored value: non-consecutive
pairings are checked against the golden value (pairing independence) and
grid points against the closed form.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import run
import workloads as W

SEED_OUTPUT = "stored seed output"
GOLDEN = "golden paper_examples.json"


def commit() -> str:
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=run.ROOT,
                          capture_output=True, text=True, check=False)
    return proc.stdout.strip() or "unknown"


def main() -> int:
    os.environ[W.CACHE_ENV] = ""
    fd = run.load_floordiag()
    parse = fd.polygon.parse_polygon
    golden = json.loads((run.SRC / "floordiag" / "golden" / "paper_examples.json").read_text())
    golden_desc = {(e["polygon"], e["s"]): e["value"] for e in golden["descendants"]}
    refs = {"commit": commit()}

    inv = refs["invariant_classes"] = {}
    for literal, g in W.INVARIANT_CASES:
        value = fd.invariant.refined_invariant(parse(literal), g)
        inv[W._poly_label("G", literal, "g=%d" % g)] = {
            "value": value.to_json(), "oracle": SEED_OUTPUT}

    desc = refs["descendants"] = {}
    for literal, s in W.DESCENDANT_CASES:
        value = fd.invariant.refined_descendant(parse(literal), s)
        desc[W._poly_label("G0s", literal, "s=%d" % s)] = {
            "value": value.to_json(), "oracle": SEED_OUTPUT}
    for s in W.PAIRING_PICKS:
        desc[W._poly_label("G0s", W.PAIRING_POLYGON, "s=%d" % s)] = {
            "value": golden_desc[(W.PAIRING_POLYGON, s)],
            "oracle": GOLDEN + " (pairing independence)"}

    grid = refs["codegree_grid"] = {}
    wl = W.codegree_grid(fd, {"fit coef_1 genus 1": {"value": None, "oracle": ""},
                              "coef_2 abn:8,3,2 g=2": {"value": None, "oracle": ""}},
                         W.random.Random(0))
    calls = {c.label: c for c in wl.calls}
    report = calls["fit coef_1 genus 1"].run()
    if not report.passed:
        raise SystemExit("the genus-1 fit is not exact: %s" % report.details)
    grid["fit coef_1 genus 1"] = {
        "value": report.polynomial.to_json(),
        "oracle": SEED_OUTPUT + " (exact fit with a held-out point)"}
    literal, genus, i = W.SHAPE_CASE
    label = "coef_%d %s g=%d" % (i, literal, genus)
    grid[label] = {"value": calls[label].run(), "oracle": SEED_OUTPUT}

    cli = refs["cli_session"] = {}
    cache = run.OUT / "reference-cache"
    shutil.rmtree(cache, ignore_errors=True)
    cache.mkdir(parents=True)
    os.environ[W.CACHE_ENV] = str(cache)
    try:
        for argv in W.CLI_REQUESTS:
            code, stdout = W.run_cli(fd, argv)
            again = W.run_cli(fd, argv)
            if code != 0 or again != (code, stdout):
                raise SystemExit("%s: exit %d, or the cached rerun differs" % (argv, code))
            oracle = SEED_OUTPUT
            if argv[0] == "descendant" and argv[2] == W.PAIRING_POLYGON:
                want = fd.laurent.LaurentPoly.from_json(
                    golden_desc[(W.PAIRING_POLYGON, int(argv[4]))]).render() + "\n"
                if stdout != want:
                    raise SystemExit("%s disagrees with the golden file" % argv)
                oracle = GOLDEN
            cli[" ".join(argv)] = {"stdout": stdout, "oracle": oracle}
    finally:
        shutil.rmtree(cache, ignore_errors=True)

    out = run.HERE / "reference.json"
    out.write_text(json.dumps(refs, indent=1) + "\n")
    print("wrote %s at commit %s" % (out, refs["commit"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
