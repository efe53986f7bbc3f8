"""Run every benchmark workload over one or more seeds and print the metrics.

    python3 perfbench/sweep.py                                 # seed 0, every workload
    python3 perfbench/sweep.py --seeds 10 --first-seed 1       # with spreads
    python3 perfbench/sweep.py --workload descendants --seeds 5 --trace 1
    python3 perfbench/sweep.py --seeds 10 --save perfbench/.out/sweep.json

Each run is `perfbench/run.py` in its own process, one at a time.  For every
workload it prints each run's unscaled times and host-speed factor, the fail
ratio and each metric's median with its unit.  With two or more seeds it adds the spread: the distance between the first
and third quartiles (statistics.quantiles, n=4) as a share of the median,
flagged when an end-to-end metric other than setup_s exceeds a third of its
bound from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit("%s seed %d exited %d:\n%s" % (workload, seed, proc.returncode,
                                                        proc.stderr))
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    for line in lines:
        if line.lstrip().startswith("unscaled:"):
            result["unscaled"] = line.strip()
            print("  seed %d %s" % (seed, result["unscaled"]), flush=True)
    return result


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append",
                        help="repeatable; default: every workload")
    parser.add_argument("--seeds", type=int, default=1)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", type=Path, help="write every run's result here as JSON")
    args = parser.parse_args()
    names = args.workload or [w["name"] for w in spec["workloads"]]
    seeds = range(args.first_seed, args.first_seed + args.seeds)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    results = {}
    ok = True
    for name in names:
        runs = [run_once(name, seed, args.seconds, args.trace) for seed in seeds]
        results[name] = runs
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        ok &= all(r["correct"] for r in runs)
        print("%s: %d runs, correct=%s, fail_ratio %.6g (%d of %d calls)" % (
            name, len(runs), all(r["correct"] for r in runs), failed / attempted,
            failed, attempted), flush=True)
        for metric, m in runs[0]["metrics"].items():
            values = [r["metrics"][metric]["value"] for r in runs]
            line = "  %-28s median %14.6g %-5s" % (metric, statistics.median(values), m["unit"])
            if len(values) >= 2:
                sp = spread(values)
                line += " spread %6.3f" % sp
                if metric in bounds and metric != "setup_s" and sp > bounds[metric] / 3:
                    line += "  > bound/3 (%.2f)" % bounds[metric]
            print(line, flush=True)
    if args.save:
        args.save.write_text(json.dumps(results, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
