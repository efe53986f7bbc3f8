"""Benchmark of the floordiag engine: one workload, one seed, one run.

    python3 perfbench/run.py --workload invariant_classes --seed 0 --seconds 30 --trace 0

(perfbench/sweep.py runs every workload over several seeds.)

The run imports floordiag from `src/` of the checkout it sits in, builds the
workload's inputs from the seed, then repeats passes over the workload's
calls while another pass still fits in `--seconds`.  Every result is checked
exactly against its reference after the pass, outside the timed region.

With `--trace 0` it reports the end-to-end metrics of BENCHMARK.json: the
median pass wall and CPU time and the median set-up time, each rescaled to
the reference speed of the host (hostspeed.py), and the peak resident set.
With `--trace 1` it runs one untraced pass, then traced passes, and reports
the per-layer metrics (see spans.py); work counts must repeat exactly
between the traced passes and between traced runs of one seed.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / ".out"
MODULES = ("polygon", "laurent", "diagram", "marking", "invariant", "coeff",
           "polyfit", "templates", "cli")
SETUP_REPEATS = 15
SETUP_BURST_S = 0.05
DEFAULT_SEED = 0

sys.path.insert(0, str(HERE))
import hostspeed  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def load_floordiag() -> SimpleNamespace:
    """Import floordiag afresh from the checkout's src/ (never an installed copy)."""
    for name in [m for m in sys.modules if m == "floordiag" or m.startswith("floordiag.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    package = importlib.import_module("floordiag")
    if Path(package.__file__).resolve().parent != SRC / "floordiag":
        raise ImportError("floordiag was imported from %s, not %s" % (package.__file__, SRC))
    return SimpleNamespace(**{m: importlib.import_module("floordiag." + m) for m in MODULES})


def source_digest() -> str:
    """Digest of the engine's sources and of the workload definitions."""
    h = hashlib.sha256()
    paths = [p for p in sorted((SRC / "floordiag").rglob("*"))
             if p.is_file() and "__pycache__" not in p.parts]
    for path in paths + [HERE / "workloads.py"]:
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def cpu_seconds() -> float:
    """User + system CPU of this process and its reaped children."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


@dataclass
class Pass:
    wall_s: float
    cpu_s: float
    elapsed_s: float  # the whole pass, checks, kernel bursts and cache handling included
    cache_bytes: int
    wall_scale: float  # hostspeed factors of the pass; 1.0 when it ran no kernel bursts
    cpu_scale: float
    failures: List[str] = field(default_factory=list)
    layers: Dict[str, float] = field(default_factory=dict)
    split: Dict[str, float] = field(default_factory=dict)


def run_pass(wl: workloads.Workload, tracer: spans.Tracer = None, first_id: int = 0,
             meter: hostspeed.Meter = None) -> Pass:
    """One pass over the calls; wall and CPU time sum the calls alone.

    With a meter, a burst of the host-speed kernel follows every call.
    """
    started = perf_counter()
    wl.begin_pass()
    gc.collect()
    if tracer is not None:
        tracer.reset()
    results = []
    wall = cpu = 0.0
    for k, call in enumerate(wl.calls):
        if tracer is not None:
            tracer.trace_id = first_id + k
        cpu0, t0 = cpu_seconds(), perf_counter()
        try:
            results.append((True, call.run()))
        except Exception as exc:  # a failed call counts, and the run goes on
            results.append((False, "".join(traceback.format_exception_only(exc)).strip()))
        dt = perf_counter() - t0
        cpu += cpu_seconds() - cpu0
        wall += dt
        if meter is not None:
            meter.burst(hostspeed.SHARE * dt)
    cache_bytes = wl.end_pass()
    failures = []
    for call, (ok, value) in zip(wl.calls, results):
        try:
            reason = call.check(value) if ok else "raised " + value
        except Exception as exc:  # a result of the wrong shape is a failed call
            reason = "check raised %r" % exc
        if reason is not None:
            failures.append("%s: %s" % (call.label, reason))
    scales = (meter.wall_scale(), meter.cpu_scale()) if meter is not None else (1.0, 1.0)
    p = Pass(wall, cpu, perf_counter() - started, cache_bytes, *scales, failures)
    if tracer is not None:
        p.layers = spans.layer_metrics(tracer, wall, cache_bytes)
        p.split = spans.layer_split(tracer, wall)
    return p


def repeat_passes(wl, seconds: float, tracer=None, first_id: int = 0,
                  metered: bool = False) -> List[Pass]:
    """Passes while the longest one so far still fits in `seconds`; at least one.

    Metered passes each get a fresh hostspeed meter, so every pass is scaled
    by the host's speed while it ran.
    """
    passes: List[Pass] = []
    start = perf_counter()
    while True:
        meter = hostspeed.Meter() if metered else None
        passes.append(run_pass(wl, tracer, first_id + len(passes) * len(wl.calls), meter))
        longest = max(p.elapsed_s for p in passes)
        if perf_counter() - start + longest > seconds:
            return passes


@dataclass
class Context:
    fd: SimpleNamespace
    wl: workloads.Workload
    cache_parent: Path


def set_up(name: str, seed: int) -> Context:
    """Import floordiag, read the references and build the workload's inputs."""
    cache_parent = OUT / ("run-%d" % os.getpid())
    shutil.rmtree(cache_parent, ignore_errors=True)
    cache_parent.mkdir(parents=True)
    os.environ[workloads.CACHE_ENV] = ""
    fd = load_floordiag()
    refs = json.loads((HERE / "reference.json").read_text())
    wl = workloads.build(name, fd, refs, seed, cache_parent)
    return Context(fd, wl, cache_parent)


def check_isolation(ctx: Context, passes: List[Pass], traced: bool) -> List[str]:
    """Library workloads run with the cache off: no hit may fake a gain."""
    if ctx.wl.cache_parent is not None:
        return []
    problems = []
    if ctx.fd.invariant.cache_dir() is not None:
        problems.append("the engine cache is not disabled")
    if traced and any(p.layers.get("invariant.cache_hits") for p in passes):
        problems.append("cache hits in a workload that runs with the cache off")
    return problems


def check_work_counts(name: str, seed: int, passes: List[Pass]) -> List[str]:
    """Work counts repeat exactly between passes and traced runs of one seed."""
    counts = [{k: p.layers[k] for k in spans.WORK_COUNTS} for p in passes]
    problems = ["work counts differ between traced passes: %s" % sorted(
        k for k in counts[0] if counts[0][k] != c[k]) for c in counts[1:] if c != counts[0]]
    record = OUT / ("counts-%s-seed%d-%s.json" % (name, seed, source_digest()))
    if record.exists():
        before = json.loads(record.read_text())
        if before != counts[0]:
            problems.append("work counts differ from an earlier traced run (%s): %s" % (
                record.name, sorted(k for k in before if before[k] != counts[0].get(k))))
    else:
        record.write_text(json.dumps(counts[0], indent=1, sort_keys=True))
    return problems


def end_to_end(passes: List[Pass], setups: List[float], setup_scale: float) -> Dict[str, float]:
    """Medians of times scaled to the reference host speed, and the raw medians."""
    return {
        "scaled_wall_s": statistics.median(p.wall_s * p.wall_scale for p in passes),
        "scaled_cpu_s": statistics.median(p.cpu_s * p.cpu_scale for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(setups) * setup_scale,
        "wall_s": statistics.median(p.wall_s for p in passes),
        "cpu_s": statistics.median(p.cpu_s for p in passes),
        "raw_setup_s": statistics.median(setups),
        "wall_scale": statistics.median(p.wall_scale for p in passes),
        "cpu_scale": statistics.median(p.cpu_scale for p in passes),
    }


def per_layer(untraced: Pass, passes: List[Pass]) -> Dict[str, float]:
    """Times are medians over the traced passes; counts come from the first."""
    out = dict(passes[0].layers)
    for key in out:
        if key.endswith(("_s", ".s")):
            out[key] = statistics.median(p.layers[key] for p in passes)
    out["trace.untraced_wall_s"] = untraced.wall_s
    out["trace.overhead_s"] = out["trace.wall_s"] - untraced.wall_s
    return out


def run_one(args, spec: Dict) -> int:
    OUT.mkdir(parents=True, exist_ok=True)
    setups = []
    setup_meter = hostspeed.Meter()
    ctx = None
    try:
        for _ in range(SETUP_REPEATS):
            if ctx is not None:
                shutil.rmtree(ctx.cache_parent, ignore_errors=True)
            t0 = perf_counter()
            ctx = set_up(args.workload, args.seed)
            setups.append(perf_counter() - t0)
            setup_meter.burst(SETUP_BURST_S)
        problems: List[str] = []
        if not args.trace:
            passes = repeat_passes(ctx.wl, args.seconds, metered=True)
            values = end_to_end(passes, setups, setup_meter.wall_scale())
            declared = spec["end_to_end"]
        else:
            start = perf_counter()
            untraced = run_pass(ctx.wl)
            tracer = spans.Tracer()
            spans.install(tracer, ctx.fd)
            try:
                passes = repeat_passes(ctx.wl, args.seconds - (perf_counter() - start),
                                       tracer, first_id=len(ctx.wl.calls))
            finally:
                tracer.uninstall()
            problems += check_work_counts(args.workload, args.seed, passes)
            values = per_layer(untraced, passes)
            declared = spec["per_layer"]
            stem = "%s-seed%d" % (args.workload, args.seed)
            tracer.write_spans(OUT / ("trace-%s.json.gz" % stem))
            (OUT / ("layers-%s.json" % stem)).write_text(json.dumps(
                {"layers": values, "split": passes[0].split,
                 "passes": [p.layers for p in passes]}, indent=1, sort_keys=True))
            split = passes[0].split
            passes = [untraced] + passes
        problems += check_isolation(ctx, passes, bool(args.trace))
    finally:
        if ctx is not None:
            shutil.rmtree(ctx.cache_parent, ignore_errors=True)

    attempted = len(ctx.wl.calls) * len(passes)
    failures = [f for p in passes for f in p.failures]
    for line in failures + problems:
        print("FAIL " + line, file=sys.stderr)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    print("workload %s  seed %d  passes %d  calls/pass %d  fail_ratio %.6g"
          % (args.workload, args.seed, len(passes), len(ctx.wl.calls),
             len(failures) / attempted))
    print("  pass wall times: %s s" % " ".join("%.3f" % p.wall_s for p in passes))
    for name, m in metrics.items():
        print("  %-28s %14.6g %s" % (name, m["value"], m["unit"]))
    if not args.trace:
        print("  unscaled: wall_s %.6g s, cpu_s %.6g s, setup_s %.6g s;"
              " host scale wall %.4g cpu %.4g" % (values["wall_s"], values["cpu_s"],
                                                  values["raw_setup_s"], values["wall_scale"],
                                                  values["cpu_scale"]))
    if args.trace:
        print("  layer split of the first traced pass (share of its wall time):")
        for layer, share in split.items():
            print("    %-10s %6.1f%%" % (layer, 100 * share))
    print(json.dumps({
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        return run_one(args, spec)
    except ImportError as exc:
        print("cannot import floordiag from %s: %s" % (SRC, exc), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
