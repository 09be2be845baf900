#!/usr/bin/env python3
"""Benchmark of the gbsgraphs package, run from the root of a source checkout.

    python3 perfbench/run.py --workload {paper_run,theory_sweep,cli_jobs} \
        --seed N --seconds S --trace {0,1} [--shots N] [--smoke]

The package is imported from ``src/`` of the checkout and nothing under
``src/`` is changed.  One process, one client, closed loop: each op waits for
the previous one, on one thread (numpy's BLAS is held to one).  A pass runs
every op of the workload once; a run makes one untimed pass at smoke size to
warm up, then two timed passes, and more while the next one is expected to
end within ``--seconds``.

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` makes one
untraced and one traced pass; the traced pass wraps every public function of
gbsgraphs in a span (see tracer.py), and its spans are written to
``perfbench/out/`` when the run ends.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before it
print every metric with its unit, the environment and an output digest.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter

#: Native thread pools of numpy's BLAS and of OpenMP get one thread, set
#: before numpy is imported here or in a set-up interpreter (which inherits
#: the environment).  Otherwise OpenBLAS starts a worker per core whose
#: spinning doubles the CPU time of theory_sweep without shortening it, and
#: ties its timing to the load on the host's other core.
BLAS_THREADS = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                        "MKL_NUM_THREADS")}
os.environ.update(BLAS_THREADS)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: Set-ups timed before the first pass, and after each pass; setup_s is the
#: median of them all, at least SETUPS_FIRST + MIN_PASSES * SETUPS_PER_GAP = 4
#: per run.  Spread over the run, they sample the host's speed where the
#: passes do.
SETUPS_FIRST = 2
SETUPS_PER_GAP = 1

#: Ops that must lie beyond the op_tail_ms percentile in one pass.
TAIL_BEYOND = 10

#: Passes every run makes, even when they take longer than --seconds.  The
#: second pass shows the steady state and is compared with the first.
MIN_PASSES = 2

_SETUP_CODE = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import gbsgraphs
from gbsgraphs.embedding import enumerate_embeddable
count = len(enumerate_embeddable())
print(time.perf_counter() - start, count, gbsgraphs.__file__)
"""


def time_setup() -> float:
    """Import gbsgraphs and enumerate the 75 specs in a fresh interpreter."""
    done = subprocess.run([sys.executable, "-c", _SETUP_CODE, str(SRC)],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        raise SystemExit(f"set-up failed:\n{done.stderr}")
    seconds, count, origin = done.stdout.split()
    if int(count) != 75 or not Path(origin).resolve().is_relative_to(SRC):
        raise SystemExit(f"set-up found {count} graphs in {origin}")
    return float(seconds)


@dataclass
class Context:
    seed: int
    smoke: bool
    shots: int | None
    work: Path
    specs: list
    classes: dict


def tail(latencies: list[float]) -> tuple[float, float]:
    """(latency, percentile) of the op with TAIL_BEYOND ops beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    index = n - TAIL_BEYOND - 1 if n > TAIL_BEYOND else n - 1
    return ordered[index], 100.0 * (index + 1) / n


def run_pass(workload, tracer=None):
    from workloads import Pass

    p = Pass(tracer)
    # Every pass starts from a collected heap: the cyclic garbage of earlier
    # passes is gone, so peak_rss_mb counts one pass's data, and the
    # collector runs at the same points of every pass.
    gc.collect()
    if tracer is not None:
        tracer.install()
    start = perf_counter()
    try:
        workload.run_pass(p)
    finally:
        p.wall = perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
    workload.digest(p)
    return p


def check_first(workload, p) -> None:
    """Check the first pass's outputs before they are dropped.

    The failures join the pass's own; a check that cannot run counts as
    failed.  Only paper_run has a loss_match_err; it is 0 elsewhere.
    """
    try:
        p.failures += workload.check(p)
    except Exception as exc:
        p.failures.append(f"check: {exc!r}")
    if hasattr(workload, "loss_match_err"):
        p.loss_match_err = workload.loss_match_err(p)


def warm_up(workload_class, ctx) -> None:
    """One untimed pass of the workload at smoke size, in its own directory.

    It pays the first-call costs (lazy imports, click, first numpy paths)
    before the first timed pass, so that pass times the steady state.
    """
    from workloads import Pass

    tiny = replace(ctx, smoke=True, shots=None,
                   work=ctx.work.with_name(ctx.work.name + "-warm-up"))
    try:
        workload_class(tiny).run_pass(Pass())
    finally:
        shutil.rmtree(tiny.work, ignore_errors=True)


def measure(workload, seconds: float, trace: bool, between):
    """MIN_PASSES passes, then more while the next should end within ``seconds``.

    With tracing, plain and traced passes alternate, starting with a plain
    one; every traced pass records into the one returned tracer.  The first
    pass is checked right after it, and ``between`` runs after every pass;
    both lie outside the timing.  Only one pass's outputs are held at a time.
    """
    from tracer import Tracer

    tracer = Tracer() if trace else None
    passes = []
    start = perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        passes.append(run_pass(workload, tracer if traced else None))
        if len(passes) == 1:
            check_first(workload, passes[0])
        passes[-1].results = {}
        between()
        typical = statistics.median(p.wall for p in passes)
        if perf_counter() - start + typical > seconds and (
                len(passes) >= MIN_PASSES and (not trace or len(passes) % 2 == 0)):
            return passes, tracer


def environment(args, workload, passes) -> dict:
    import gbsgraphs
    import numpy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke,
        "nproc": os.cpu_count(), "cpu": cpu, "machine": platform.machine(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "blas_threads": BLAS_THREADS,
        "gbsgraphs": gbsgraphs.__version__,
        "passes": len(passes), "ops_per_pass": len(passes[0].latencies),
        "op_tail_percentile": round(tail(passes[0].latencies)[1], 2),
        "setting": workload.setting(),
        "why": next(w["why"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())
                    ["workloads"] if w["name"] == workload.name),
        "loads": workload.loads, "bypasses": workload.bypasses,
    }


#: Per-layer metrics summed by the tracer, as "<layer>.<key>": unit.
LAYER_TOTALS = {
    "engine.write_samples.self_s": "s", "engine.write_samples.bytes": "bytes",
    "engine.ingest_samples.self_s": "s", "engine.ingest_samples.bytes": "bytes",
    "engine.ingest_samples.fail": "count",
    "engine.build_table.calls": "count", "engine.build_table.self_s": "s",
    "engine.build_table.entries": "count",
    "engine.sample.self_s": "s", "engine.sample.shots": "count",
    "engine.apply_loss.self_s": "s", "engine.min_cutoff_for_mass.calls": "count",
    "engine.other.self_s": "s",
    "features.fv_analytic.calls": "count", "features.fv_analytic.self_s": "s",
    "features.match_loss.self_s": "s", "features.relative_deviation.self_s": "s",
    "features.fv_sampled.self_s": "s", "features.other.self_s": "s",
    "embedding.calls": "count", "embedding.self_s": "s",
    "catalog.calls": "count", "catalog.self_s": "s",
    "graphs.calls": "count", "graphs.self_s": "s",
    "figures.self_s": "s", "svg.render.self_s": "s", "svg.render.bytes": "bytes",
    "cli.calls": "count", "cli.self_s": "s",
}


def layer_metrics(tracer, passes, failed, attempted) -> dict:
    """Per-layer values of one traced pass (the mean when there are several)."""
    traced = [p for p in passes if p.tracer is not None]
    plain = [p for p in passes if p.tracer is None]

    def get(layer, key):
        return tracer.layers.get(layer, {}).get(key, 0) / len(traced)

    values = {}
    for name, unit in LAYER_TOTALS.items():
        layer, key = name.rsplit(".", 1)
        values[name] = (get(layer, key), unit)
    values["cli.cmds"] = values.pop("cli.calls")
    builds = get("engine.build_table", "calls")
    values["engine.build_table.repeat_ratio"] = (
        get("engine.build_table", "repeats") / builds if builds else 0.0, "ratio")
    values["cli.exit_unexpected"] = (
        statistics.mean(p.unexpected_exits for p in traced), "count")
    values["trace.spans"] = (len(tracer.spans) / len(traced), "count")
    values["trace.overhead_s"] = (statistics.median(p.wall for p in traced)
                                  - statistics.median(p.wall for p in plain), "s")
    values["error_rate"] = (
        (failed + sum(p.unexpected_exits for p in passes)) / attempted, "ratio")
    values["loss_match_err"] = (passes[0].loss_match_err, "loss_factor")
    return values


def parse_args(argv=None):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--shots", type=int, default=None,
                        help="paper_run shots per graph (the paper uses 100000)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs: a handful of graphs and commands")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    if not (SRC / "gbsgraphs" / "__init__.py").is_file():
        print(f"error: no gbsgraphs sources under {SRC}", file=sys.stderr)
        return 2
    # gbsgraphs, and the workloads that use it, come from this checkout's
    # src/; they are imported only once it is on the path.
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(HERE))
    args = parse_args(argv)

    import gbsgraphs
    from gbsgraphs import embedding, graphs
    from workloads import REFERENCE_CLASS_COUNTS, WORKLOADS

    if not Path(gbsgraphs.__file__).resolve().is_relative_to(SRC):
        print(f"error: gbsgraphs imported from {gbsgraphs.__file__}", file=sys.stderr)
        return 2
    specs = embedding.enumerate_embeddable()
    setups = [time_setup() for _ in range(1 if args.smoke else SETUPS_FIRST)]

    def set_up():
        setups.extend(time_setup() for _ in range(SETUPS_PER_GAP))

    classes = {code: graphs.classify(graphs.adjacency_for(code)) for code, _ in specs}

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / "work" / tag
    ctx = Context(seed=args.seed, smoke=args.smoke, shots=args.shots,
                  work=work, specs=specs, classes=classes)
    workload = WORKLOADS[args.workload](ctx)
    warm_up(WORKLOADS[args.workload], ctx)
    passes, tracer = measure(workload, args.seconds, bool(args.trace),
                             between=set_up)

    # Outside the timed region: the determinism check.  The output checks of
    # the first pass ran right after it, and their failures are the pass's.
    failures = [f for p in passes for f in p.failures]
    if len(specs) != 75 or Counter(classes.values()) != REFERENCE_CLASS_COUNTS:
        failures.append(f"enumerate_embeddable: class counts {Counter(classes.values())}")
    for i, p in enumerate(passes[1:], start=2):
        for key, value in passes[0].digests.items():
            if p.digests.get(key) != value:
                failures.append(f"pass {i}: output {key} differs from pass 1")
    attempted = sum(len(p.latencies) for p in passes)
    failed = min(len(failures), attempted)

    if tracer is None:
        latencies = [x for p in passes for x in p.latencies]
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "wall_s": (statistics.median(p.wall for p in passes), "s"),
            "op_p50_ms": (1000.0 * statistics.median(latencies), "ms"),
            "op_tail_ms": (1000.0 * statistics.median(tail(p.latencies)[0] for p in passes),
                           "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "MB"),
        }
    else:
        metrics = layer_metrics(tracer, passes, failed, attempted)
        tracer.write(OUT / "spans" / f"{tag}.jsonl")

    env = environment(args, workload, passes)
    digest = json.dumps(passes[0].digests, sort_keys=True)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    OUT.joinpath("results").mkdir(parents=True, exist_ok=True)
    OUT.joinpath("results", f"{tag}.json").write_text(json.dumps(
        {"env": env, "passes": [{"wall_s": p.wall, "ops": len(p.latencies)} for p in passes],
         "setups_s": setups,
         "failures": failures, **result}, indent=2) + "\n")
    shutil.rmtree(work, ignore_errors=True)

    for failure in failures[:20]:
        print(f"FAILED {failure}")
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:.6g} {unit}")
    print("env " + json.dumps(env, sort_keys=True))
    print("digest " + hashlib.sha256(digest.encode()).hexdigest())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
