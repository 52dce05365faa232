"""navsteer benchmark: one workload, one seed, one run.

Usage (from the repository root):

    python3 perfbench/run.py --workload sweep-pure --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` is a separate run for the per-layer metrics: it runs every
unit of work twice, once untraced and once with span recorders wrapped
around navsteer's public functions, and reports the difference in wall time
as the tracing overhead. Both modes end by checking every output outside
the timed region.

Human-readable report lines come first; the last line of standard output
is one JSON object with the metrics named in BENCHMARK.json.
"""

from __future__ import annotations

import os

# Pin BLAS / OpenMP pools before numpy loads; forked pool workers inherit
# both the environment and the already-initialized single-thread pools.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

END_TO_END = ("setup_s", "runs_per_s", "peak_rss_mb")
PER_LAYER = ("surfer.stationary_s", "surfer.transition_s", "surfer.iterations",
             "surfer.edge_updates_per_s", "surfer.bytes_per_iter_computed",
             "modify.insert_s", "experiment.run_single_s", "experiment.run_self_s",
             "targets.sample_s", "metrics.target_metrics_s", "synth.graph_s",
             "trace.overhead_s")
UNITS = {"setup_s": "s", "runs_per_s": "1/s", "peak_rss_mb": "MB",
         "surfer.iterations": "count", "surfer.edge_updates_per_s": "1/s",
         "surfer.bytes_per_iter_computed": "B", "modify.combine_biased_links": "count",
         "graph.load_edges_per_s": "1/s", "graph.write_edges_per_s": "1/s",
         "experiment.worker_busy_frac": "ratio"}
SCOPE = ("every working set fits in this machine's last-level cache; graphs large "
         "enough to be memory-bandwidth bound do not fit a 2-core, 7 GB machine, "
         "so that case is out of scope")


def import_navsteer():
    """Import navsteer from this checkout's src/, never from elsewhere."""
    if not (SRC / "navsteer" / "__init__.py").is_file():
        raise SystemExit(f"error: no navsteer sources under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import navsteer
    if Path(navsteer.__file__).resolve().parent != SRC / "navsteer":
        raise SystemExit(f"error: imported navsteer from {navsteer.__file__}")
    import navsteer.cli  # noqa: F401  (registers the submodule attributes)
    return navsteer


def environment(navsteer) -> dict:
    import numpy
    import scipy
    l3 = Path("/sys/devices/system/cpu/cpu0/cache/index3/size")
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "navsteer": navsteer.__version__,
            "l3_cache": l3.read_text().strip() if l3.is_file() else "unknown",
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


def rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def closed_loop(workload, seconds: float, workers: int, set_up) -> tuple[list, float]:
    """Run whole units until they add up to ``seconds``; set up after each."""
    units, elapsed = [], 0.0
    while elapsed < seconds:
        units.append(workload.run_unit(len(units), workers))
        elapsed += units[-1].wall
        set_up()
    return units, elapsed


def paired_loop(workload, seconds: float, set_up, tracer, navsteer,
                spans) -> tuple[list, list]:
    """Run each unit untraced and again traced, until ``seconds`` pass.

    Pairing the two passes unit by unit keeps slow drift in machine speed
    out of the tracing overhead, and swapping which pass goes first on every
    other unit keeps the second pass's warm caches out of it. One worker, so
    every span is recorded here.
    """
    plain, traced = [], []
    while sum(u.wall for u in plain + traced) < seconds:
        i = len(plain)
        for traced_pass in (i % 2 == 1, i % 2 == 0):
            if not traced_pass:
                plain.append(workload.run_unit(i, 1))
                continue
            spans.install(tracer, navsteer)
            try:
                traced.append(workload.run_unit(i, 1, tracer))
            finally:
                tracer.unpatch()
        set_up()
    return plain, traced


def fmt(value) -> str:
    if value is None:
        return "n/a on this workload"
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("sweep-pure", "sweep-combined", "site-io"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="'tiny' is the smoke setting of the benchmark's tests")
    args = ap.parse_args(argv)

    navsteer = import_navsteer()
    import spans
    import workloads

    # Set-up does not print; the CLI's "not strongly connected" notice on
    # every site-io command would only drown the report.
    import logging
    logging.getLogger("navsteer").setLevel(logging.ERROR)

    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        return run(args, navsteer, spans, workloads, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, navsteer, spans, workloads, workdir: Path) -> int:
    wl = workloads.make(args.workload, args.size, args.seed, workdir)
    tracer = spans.Tracer() if args.trace else None

    setup_times = []

    def set_up() -> None:
        for _ in range(wl.setup_reps):
            if tracer:
                tracer.patch(navsteer.synth, "scale_free_graph", "synth.graph")
            t0 = time.perf_counter()
            wl.setup()
            setup_times.append(time.perf_counter() - t0)
            if tracer:
                tracer.unpatch()

    # Set up before the timed loop and again after every unit, so the median
    # set-up time spans the same stretch of machine speed as the loop. A
    # repeated set-up rebuilds the same inputs from the same seed, and its
    # time is not counted in the loop's.
    set_up()

    report: dict = {"workload": args.workload, "seed": args.seed,
                    "size": args.size, "trace": args.trace,
                    "environment": environment(navsteer), "graph": wl.describe(),
                    "scope": SCOPE}

    if not args.trace:
        units, elapsed = closed_loop(wl, args.seconds, wl.workers, set_up)
        measured = units
    else:
        plain, measured = paired_loop(wl, args.seconds, set_up, tracer,
                                      navsteer, spans)
        spans.finish_counts(tracer)
        units = plain + measured
        plain_wall = sum(u.wall for u in plain)
        elapsed = sum(u.wall for u in measured)
        report["trace_overhead"] = {"untraced_wall_s": plain_wall,
                                    "traced_wall_s": elapsed,
                                    "overhead_s": elapsed - plain_wall,
                                    "units": len(plain)}

    # Peak memory of set-up and the timed loop, before the checks add their own.
    peak_rss = {"main": rss_mb(resource.RUSAGE_SELF),
                "pool_workers": (rss_mb(resource.RUSAGE_CHILDREN)
                                 if wl.workers > 1 and not args.trace else None)}
    setup_s = statistics.median(setup_times)
    report["setup_s"] = {"median": setup_s, "samples": len(setup_times),
                         "times_s": setup_times}
    attempted = sum(u.ops for u in units)
    failed, problems = wl.check(units)
    ops = sum(u.ops for u in measured)
    unit_s = workloads.typical_unit_s(measured)
    good_share = 1 - failed / attempted
    report.update({
        "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted,
        "problems": problems[:20],
        "runs_per_s": {"value": good_share * ops / (len(measured) * unit_s),
                       "runs": ops, "units": len(measured),
                       "typical_unit_s": unit_s, "wall_s": elapsed,
                       "op_walls_s": [u.op_walls for u in measured],
                       "mean_runs_per_s": good_share * ops / elapsed},
        "peak_rss_mb": peak_rss,
        "workload_summary": wl.summary(measured, 1 if args.trace else wl.workers),
    })

    if args.trace:
        layers = spans.layer_report(tracer, elapsed)
        per_layer = spans.per_layer_metrics(tracer, layers)
        per_layer["trace.overhead_s"] = report["trace_overhead"]["overhead_s"]
        report["per_layer"] = per_layer
        report["layers"] = layers
        metrics = {k: per_layer[k] for k in PER_LAYER}
    else:
        values = {"setup_s": setup_s, "runs_per_s": report["runs_per_s"]["value"],
                  "peak_rss_mb": peak_rss["main"]}
        metrics = {k: values[k] for k in END_TO_END}

    print_report(report)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        (OUT / f"{name}.spans.json").write_text(json.dumps(spans.span_dump(tracer)))
    (OUT / f"{name}.report.json").write_text(json.dumps(report, indent=1))

    correct = failed == 0 and all(v is not None for v in metrics.values())
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": UNITS.get(k, "s")}
                    for k, v in metrics.items()}}))
    return 0


def print_report(r: dict) -> None:
    p = print
    p(f"# navsteer benchmark: workload={r['workload']} seed={r['seed']} "
      f"size={r['size']} trace={r['trace']}")
    p(f"# environment: {json.dumps(r['environment'])}")
    p(f"# graph: {json.dumps(r['graph'])}")
    p(f"# scope: {r['scope']}")
    s = r["workload_summary"]
    p(f"# setup_s          {fmt(r['setup_s']['median'])} s "
      f"(median of {r['setup_s']['samples']} set-ups)")
    rp = r["runs_per_s"]
    p(f"# runs_per_s       {fmt(rp['value'])} 1/s ({rp['runs']} runs in "
      f"{rp['units']} units, median-based unit time {rp['typical_unit_s']:.3f} s; "
      f"{fmt(rp['mean_runs_per_s'])} 1/s over all {rp['wall_s']:.3f} s of unit time)")
    for key in ("stationary_cmd_s", "modify_cmd_s"):
        v = s.get(key)
        p(f"# {key:16} " + (f"{fmt(v['median'])} s (median of {v['samples']})"
                            if v else fmt(None)))
    p(f"# failed_frac      {fmt(r['failed_frac'])} ({r['failed']} of "
      f"{r['attempted']} operations failed or were incorrect)")
    rss = r["peak_rss_mb"]
    p(f"# peak_rss_mb      main {fmt(rss['main'])} MB, pool workers "
      + (f"{fmt(rss['pool_workers'])} MB" if rss["pool_workers"] else "n/a (no pool)"))
    for key in ("worker_busy_frac", "run_median_s", "modify_cmd_s_by_strategy"):
        if key in s:
            p(f"# {key:16} {s[key] if isinstance(s[key], dict) else fmt(s[key])}")
    for problem in r["problems"]:
        p(f"# PROBLEM: {problem}")
    if "per_layer" in r:
        o = r["trace_overhead"]
        p(f"# tracing overhead {o['overhead_s']:.4f} s (traced {o['traced_wall_s']:.3f}"
          f" s - untraced {o['untraced_wall_s']:.3f} s, {o['units']} units each)")
        for layer, v in r["layers"]["layers"].items():
            p(f"# layer {layer:11} self {v['self_s']:.4f} s "
              f"({100 * v['share_of_traced_wall']:.1f}% of traced wall)")
        for k, v in r["per_layer"].items():
            p(f"# {k:32} {fmt(v)} {UNITS.get(k, 's') if v is not None else ''}")


if __name__ == "__main__":
    sys.exit(main())
