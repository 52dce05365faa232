"""Repeat mode: run each workload N times and judge the spread.

Run a set (one seed per run, seeds first-seed .. first-seed+N-1) and save it:

    python3 perfbench/repeat.py --runs 10 --first-seed 1 --save .bench_out/setA.json

Compare two saved sets against the bounds fixed in BENCHMARK.json:

    python3 perfbench/repeat.py --compare .bench_out/setA.json .bench_out/setB.json

For every end-to-end metric a set reports median, quartiles and the spread
(third minus first quartile, over the median). A set passes when each
spread is within the metric's bound; it is steady when each is within a
third of it. Two sets agree when, for every metric, the second median is
not worse than the first by more than the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 180


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / abs(med)}


def summarize(results: dict, spec: dict) -> tuple[dict, bool]:
    """Per workload and metric quartiles; False if a spread exceeds its bound."""
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    table, ok = {}, True
    for workload, runs in results.items():
        bad = [r for r in runs if not r["correct"] or r["failed"]]
        if bad:
            print(f"{workload}: {len(bad)} run(s) incorrect or with failures")
            ok = False
        table[workload] = {}
        for name in runs[0]["metrics"]:
            q = quartiles([r["metrics"][name]["value"] for r in runs])
            table[workload][name] = q
            bound = bounds.get(name, {}).get("bound")
            verdict = ""
            if bound is not None:
                verdict = ("steady" if q["spread"] <= bound / 3 else
                           "within bound" if q["spread"] <= bound else "TOO WIDE")
                ok &= q["spread"] <= bound
            print(f"{workload:15} {name:32} median {q['median']:<12.6g} "
                  f"q1 {q['q1']:<12.6g} q3 {q['q3']:<12.6g} "
                  f"spread {q['spread']:.4f} {verdict}")
    return table, ok


def compare(first: dict, second: dict, spec: dict) -> bool:
    ok = True
    for m in spec["end_to_end"]:
        for workload in first:
            a = first[workload][m["name"]]["median"]
            b = second[workload][m["name"]]["median"]
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            verdict = "ok" if worse <= m["bound"] else "REGRESSION"
            ok &= worse <= m["bound"]
            print(f"{workload:15} {m['name']:16} {a:<12.6g} -> {b:<12.6g} "
                  f"worse by {100 * worse:+.2f}% (bound {100 * m['bound']:.0f}%) "
                  f"{verdict}")
    return ok


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--save", help="write the raw results of this set here")
    ap.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"),
                    help="compare two saved sets instead of running")
    args = ap.parse_args(argv)
    spec = load_spec()

    if args.compare:
        sets = [json.loads(Path(p).read_text()) for p in args.compare]
        tables = []
        for path, results in zip(args.compare, sets):
            print(f"== {path}")
            tables.append(summarize(results, spec))
        print("== second against first")
        agree = compare(tables[0][0], tables[1][0], spec)
        return 0 if agree and tables[0][1] and tables[1][1] else 1

    results: dict[str, list] = {}
    for workload in (w["name"] for w in spec["workloads"]):
        for seed in range(args.first_seed, args.first_seed + args.runs):
            results.setdefault(workload, []).append(
                run_once(workload, seed, spec["run_seconds"], args.trace))
            print(f"{workload} seed {seed}: "
                  + json.dumps({k: v["value"] for k, v in
                                results[workload][-1]["metrics"].items()}),
                  flush=True)
    if args.save:
        Path(args.save).parent.mkdir(parents=True, exist_ok=True)
        Path(args.save).write_text(json.dumps(results, indent=1))
    _, ok = summarize(results, spec)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
