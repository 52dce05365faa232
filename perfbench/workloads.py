"""The three benchmark workloads: inputs, one closed-loop unit, checks.

A unit is the smallest piece of work the closed loop repeats: one
``experiment.sweep`` call over the whole grid for the sweep workloads, one
cycle of the fixed CLI command mix for ``site-io``. The loop only stops
between units, so every run measures the same mix.
"""

from __future__ import annotations

import contextlib
import io
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from navsteer import cli, experiment, surfer, synth
from navsteer.modify import Strategy

import checks

SIZES = {
    "full": {"sweep_nodes": 50_000, "site_nodes": 100_000, "fringe_nodes": 10_000,
             "pure_samples": 2, "combined_samples": 1, "setup_reps": 4,
             "site_setup_reps": 2, "rebuilds": 2},
    # Smoke setting for the benchmark's own tests: seconds, not minutes.
    "tiny": {"sweep_nodes": 2_000, "site_nodes": 3_000, "fringe_nodes": 300,
             "pure_samples": 1, "combined_samples": 1, "setup_reps": 1,
             "site_setup_reps": 1, "rebuilds": 1},
}

SWEEP_WORKERS = 2
SITE_PHI = 0.01
# (strategy, bias strength, alpha) of the modify commands in one cycle.
SITE_MODIFY_MIX = (("insert", 5.0, None), ("bias", 2.0, None),
                   ("combined", 5.0, 0.5))


def substream(*key: int) -> int:
    """A 63-bit seed that depends only on ``key``."""
    return int(np.random.SeedSequence(list(key)).generate_state(1, np.uint64)[0] >> 1)


def csr_bytes(a) -> int:
    return int(a.data.nbytes + a.indices.nbytes + a.indptr.nbytes)


@dataclass
class Unit:
    wall: float
    ops: int
    data: object
    op_walls: list[tuple[str, float]]


def typical_unit_s(units: list[Unit]) -> float:
    """Robust time of one unit: the sum over operation kinds of each kind's
    median time, so one slow operation does not move the figure."""
    by_kind: dict[str, list[float]] = {}
    for unit in units:
        for kind, wall in unit.op_walls:
            by_kind.setdefault(kind, []).append(wall)
    return sum(statistics.median(walls) for walls in by_kind.values())


class SweepWorkload:
    """``experiment.sweep`` over a synthetic scale-free graph."""

    def __init__(self, name: str, size: dict, seed: int, workdir: Path):
        self.name, self.size, self.seed = name, size, seed
        self.workers = SWEEP_WORKERS if name == "sweep-pure" else 1
        if name == "sweep-pure":
            self.grid = {"strategies": (Strategy.CLICK_BIAS, Strategy.LINK_INSERTION),
                         "phi_values": (0.01, 0.05, 0.2),
                         "bias_strengths": (2.0, 5.0, 15.0),
                         "samples_per_phi": size["pure_samples"]}
        else:
            self.grid = {"strategies": (Strategy.COMBINED,),
                         "phi_values": (0.05, 0.2),
                         "bias_strengths": (10.0,),
                         "alpha_values": (0.0, 0.5, 1.0),
                         "samples_per_phi": size["combined_samples"]}
        self.setup_reps = size["setup_reps"]
        self.g = None

    def setup(self) -> None:
        """Generate the graph and warm up with its baseline solve."""
        self.g = synth.scale_free_graph(self.size["sweep_nodes"], seed=self.seed)
        surfer.stationary(surfer.transition_matrix(self.g))

    def config(self, i: int) -> experiment.SweepConfig:
        return experiment.SweepConfig(graph_id=self.name,
                                      master_seed=substream(self.seed, i),
                                      **self.grid)

    @property
    def runs_per_unit(self) -> int:
        c = self.config(0)
        alphas = len(c.alpha_values) if Strategy.COMBINED in c.strategies else 1
        return (len(c.strategies) * len(c.phi_values) * len(c.bias_strengths)
                * c.samples_per_phi * alphas)

    def run_unit(self, i: int, workers: int, tracer=None) -> Unit:
        config = self.config(i)
        root = (tracer.root("experiment.sweep", i) if tracer
                else contextlib.nullcontext())
        start = time.perf_counter()
        with root:
            result = experiment.sweep(self.g, config, workers=workers)
        wall = time.perf_counter() - start
        return Unit(wall=wall, ops=self.runs_per_unit, data=(config, result),
                    op_walls=[("sweep", wall)])

    def check(self, units: list[Unit]) -> tuple[int, list[str]]:
        failed, problems = 0, []
        for unit in units:
            config, result = unit.data
            failed += len(result.failures)
            problems += [f"{f.strategy} phi={f.phi}: {f.error}: {f.message}"
                         for f in result.failures]
            missing = unit.ops - len(result.records) - len(result.failures)
            if missing:
                failed += missing
                problems.append(f"sweep returned {missing} runs too few")
            for r in result.records:
                p = checks.budget_problems(r.strategy, r.l_b, r.biased_weight,
                                           r.inserted_count, r.pi_t,
                                           r.pi_t_prime, r.tau)
                failed += bool(p)
                problems += p
        # Rebuild a seeded sample of runs and check stationarity directly.
        pool = [(u.data[0], r) for u in units for r in u.data[1].records]
        rng = np.random.default_rng(substream(self.seed, 1 << 30))
        baseline = surfer.stationary(surfer.transition_matrix(self.g))
        for k in rng.choice(len(pool), size=min(self.size["rebuilds"], len(pool)),
                            replace=False):
            p = checks.rebuild_problems(self.g, baseline, *pool[k])
            failed += bool(p)
            problems += p
        return failed, problems

    def describe(self) -> dict:
        a = self.g.adjacency
        return {"nodes": self.g.n, "nnz": int(a.nnz), "csr_bytes_computed": csr_bytes(a),
                "workers": self.workers, "runs_per_sweep": self.runs_per_unit,
                "grid": {k: [getattr(v, "value", v) for v in vals]
                         if isinstance(vals, tuple) else vals
                         for k, vals in self.grid.items()}}

    def summary(self, units: list[Unit], workers: int) -> dict:
        """Pool use from the records' own run times (no tracing needed)."""
        busy = sum(r.wall_time_ms for u in units for r in u.data[1].records) / 1000
        wall = sum(u.wall for u in units)
        return {"sweeps": len(units), "worker_busy_frac": busy / (workers * wall),
                "run_median_s": statistics.median(
                    r.wall_time_ms / 1000 for u in units for r in u.data[1].records)}


class SiteWorkload:
    """One client calling ``navsteer.cli.main`` on a synthetic site file."""

    name = "site-io"
    stem = "site"
    workers = 1

    def __init__(self, name: str, size: dict, seed: int, workdir: Path):
        self.size, self.seed, self.workdir = size, seed, workdir
        self.setup_reps = size["site_setup_reps"]
        self.tsv = workdir / f"{self.stem}.tsv"
        self.nodes = size["site_nodes"]
        self.input_nodes = self.nodes + size["fringe_nodes"]
        self.units_run = 0

    def setup(self) -> None:
        """Write the site TSV, then warm up with one stationary command."""
        core = synth.scale_free_graph(self.nodes, seed=self.seed)
        a = core.adjacency
        src = np.repeat(np.arange(core.n), np.diff(a.indptr))
        lines = [f"n{s}\tn{d}\t{w:g}\n"
                 for s, d, w in zip(src.tolist(), a.indices.tolist(), a.data.tolist())]
        # One-way fringe pages: linked to, never linking back, so the input
        # is not strongly connected and the CLI must reduce it.
        rng = np.random.default_rng(substream(self.seed, 1 << 31))
        parents = rng.integers(0, core.n, size=self.size["fringe_nodes"])
        lines += [f"n{p}\tf{k}\n" for k, p in enumerate(parents.tolist())]
        self.tsv.write_text("".join(lines), encoding="utf-8")
        self.core_weight = core.total_weight()
        self.core_nnz = int(a.nnz)
        self.core_csr_bytes = csr_bytes(a)
        self.input_bytes = self.tsv.stat().st_size
        warm = self.workdir / "warmup"
        warm.mkdir(exist_ok=True)
        self._cli(["stationary", str(self.tsv), "-o", str(warm / "site.pi.csv")])

    def _cli(self, argv: list[str]) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def commands(self, i: int) -> list[tuple[str, list[str], Path]]:
        """The fixed mix of cycle ``i``; modify targets change per request.

        Every call gets fresh output directories, so a replayed cycle does
        not overwrite the outputs still to be checked.
        """
        self.units_run += 1
        tag = f"r{self.units_run}-u{i}"
        cmds = []
        out = self.workdir / f"{tag}-stationary"
        cmds.append(("stationary", ["stationary", str(self.tsv), "-o",
                                    str(out / "site.pi.csv")], out))
        for k, (strategy, b, alpha) in enumerate(SITE_MODIFY_MIX):
            out = self.workdir / f"{tag}-{strategy}"
            argv = ["modify", str(self.tsv), "--strategy", strategy,
                    "--bias-strength", str(b), "--phi", str(SITE_PHI),
                    "--seed", str(substream(self.seed, i, k)),
                    "--output-dir", str(out)]
            if alpha is not None:
                argv += ["--alpha", str(alpha)]
            cmds.append((strategy, argv, out))
        return cmds

    def run_unit(self, i: int, workers: int, tracer=None) -> Unit:
        cmds = self.commands(i)
        for _, _, out in cmds:
            out.mkdir(exist_ok=True)
        walls, codes = [], []
        start = time.perf_counter()
        for k, (kind, argv, _) in enumerate(cmds):
            root = (tracer.root("cli.main", i * len(cmds) + k) if tracer
                    else contextlib.nullcontext())
            t0 = time.perf_counter()
            with root:
                codes.append(self._cli(argv))
            walls.append((kind, time.perf_counter() - t0))
        wall = time.perf_counter() - start
        return Unit(wall=wall, ops=len(cmds), data=(cmds, codes), op_walls=walls)

    def check(self, units: list[Unit]) -> tuple[int, list[str]]:
        failed, problems = 0, []
        targets = max(1, checks.round_half_up(SITE_PHI * self.nodes))
        for unit in units:
            cmds, codes = unit.data
            for (kind, argv, out), code in zip(cmds, codes):
                if code != 0:
                    p = [f"{' '.join(argv[:4])}: exit code {code}"]
                else:
                    try:
                        if kind == "stationary":
                            p = checks.stationary_output_problems(
                                out / "site.pi.csv", self.nodes, self.input_nodes)
                        else:
                            p = checks.modify_output_problems(
                                out, self.stem, kind, self.nodes,
                                self.core_weight, targets)
                    except (OSError, ValueError, KeyError) as exc:
                        p = [f"{out.name}: unreadable output: {exc!r}"]
                failed += bool(p)
                problems += p
        return failed, problems

    def describe(self) -> dict:
        return {"input_nodes": self.input_nodes, "nodes_after_scc": self.nodes,
                "nnz_after_scc": self.core_nnz,
                "csr_bytes_computed": self.core_csr_bytes,
                "input_file_bytes": self.input_bytes,
                "mix": ["stationary"] + [m[0] for m in SITE_MODIFY_MIX],
                "phi": SITE_PHI}

    def summary(self, units: list[Unit], workers: int) -> dict:
        by_kind: dict[str, list[float]] = {}
        for unit in units:
            for kind, wall in unit.op_walls:
                by_kind.setdefault(kind, []).append(wall)
        modify = [w for k, ws in by_kind.items() if k != "stationary" for w in ws]
        return {
            "cycles": len(units),
            "stationary_cmd_s": {"median": statistics.median(by_kind["stationary"]),
                                 "samples": len(by_kind["stationary"])},
            "modify_cmd_s": {"median": statistics.median(modify),
                             "samples": len(modify)},
            "modify_cmd_s_by_strategy": {
                k: {"median": statistics.median(ws), "samples": len(ws)}
                for k, ws in by_kind.items() if k != "stationary"},
        }


WORKLOADS = {"sweep-pure": SweepWorkload, "sweep-combined": SweepWorkload,
             "site-io": SiteWorkload}


def make(name: str, size: str, seed: int, workdir: Path):
    return WORKLOADS[name](name, SIZES[size], seed, workdir)
