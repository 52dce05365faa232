"""Correctness checks on benchmark outputs, run outside the timed region.

Every check returns a list of problem strings; an empty list means the
output passed. Independent arithmetic (budget identities, the residual of
a column-normalized matrix built here) is preferred over re-asking the
package for the same answer.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np
from scipy.sparse import diags_array

from navsteer import experiment, graph, surfer
from navsteer.modify import Strategy

RESIDUAL_LIMIT = 1e-9
# Report files print floats with 12 significant digits.
_PRINTED_REL = 1e-10


def round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def budget_problems(strategy: str, l_b: float, biased_weight: float,
                    inserted_count: int, pi_t: float, pi_t_prime: float,
                    tau: float, rel: float = 1e-12) -> list[str]:
    """Budget identities of one run plus tau = pi_t_prime / pi_t."""
    problems = []
    if strategy == Strategy.CLICK_BIAS.value:
        if not (_close(biased_weight, l_b, rel) and inserted_count == 0):
            problems.append(f"bias spent {biased_weight} (+{inserted_count} "
                            f"links), budget {l_b}")
    elif strategy == Strategy.LINK_INSERTION.value:
        if inserted_count != round_half_up(l_b) or biased_weight != 0:
            problems.append(f"insert placed {inserted_count} links, budget {l_b}")
    elif abs(biased_weight + inserted_count - l_b) > 0.5 + rel * max(1.0, l_b):
        problems.append(f"combined spent {biased_weight + inserted_count}, "
                        f"budget {l_b}")
    if not (pi_t > 0 and _close(tau, pi_t_prime / pi_t, rel)):
        problems.append(f"tau {tau} != {pi_t_prime} / {pi_t}")
    return problems


def stationary_residual(g, pi: np.ndarray) -> float:
    """||P pi - pi||_1 with P = W D^-1 built here from the adjacency."""
    a = g.adjacency
    out = np.asarray(a.sum(axis=0)).ravel()
    p = a @ diags_array(1.0 / out)
    return float(np.abs(p @ pi - pi).sum())


def rebuild_problems(g, baseline, config, record) -> list[str]:
    """Re-run one sweep record, then check its budget and stationarity."""
    ts = experiment.sample_target_sets(g, record.phi, config.samples_per_phi,
                                       config.master_seed)[record.sample_id]
    spec = experiment._make_spec(Strategy(record.strategy), record.b, record.alpha,
                                 config.master_seed, record.phi, record.sample_id)
    again, modified = experiment.run_single_detailed(
        g, ts, spec, tolerance=config.tolerance,
        max_iterations=config.max_iterations, baseline=baseline,
        graph_id=config.graph_id, phi=record.phi)
    key = f"{record.strategy} phi={record.phi} sample={record.sample_id} b={record.b}"
    problems = []
    for name in ("pi_t", "pi_t_prime", "tau", "inserted_count", "biased_weight"):
        if getattr(again, name) != getattr(record, name):
            problems.append(f"{key}: rebuilt {name} {getattr(again, name)} != "
                            f"{getattr(record, name)}")
    realized = modified.total_weight() - g.total_weight()
    if not _close(realized, record.biased_weight + record.inserted_count, 1e-9):
        problems.append(f"{key}: realized budget {realized}")
    pi = surfer.stationary(surfer.transition_matrix(modified),
                           config.tolerance, config.max_iterations).pi
    if not _close(float(pi[list(ts.members)].sum()), record.pi_t_prime, 1e-9):
        problems.append(f"{key}: target energy of rebuilt graph differs")
    residual = stationary_residual(modified, pi)
    if not residual <= RESIDUAL_LIMIT:
        problems.append(f"{key}: ||P'pi' - pi'||_1 = {residual:.3e}")
    return problems


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def stationary_output_problems(pi_csv: Path, nodes: int, input_nodes: int) -> list[str]:
    """The pi CSV covers the reduced graph and sums to 1."""
    rows = _read_csv(pi_csv)
    meta = json.loads(Path(str(pi_csv) + ".meta.json").read_text())
    problems = []
    if len(rows) != nodes or meta["nodes_used"] != nodes:
        problems.append(f"{pi_csv.name}: {len(rows)} rows, expected {nodes}")
    if meta["input_nodes"] != input_nodes or not meta["scc_reduced"]:
        problems.append(f"{pi_csv.name}: input {meta['input_nodes']} nodes, "
                        f"reduced={meta['scc_reduced']}")
    pi = np.array([float(r["pi"]) for r in rows])
    if not (np.all(pi > 0) and abs(pi.sum() - 1.0) <= RESIDUAL_LIMIT):
        problems.append(f"{pi_csv.name}: pi sums to {pi.sum()!r}")
    return problems


def modify_output_problems(outdir: Path, stem: str, strategy: str, nodes: int,
                           original_weight: float, targets: int) -> list[str]:
    """Run report identities, sidecar weight, and that the TSV reloads."""
    (row,) = _read_csv(outdir / f"{stem}.run.csv")
    if row["strategy"] != strategy:
        return [f"{stem}: report says strategy {row['strategy']}"]
    biased, inserted = float(row["biased_weight"]), int(row["inserted_count"])
    problems = budget_problems(
        strategy, float(row["l_b"]), biased, inserted, float(row["pi_t"]),
        float(row["pi_t_prime"]), float(row["tau"]), rel=_PRINTED_REL)
    tsv = outdir / f"{stem}.modified.tsv"
    meta = json.loads(Path(str(tsv) + graph.METADATA_SUFFIX).read_text())
    if not _close(meta["total_weight"], original_weight + biased + inserted,
                  _PRINTED_REL):
        problems.append(f"{stem}: sidecar total_weight {meta['total_weight']} != "
                        f"{original_weight} + {biased} + {inserted}")
    reloaded = graph.load_edge_list(tsv)
    if reloaded.n != nodes or not _close(reloaded.total_weight(),
                                         meta["total_weight"], 1e-12):
        problems.append(f"{stem}: reloaded {reloaded.n} nodes, weight "
                        f"{reloaded.total_weight()}")
    if len(_read_csv(outdir / f"{stem}.targets.csv")) != targets:
        problems.append(f"{stem}: expected {targets} targets")
    return problems
