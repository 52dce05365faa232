"""Identity set: hash every output of a fixed CLI command set and of a
fixed set of solves.

Run both sets against the package in a source tree and save the hashes
(sha256 of each command's stdout, stderr and exit code, of every file the
commands write, and of each solve's outcome):

    python3 tools/identity.py --src src --save identity.json [--nodes 20000]

Name each output that differs between two saved sets; exit 1 if any does:

    python3 tools/identity.py --compare parent.json child.json

A compare also names each solve whose outcome kind or step count changed,
which tells a last-bit move from a changed outcome.

Each set runs in a fresh process, the commands in a fresh temporary
directory with relative paths, with ``PYTHONPATH`` set to ``--src`` only,
so two source trees (a parent and a child checkout) can be compared
output by output.

The solve set calls ``stationary`` directly, since every command solves
at the default budget only. On each graph (synthetic sites of
``--solve-pages`` pages and :func:`_merged_links_graph`) it solves six
chains: the baseline without a plan, then the click-bias, insertion (b 5
and b 15, the run that adds the most links) and combined (alpha 0.5 and
1) modifications with the baseline's plan, as a sweep run does. Each
chain is solved at the default budget and at each of
``SOLVE_BUDGETS``; a solve hashes its pi (or last iterate), its
iteration count (or residual history), its residual and its message,
and saves its outcome kind (``ok`` or the error's name) and step count
(the iterations, or the residual history's length) beside the hash.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

COMMAND_TIMEOUT_S = 600
SOLVE_PAGES = (300, 3000, 30000)
SOLVE_BUDGETS = (1, 2, 3, 5, 7, 11)
SWEEP = ["--strategies", "bias,insert,combined", "--phi-values", "0.01,0.2",
         "--bias-strengths", "2,15", "--alpha-values", "0,0.5,1",
         "--samples", "2", "--seed", "9"]


def command_set(nodes: int) -> list[tuple[str, list[str]]]:
    """``(name, navsteer arguments)`` of each command, in the order run.
    Each modify and sweep writes into a directory of its own name."""
    modify = {"modify-bias-b3": ["--strategy", "bias", "--bias-strength", "3"],
              "modify-insert-b5": ["--strategy", "insert", "--bias-strength", "5"]}
    for alpha in ("0.5", "1"):
        modify[f"modify-combined-b5-a{alpha}"] = [
            "--strategy", "combined", "--bias-strength", "5", "--alpha", alpha]
    sweep = {f"sweep-{fmt}-w{workers}": ["--format", fmt, "--workers", workers]
             for fmt in ("csv", "json-lines") for workers in ("1", "2")}
    return [("synth", ["synth", "site.tsv", "-n", str(nodes), "--seed", "5"]),
            ("stationary", ["stationary", "site.tsv"]),
            ("lorenz", ["lorenz", "site.tsv"]),
            *((name, ["modify", "site.tsv", "--phi", "0.05", "--seed", "7", *extra,
                      "--output-dir", name]) for name, extra in modify.items()),
            *((name, ["sweep", "site.tsv", *SWEEP, *extra, "--output-dir", name])
              for name, extra in sweep.items())]


def _page_list(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x.strip()]


def _env(src: Path) -> dict[str, str]:
    """Environment of a process that imports navsteer from ``src`` only."""
    return dict(os.environ, PYTHONPATH=str(src.resolve()), PYTHONDONTWRITEBYTECODE="1")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_set(src: Path, nodes: int) -> dict[str, str]:
    """Hash of every output of the command set run against ``src``."""
    env = _env(src)
    hashes = {}
    with tempfile.TemporaryDirectory(prefix="identity-") as tmp:
        for name, args in command_set(nodes):
            done = subprocess.run([sys.executable, "-m", "navsteer", *args],
                                  cwd=tmp, env=env, capture_output=True,
                                  timeout=COMMAND_TIMEOUT_S)
            hashes[f"{name}: stdout"] = _sha256(done.stdout)
            hashes[f"{name}: stderr"] = _sha256(done.stderr)
            hashes[f"{name}: exit"] = _sha256(str(done.returncode).encode())
        root = Path(tmp)
        for path in sorted(p for p in root.rglob("*") if p.is_file()):
            name = path.relative_to(root).as_posix()
            hashes[f"file {name}"] = _sha256(path.read_bytes())
    return hashes


def _merged_links_graph(k=12, per=3):
    """A chain whose censored links land many times on one page of Q,
    with unequal weights, so the order in which the power step adds them
    shows in the bytes.

    Page 0 links to pages 1..k, and each page j links back to 0 directly,
    on to page j + 1, and through ``per`` single-out-link pages, numbered
    in shuffled order. Censored, each j sends 1 + per links to 0, each an
    entry of its own in Q's row 0, which gathers k * (1 + per) links.
    """
    from navsteer import WeightedDigraph

    rng = np.random.default_rng(0)
    src, dst = [], []
    for j in range(1, k + 1):
        src += [0, j, j]
        dst += [j, 0, j % k + 1]
    single = iter(rng.permutation(np.arange(k + 1, k + 1 + k * per)).tolist())
    for j in range(1, k + 1):
        for _ in range(per):
            s = next(single)
            src += [j, s]
            dst += [s, 0]
    return WeightedDigraph.from_edges(k + 1 + k * per, src, dst,
                                      rng.uniform(0.1, 5.0, size=len(src)))


def solve_hashes(pages: list[int]) -> dict[str, list]:
    """``[hash, outcome kind, step count]`` of every solve of the solve
    set, run against the navsteer package on ``sys.path``."""
    from navsteer import (ConvergenceError, ModificationSpec, Strategy,
                          apply_modification, sample_target_sets, stationary,
                          target_vector, transition_matrix)
    from navsteer.surfer import DEFAULT_MAX_ITERATIONS
    from navsteer.synth import scale_free_graph

    specs = {"bias": ModificationSpec(Strategy.CLICK_BIAS, 5.0),
             "insert": ModificationSpec(Strategy.LINK_INSERTION, 5.0),
             "insert-b15": ModificationSpec(Strategy.LINK_INSERTION, 15.0),
             "combined-a0.5": ModificationSpec(Strategy.COMBINED, 5.0, 0.5, seed=11),
             "combined-a1": ModificationSpec(Strategy.COMBINED, 5.0, 1.0, seed=11)}
    graphs = {f"synth-{n}": scale_free_graph(n, seed=5) for n in pages}
    graphs["merged-links"] = _merged_links_graph()
    hashes = {}
    for graph_name, g in graphs.items():
        base = stationary(transition_matrix(g))
        t = target_vector(sample_target_sets(g, 0.05, 1, master_seed=9)[0], g.n)
        chains = {"baseline": (transition_matrix(g), None)}
        for name, spec in specs.items():
            modified, _ = apply_modification(g, spec, t, base.pi)
            chains[name] = (transition_matrix(modified), base.plan)
        for chain_name, (p, plan) in chains.items():
            for budget in (None, *SOLVE_BUDGETS):
                try:
                    r = stationary(p, max_iterations=budget or DEFAULT_MAX_ITERATIONS,
                                   plan=plan)
                    outcome = ["ok", r.pi.tobytes(), r.iterations, r.residual]
                except ConvergenceError as e:  # a periodic chain's error included
                    outcome = [type(e).__name__, str(e), e.last_iterate.tobytes(),
                               e.residual_history]
                name = f"solve {graph_name} {chain_name} budget {budget or 'full'}"
                steps = outcome[2] if outcome[0] == "ok" else len(outcome[3])
                hashes[name] = [_sha256(repr(outcome).encode()), outcome[0], steps]
    return hashes


def run_solves(src: Path, pages: list[int]) -> dict[str, list]:
    """:func:`solve_hashes` run against ``src`` in a fresh process."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--hash-solves",
         ",".join(map(str, pages))],
        env=_env(src), capture_output=True, text=True, timeout=COMMAND_TIMEOUT_S)
    if done.returncode:
        raise RuntimeError(f"the solve set failed:\n{done.stderr}")
    return json.loads(done.stdout)


def differing(a: dict, b: dict) -> list[str]:
    """Names of the outputs that differ between two saved sets, or that
    only one of them has."""
    names = [key for key in ("nodes", "solve_pages") if a.get(key) != b.get(key)]
    outputs_a, outputs_b = a["outputs"], b["outputs"]
    return names + [name for name in sorted(outputs_a.keys() | outputs_b.keys())
                    if outputs_a.get(name) != outputs_b.get(name)]


def outcome_changes(a: dict, b: dict) -> list[str]:
    """``name: kind steps -> kind steps`` of each solve whose outcome kind
    or step count differs between two saved sets."""
    changes = []
    for name in sorted(a["outputs"].keys() & b["outputs"].keys()):
        before, after = a["outputs"][name][1:], b["outputs"][name][1:]
        if name.startswith("solve ") and before != after:
            changes.append(f"{name}: {' '.join(map(str, before))} -> "
                           f"{' '.join(map(str, after))}")
    return changes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", type=Path,
                    help="source tree that holds the navsteer package")
    ap.add_argument("--save", type=Path, help="write the set's hashes to this JSON file")
    ap.add_argument("--nodes", type=int, default=20000,
                    help="pages of the synthetic site")
    ap.add_argument("--solve-pages", type=_page_list, default=list(SOLVE_PAGES),
                    help="comma-separated page counts of the solve set's "
                         "synthetic graphs")
    ap.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"),
                    help="name each output that differs between two saved sets")
    # the solve set's own process: print its hashes as JSON
    ap.add_argument("--hash-solves", type=_page_list, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.hash_solves is not None:
        print(json.dumps(solve_hashes(args.hash_solves)))
        return 0
    if args.compare:
        a, b = (json.loads(path.read_text()) for path in args.compare)
        names = differing(a, b)
        for name in names:
            print(f"differs: {name}")
        outputs = a["outputs"] | b["outputs"]
        solves = sum(name.startswith("solve ") for name in outputs)
        differ = sum(name.startswith("solve ") for name in names)
        print(f"{len(names) - differ} of {len(outputs) - solves} outputs differ")
        print(f"{differ} of {solves} solves differ")
        changes = outcome_changes(a, b)
        print(f"{len(changes)} of {differ} differing solves changed their kind "
              "or step count")
        for change in changes:
            print(f"outcome changed: {change}")
        return 1 if names else 0
    if args.src is None or args.save is None:
        ap.error("give --src and --save, or --compare A B")
    outputs = run_set(args.src, args.nodes) | run_solves(args.src, args.solve_pages)
    saved = {"nodes": args.nodes, "solve_pages": args.solve_pages, "outputs": outputs}
    args.save.write_text(json.dumps(saved, indent=1) + "\n")
    print(f"{len(outputs)} outputs hashed into {args.save}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
