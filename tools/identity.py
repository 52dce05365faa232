"""Identity set: hash every output of a fixed CLI command set.

Run the command set against the package in a source tree and save the
hashes (sha256 of each command's stdout, stderr and exit code, and of
every file the commands write):

    python3 tools/identity.py --src src --save identity.json [--nodes 20000]

Name each output that differs between two saved sets; exit 1 if any does:

    python3 tools/identity.py --compare parent.json child.json

Each set runs in a fresh temporary directory with relative paths, with
``PYTHONPATH`` set to ``--src`` only, so two source trees (a parent and a
child checkout) can be compared output by output.
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

COMMAND_TIMEOUT_S = 600
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


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_set(src: Path, nodes: int) -> dict[str, str]:
    """Hash of every output of the command set run against ``src``."""
    env = dict(os.environ, PYTHONPATH=str(src.resolve()),
               PYTHONDONTWRITEBYTECODE="1")
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


def differing(a: dict, b: dict) -> list[str]:
    """Names of the outputs that differ between two saved sets, or that
    only one of them has."""
    names = [] if a["nodes"] == b["nodes"] else ["nodes"]
    outputs_a, outputs_b = a["outputs"], b["outputs"]
    return names + [name for name in sorted(outputs_a.keys() | outputs_b.keys())
                    if outputs_a.get(name) != outputs_b.get(name)]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", type=Path,
                    help="source tree that holds the navsteer package")
    ap.add_argument("--save", type=Path, help="write the set's hashes to this JSON file")
    ap.add_argument("--nodes", type=int, default=20000,
                    help="pages of the synthetic site")
    ap.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"),
                    help="name each output that differs between two saved sets")
    args = ap.parse_args(argv)
    if args.compare:
        a, b = (json.loads(path.read_text()) for path in args.compare)
        names = differing(a, b)
        for name in names:
            print(f"differs: {name}")
        print(f"{len(names)} of {len(a['outputs'] | b['outputs'])} outputs differ")
        return 1 if names else 0
    if args.src is None or args.save is None:
        ap.error("give --src and --save, or --compare A B")
    outputs = run_set(args.src, args.nodes)
    saved = {"nodes": args.nodes, "outputs": outputs}
    args.save.write_text(json.dumps(saved, indent=1) + "\n")
    print(f"{len(outputs)} outputs hashed into {args.save}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
