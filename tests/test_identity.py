"""The identity tool on a tiny site and a tiny solve set (the 300-page
graph and the merged-links graph): a tree against itself, and edited
hashes and step counts."""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def identity(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "tools/identity.py", *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)


def test_identity_set_names_only_what_differs(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for saved in (a, b):
        done = identity("--src", "src", "--save", str(saved), "--nodes", "300",
                        "--solve-pages", "300")
        assert done.returncode == 0, done.stderr
    outputs = json.loads(a.read_text())["outputs"]
    # all 11 commands exit 0, and the files they write are hashed
    exits = [h for name, h in outputs.items() if name.endswith(": exit")]
    assert exits == [hashlib.sha256(b"0").hexdigest()] * 11
    assert "file sweep-csv-w2/site.runs.csv" in outputs
    # 2 graphs x 6 chains x 7 budgets
    solves = [name for name in outputs if name.startswith("solve ")]
    assert len(solves) == 84
    assert "solve merged-links insert budget 3" in solves
    assert "solve synth-300 insert-b15 budget full" in solves
    assert "solve synth-300 combined-a1 budget full" in solves
    done = identity("--compare", str(a), str(b))
    assert done.returncode == 0, done.stdout
    assert "differs" not in done.stdout
    assert "0 of 84 solves differ" in done.stdout
    edited = json.loads(b.read_text())
    edited["outputs"]["file site.pi.csv"] = "0" * 64
    b.write_text(json.dumps(edited))
    done = identity("--compare", str(a), str(b))
    assert done.returncode == 1
    assert done.stdout.splitlines()[0] == "differs: file site.pi.csv"
    assert "1 of" in done.stdout
    edited["outputs"]["solve synth-300 bias budget 2"][0] = "0" * 64
    b.write_text(json.dumps(edited))
    done = identity("--compare", str(a), str(b))
    assert done.returncode == 1
    assert done.stdout.splitlines()[:2] == ["differs: file site.pi.csv",
                                            "differs: solve synth-300 bias budget 2"]
    assert "1 of 84 solves differ" in done.stdout
    assert "0 of 1 differing solves changed their kind or step count" in done.stdout
    # a bias run at budget 2 ran out of steps; one step more is an outcome change
    assert outputs["solve synth-300 bias budget 2"][1:] == ["ConvergenceError", 2]
    edited["outputs"]["solve synth-300 bias budget 2"][2] = 3
    b.write_text(json.dumps(edited))
    done = identity("--compare", str(a), str(b))
    assert done.returncode == 1
    assert done.stdout.splitlines()[-2:] == [
        "1 of 1 differing solves changed their kind or step count",
        "outcome changed: solve synth-300 bias budget 2: "
        "ConvergenceError 2 -> ConvergenceError 3"]
