"""Command-line surface: subcommands, exit codes, output files.

All tests drive main(argv) in-process; exit codes are the documented
stable API (0 ok, 2 parse/validation, 3 convergence, 4 connectivity under
--strict, 5 empty support, 6 partial sweep failure).
"""

import csv
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import navsteer
from navsteer import (EmptySupportError, load_edge_list, scale_free_graph,
                      write_edge_list, __version__)
from navsteer.cli import main

from conftest import read_crlf

T4_TEXT = "p1\tp4\np2\tp1\np2\tp3\np3\tp2\np3\tp4\np4\tp2\n"


@pytest.fixture
def t4_file(tmp_path):
    path = tmp_path / "t4.tsv"
    path.write_text(T4_TEXT)
    return path


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert __version__ in capsys.readouterr().out


def test_stationary_outputs(tmp_path, t4_file, capsys):
    out = tmp_path / "pi.csv"
    assert main(["stationary", str(t4_file), "-o", str(out)]) == 0
    lines = read_crlf(out)
    assert lines[0] == "node,label,pi"
    # file order introduces p1, p4, p2, p3
    assert lines[1] == "0,p1,0.181818181818"
    assert lines[2] == "1,p4,0.272727272727"
    assert lines[3] == "2,p2,0.363636363636"
    assert len(lines) == 6                        # header + 4 rows + final CRLF
    meta = json.loads((tmp_path / "pi.csv.meta.json").read_text())
    assert meta["version"] == __version__
    assert meta["iterations"] > 0
    assert meta["scc_reduced"] is False
    assert "over 4 nodes" in capsys.readouterr().out


def test_stationary_default_output_name(tmp_path, t4_file, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["stationary", str(t4_file)]) == 0
    assert (tmp_path / "t4.pi.csv").exists()


def test_stationary_csv_quotes_labels(tmp_path):
    # only tabs separate edge-list fields, so labels may hold , and "
    path = tmp_path / "q.tsv"
    path.write_text('a,b\td"e\nd"e\tc\nc\ta,b\nd"e\ta,b\n')
    out = tmp_path / "pi.csv"
    assert main(["stationary", str(path), "-o", str(out)]) == 0
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["node"], r["label"]) for r in rows] == [
        ("0", "a,b"), ("1", 'd"e'), ("2", "c")]
    assert sum(float(r["pi"]) for r in rows) == pytest.approx(1.0)


_QUOTED_LABELS = 'a,"b\tc\nc\ta,"b\nc\td"e\nd"e\ta,"b\n'


@pytest.mark.parametrize("text, targets, expected", [
    (_QUOTED_LABELS, '"a,""b"', ['a,"b']),
    (_QUOTED_LABELS, ' d"e , "a,""b",', ['a,"b', 'd"e']),
    (T4_TEXT, " p1 , p3 ,", ["p1", "p3"]),
    (T4_TEXT, "p1,p3", ["p1", "p3"]),
])
def test_targets_flag_is_one_csv_record(tmp_path, text, targets, expected):
    path = tmp_path / "g.tsv"
    path.write_text(text)
    assert main(["modify", str(path), "--strategy", "bias", "--bias-strength", "2",
                 "--targets", targets, "--output-dir", str(tmp_path)]) == 0
    meta = json.loads((tmp_path / "g.modified.tsv.meta.json").read_text())
    assert meta["targets"] == expected


@pytest.mark.parametrize("targets", ["c\nd\"e", 'a,"b'])
def test_targets_flag_rejects_a_bad_record(tmp_path, capsys, targets):
    path = tmp_path / "g.tsv"
    path.write_text(_QUOTED_LABELS)
    assert main(["modify", str(path), "--strategy", "bias", "--bias-strength", "2",
                 "--targets", targets, "--output-dir", str(tmp_path)]) == 2
    assert "error: --targets is not one CSV record" in capsys.readouterr().err


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.tsv"
    bad.write_text("a\tb\tnot-a-number\n")
    assert main(["stationary", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "line 1" in err


def test_byte_order_mark_is_not_part_of_a_label(tmp_path, capsys):
    # with the mark kept, the first label would be '\ufeffa', a second
    # node beside 'a', and the two-node cycle would gain a dangling node
    path = tmp_path / "bom.tsv"
    path.write_text("a\tb\nb\ta\n", encoding="utf-8-sig")
    targets = tmp_path / "targets.txt"
    targets.write_text("a\n", encoding="utf-8-sig")
    out = tmp_path / "pi.csv"
    assert main(["stationary", str(path), "-o", str(out)]) == 0
    assert read_crlf(out)[1:3] == ["0,a,0.5", "1,b,0.5"]
    outdir = tmp_path / "out"
    assert main(["modify", str(path), "--strategy", "bias",
                 "--bias-strength", "2", "--targets-file", str(targets),
                 "--seed", "1", "--output-dir", str(outdir)]) == 0
    meta = json.loads((outdir / "bom.modified.tsv.meta.json").read_text())
    assert meta["targets"] == ["a"]


def test_non_utf8_input_exit_code(tmp_path, t4_file, capsys):
    bad = tmp_path / "latin1.tsv"
    # a lone CR ends a line as well
    bad.write_bytes(b"a\tb\rb\tc\r\ncaf\xe9\tb\nc\ta\n")
    assert main(["stationary", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: line 3: not valid UTF-8")
    assert "Traceback" not in err
    assert err.rstrip().endswith(f"in {bad}")
    targets = tmp_path / "targets.txt"
    targets.write_bytes(b"p1\np\xe91\n")
    assert main(["modify", str(t4_file), "--strategy", "bias",
                 "--bias-strength", "2", "--targets-file", str(targets),
                 "--seed", "1", "--output-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: line 2: not valid UTF-8")
    assert err.rstrip().endswith(f"in {targets}")


@pytest.mark.parametrize("text, strict_code", [("a\tb\nb\tc\n", 4),
                                               ("a\ta\n", 2)])
@pytest.mark.parametrize("command", [
    ["stationary"], ["lorenz"],
    ["modify", "--strategy", "bias", "--bias-strength", "2", "--phi", "1"]])
def test_linkless_largest_component_exit_code(tmp_path, monkeypatch, capsys,
                                              text, strict_code, command):
    # the component kept is a single page: one end of a chain of one-way
    # links, or a page whose only link is a dropped self-loop
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "g.tsv"
    path.write_text(text)
    argv = [command[0], str(path), *command[1:]]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"no strongly connected component of {path} has a link" in err
    assert "no outgoing weight" not in err
    assert main(argv + ["--strict"]) == strict_code


def test_overflowing_out_weight_exit_code(tmp_path, capsys):
    path = tmp_path / "g.tsv"
    path.write_text("a\tb\t1e308\na\tc\t1e308\nb\ta\nc\ta\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["stationary", str(path), "-o", str(tmp_path / "pi.csv")]) == 2
    err = capsys.readouterr().err
    assert "node 'a' has an out-weight too large to sum in float64" in err
    assert "RuntimeWarning" not in err


# b's two in-links sum past float64; in the second graph one link alone
# overflows once doubled
_HUGE_IN_WEIGHT = "a\tb\t1e308\nc\tb\t1e308\nb\ta\nb\tc\na\tc\t1e307\nc\ta\t1e307\n"
_HUGE_LINK = "a\tb\t1e308\nb\ta\nb\tc\nc\ta\n"
_BUDGET_OVERFLOW = "weight budget overflows float64 at bias strength 2.0"


@pytest.mark.parametrize("text, strategy, message", [
    (_HUGE_IN_WEIGHT, ["bias"], _BUDGET_OVERFLOW),
    (_HUGE_IN_WEIGHT, ["insert"], _BUDGET_OVERFLOW),
    (_HUGE_IN_WEIGHT, ["combined", "--alpha", "0.5", "--seed", "1"], _BUDGET_OVERFLOW),
    (_HUGE_LINK, ["bias"], "bias strength 2.0 overflows a link weight in float64"),
    # the modified graph's total weight passes float64, each out-weight does not
    (_HUGE_LINK, ["insert"], "total link weight overflows float64"),
    (_HUGE_LINK, ["combined", "--alpha", "0.5", "--seed", "1"],
     "total link weight overflows float64"),
])
def test_overflowing_budget_exit_code(tmp_path, capsys, text, strategy, message):
    path = tmp_path / "g.tsv"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["modify", str(path), "--targets", "b", "--bias-strength", "2",
                     "--output-dir", str(tmp_path / "out"), "--strategy",
                     *strategy]) == 2
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err and "RuntimeWarning" not in err
    assert not (tmp_path / "out" / "g.modified.tsv").exists()


@pytest.mark.parametrize("tolerance", ["inf", "nan"])
@pytest.mark.parametrize("command", [
    ["stationary", "-o", "{out}/pi.csv"],
    ["sweep", "--strategies", "bias", "--phi-values", "0.25", "--bias-strengths", "2",
     "--samples", "2", "--seed", "3", "--output-dir", "{out}"],
])
def test_tolerance_must_be_finite(tmp_path, t4_file, capsys, command, tolerance):
    out = tmp_path / "out"
    out.mkdir()
    argv = [command[0], str(t4_file), *(a.format(out=out) for a in command[1:])]
    assert main([*argv, "--tolerance", tolerance]) == 2
    assert "tolerance must be finite and positive" in capsys.readouterr().err
    assert not any(out.iterdir())


def test_missing_file_exit_code(tmp_path, capsys):
    assert main(["stationary", str(tmp_path / "nope.tsv")]) == 2


def test_empty_graph_exit_code(tmp_path, capsys):
    empty = tmp_path / "empty.tsv"
    empty.write_text("# only a comment\n")
    assert main(["stationary", str(empty)]) == 2


def test_convergence_failure_exit_code(tmp_path, capsys):
    # two length-3 loops: period 3, power iteration cannot settle
    per = tmp_path / "per.tsv"
    per.write_text("a\tb\na\td\nb\tc\nd\tc\nc\ta\n")
    assert main(["stationary", str(per), "--max-iterations", "200"]) == 3


def test_non_scc_input_reduces_by_default(tmp_path, capsys):
    path = tmp_path / "g.tsv"
    path.write_text(T4_TEXT + "p4\tdead-end\n")
    out = tmp_path / "pi.csv"
    assert main(["stationary", str(path), "-o", str(out)]) == 0
    lines = read_crlf(out)
    assert len(lines) == 6                        # only the 4-node component
    labels = [line.split(",")[1] for line in lines[1:5]]
    assert "dead-end" not in labels
    meta = json.loads((tmp_path / "pi.csv.meta.json").read_text())
    assert meta["scc_reduced"] is True
    assert meta["input_nodes"] == 5 and meta["nodes_used"] == 4


def test_non_scc_input_strict_exit_code(tmp_path, capsys):
    path = tmp_path / "g.tsv"
    path.write_text(T4_TEXT + "p4\tdead-end\n")
    assert main(["stationary", str(path), "--strict"]) == 4


def test_modify_bias_run(tmp_path, t4_file, capsys):
    outdir = tmp_path / "out"
    assert main(["modify", str(t4_file), "--strategy", "bias",
                 "--bias-strength", "2", "--targets", "p1",
                 "--seed", "5", "--output-dir", str(outdir)]) == 0
    out = capsys.readouterr().out
    assert "0.181818181818 -> 0.235294117647" in out
    assert "tau 1.29411764706" in out

    modified = load_edge_list(outdir / "t4.modified.tsv")
    idx = modified.label_index()
    assert modified.adjacency[idx["p1"], idx["p2"]] == 2.0

    run_lines = read_crlf(outdir / "t4.run.csv")
    assert len(run_lines) == 3
    assert run_lines[1].split(",")[1] == "bias"

    targets = (outdir / "t4.targets.csv").read_text().splitlines()
    assert targets[1].endswith(",p1")

    meta = json.loads((outdir / "t4.modified.tsv.meta.json").read_text())
    assert meta["strategy"] == "bias"
    assert meta["seed"] == 5
    assert meta["targets"] == ["p1"]


def test_modify_neutral_bias_reproduces_input_graph(tmp_path, t4_file):
    outdir = tmp_path / "out"
    assert main(["modify", str(t4_file), "--strategy", "bias",
                 "--bias-strength", "1", "--targets", "p1",
                 "--seed", "1", "--output-dir", str(outdir)]) == 0
    # b = 1 modifies nothing: the emitted edge list is the canonical form
    # of the input and parses back to the identical graph
    original = load_edge_list(t4_file)
    written = load_edge_list(outdir / "t4.modified.tsv")
    assert (original.adjacency != written.adjacency).nnz == 0
    assert original.node_labels == written.node_labels


def test_modify_combined_alpha_one_matches_pure_bias(tmp_path, t4_file):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["modify", str(t4_file), "--strategy", "combined",
                 "--alpha", "1", "--bias-strength", "3", "--targets", "p1",
                 "--seed", "7", "--output-dir", str(a)]) == 0
    assert main(["modify", str(t4_file), "--strategy", "bias",
                 "--bias-strength", "3", "--targets", "p1",
                 "--seed", "7", "--output-dir", str(b)]) == 0
    assert (a / "t4.modified.tsv").read_bytes() == (b / "t4.modified.tsv").read_bytes()


def test_modify_alpha_rejected_for_pure_strategy(tmp_path, t4_file, capsys):
    assert main(["modify", str(t4_file), "--strategy", "bias",
                 "--bias-strength", "2", "--alpha", "0.5",
                 "--targets", "p1", "--seed", "1",
                 "--output-dir", str(tmp_path)]) == 2


def test_modify_sampled_targets_reproducible(tmp_path, t4_file):
    a, b = tmp_path / "a", tmp_path / "b"
    for outdir in (a, b):
        assert main(["modify", str(t4_file), "--strategy", "insert",
                     "--bias-strength", "2", "--phi", "0.5",
                     "--seed", "9", "--output-dir", str(outdir)]) == 0
    assert (a / "t4.targets.csv").read_bytes() == (b / "t4.targets.csv").read_bytes()
    assert (a / "t4.modified.tsv").read_bytes() == (b / "t4.modified.tsv").read_bytes()


def test_modify_unknown_target_label(tmp_path, t4_file, capsys):
    assert main(["modify", str(t4_file), "--strategy", "bias",
                 "--bias-strength", "2", "--targets", "p9",
                 "--seed", "1", "--output-dir", str(tmp_path)]) == 2
    assert "p9" in capsys.readouterr().err


def test_empty_support_exit_code(tmp_path, t4_file, monkeypatch, capsys):
    # unreachable through well-formed strongly connected inputs, but the
    # mapping is part of the documented exit-code contract
    import navsteer.cli as cli_mod

    def boom(*args, **kwargs):
        raise EmptySupportError("no links into any target")

    monkeypatch.setattr(cli_mod, "run_single_detailed", boom)
    assert main(["modify", str(t4_file), "--strategy", "combined",
                 "--alpha", "0.5", "--bias-strength", "2",
                 "--targets", "p1", "--seed", "1",
                 "--output-dir", str(tmp_path)]) == 5


def test_sweep_minimal(tmp_path, t4_file, capsys):
    outdir = tmp_path / "sweep"
    assert main(["sweep", str(t4_file), "--strategies", "bias",
                 "--phi-values", "0.25", "--bias-strengths", "2",
                 "--samples", "2", "--seed", "3",
                 "--output-dir", str(outdir)]) == 0
    lines = read_crlf(outdir / "t4.runs.csv")
    assert len(lines) == 4                        # header + 2 rows + final CRLF
    manifest = json.loads((outdir / "t4.failures.json").read_text())
    assert manifest["failure_count"] == 0
    config = json.loads((outdir / "t4.config.json").read_text())
    assert config["master_seed"] == 3
    assert config["samples_per_phi"] == 2
    assert config["workers"] == 1
    assert config["graph_id"] == "t4"


def test_sweep_worker_count_does_not_change_bytes(tmp_path, t4_file):
    digests = []
    for workers, sub in (("1", "w1"), ("2", "w2")):
        outdir = tmp_path / sub
        assert main(["sweep", str(t4_file), "--strategies", "bias,insert",
                     "--phi-values", "0.25", "--bias-strengths", "2,5",
                     "--samples", "3", "--seed", "12",
                     "--workers", workers, "--output-dir", str(outdir)]) == 0
        digests.append(hashlib.sha256(
            (outdir / "t4.runs.csv").read_bytes()).hexdigest())
    assert digests[0] == digests[1]


@pytest.mark.parametrize("workers", ["0", "-1"])
def test_sweep_rejects_workers_below_one_before_any_output(
        tmp_path, t4_file, capsys, monkeypatch, workers):
    from navsteer import experiment
    solves = []
    monkeypatch.setattr(experiment, "stationary", lambda *a, **k: solves.append(a))
    outdir = tmp_path / "sweep"
    assert main(["sweep", str(t4_file), "--seed", "3", "--workers", workers,
                 "--output-dir", str(outdir)]) == 2
    assert "workers must be at least 1" in capsys.readouterr().err
    assert not outdir.exists() and solves == []


@pytest.mark.parametrize("command", [
    ["sweep", "--phi-values", "0.25", "--bias-strengths", "2", "--samples", "1"],
    ["modify", "--strategy", "bias", "--bias-strength", "2", "--phi", "0.25"],
])
@pytest.mark.parametrize("setting, message", [
    (["--tolerance", "-1"], "tolerance must be finite and positive"),
    (["--tolerance", "nan"], "tolerance must be finite and positive"),
    (["--max-iterations", "0"], "max_iterations must be at least 1"),
])
def test_bad_solver_settings_exit_before_any_output(
        tmp_path, t4_file, capsys, monkeypatch, command, setting, message):
    _no_solve(monkeypatch)
    outdir = tmp_path / "out"
    assert main([command[0], str(t4_file), *command[1:], *setting, "--seed", "1",
                 "--output-dir", str(outdir)]) == 2
    assert message in capsys.readouterr().err
    assert not outdir.exists()


def test_bad_solver_settings_in_a_config_file_exit_before_any_output(
        tmp_path, t4_file, capsys, monkeypatch):
    _no_solve(monkeypatch)
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("tolerance = 0\n")
    outdir = tmp_path / "out"
    assert main(["sweep", str(t4_file), "--config", str(cfg), "--phi-values", "0.25",
                 "--bias-strengths", "2", "--samples", "1", "--seed", "1",
                 "--output-dir", str(outdir)]) == 2
    assert "tolerance must be finite and positive" in capsys.readouterr().err
    assert not outdir.exists()


def test_a_bad_sweep_config_generates_no_seed(tmp_path, t4_file, capsys, caplog):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("tolerance = nan\n")
    assert main(["sweep", str(t4_file), "--config", str(cfg),
                 "--output-dir", str(tmp_path / "out")]) == 2
    assert "tolerance must be finite and positive" in capsys.readouterr().err
    assert "generated" not in caplog.text


@pytest.mark.parametrize("command, message", [
    (["sweep", "--config", "{cfg}"], "tolerance must be finite and positive"),
    (["modify", "--strategy", "bias", "--bias-strength", "0.5", "--phi", "0.25"],
     "bias strength must be finite and >= 1, got 0.5"),
    (["modify", "--strategy", "bias", "--bias-strength", "2", "--phi", "1.5"],
     "phi must lie in (0, 1], got 1.5"),
])
def test_bad_settings_are_named_before_the_input_is_read(tmp_path, capsys, command,
                                                         message):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("tolerance = nan\n")
    argv = [command[0], str(tmp_path / "missing.tsv"),
            *(a.format(cfg=cfg) for a in command[1:])]
    assert main(argv) == 2
    assert message in capsys.readouterr().err


def test_sweep_bytes_do_not_follow_the_blas_thread_count(tmp_path):
    # OpenBLAS splits a dot product of more than 10 000 terms over its
    # threads, which moved the last bits of pi_t, pi_t_prime and tau
    site = tmp_path / "site.tsv"
    write_edge_list(scale_free_graph(30_000, seed=5), site)
    src = str(Path(navsteer.__file__).resolve().parents[1])
    records = []
    for threads in ("1", "2"):
        outdir = tmp_path / f"blas{threads}"
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        subprocess.run(
            [sys.executable, "-m", "navsteer", "sweep", str(site), "--strategies", "bias",
             "--phi-values", "0.2", "--bias-strengths", "2", "--samples", "1",
             "--seed", "1", "--format", "json-lines", "--output-dir", str(outdir)],
            env=env, check=True, capture_output=True)
        records.append((outdir / "site.runs.jsonl").read_bytes())
    assert records[0] == records[1]


def test_jsonl_sweep_bytes_do_not_follow_the_worker_count(tmp_path, t4_file):
    # without --timing no measured time reaches the records
    records = []
    for workers in ("1", "2"):
        outdir = tmp_path / f"w{workers}"
        assert main(["sweep", str(t4_file), "--strategies", "bias,insert",
                     "--phi-values", "0.25", "--bias-strengths", "2,5",
                     "--samples", "3", "--seed", "12", "--format", "json-lines",
                     "--workers", workers, "--output-dir", str(outdir)]) == 0
        records.append((outdir / "t4.runs.jsonl").read_bytes())
    assert records[0] == records[1]
    assert b'"wall_time_ms": null' in records[0]


def test_sweep_partial_failure_exit_code(tmp_path, t4_file, capsys):
    outdir = tmp_path / "sweep"
    assert main(["sweep", str(t4_file), "--strategies", "insert",
                 "--phi-values", "0.25", "--bias-strengths", "1.05",
                 "--samples", "2", "--seed", "3",
                 "--output-dir", str(outdir)]) == 6
    manifest = json.loads((outdir / "t4.failures.json").read_text())
    assert manifest["version"] == __version__
    assert manifest["failure_count"] == 2
    assert manifest["failures"][0]["error"] == "ValidationError"
    assert len(read_crlf(outdir / "t4.runs.csv")) == 2   # header only


def test_sweep_config_file_and_flag_precedence(tmp_path, t4_file):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        "# sweep settings\n"
        "strategies = bias\n"
        "phi_values = 0.25\n"
        "bias_strengths = 2\n"
        "samples_per_phi = 5\n"
        "master_seed = 42\n")
    outdir = tmp_path / "out"
    assert main(["sweep", str(t4_file), "--config", str(cfg),
                 "--samples", "2", "--output-dir", str(outdir)]) == 0
    config = json.loads((outdir / "t4.config.json").read_text())
    assert config["master_seed"] == 42            # from the file
    assert config["samples_per_phi"] == 2         # flag wins over the file
    assert len(read_crlf(outdir / "t4.runs.csv")) == 4


def test_sweep_config_file_unknown_key(tmp_path, t4_file, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("bias = 2\n")
    assert main(["sweep", str(t4_file), "--config", str(cfg),
                 "--output-dir", str(tmp_path)]) == 2
    assert "unknown key" in capsys.readouterr().err


def test_sweep_saturation_mode_grid(tmp_path, t4_file):
    outdir = tmp_path / "out"
    assert main(["sweep", str(t4_file), "--strategies", "bias",
                 "--phi-values", "0.25", "--mode", "saturation",
                 "--samples", "1", "--seed", "1",
                 "--output-dir", str(outdir)]) == 0
    config = json.loads((outdir / "t4.config.json").read_text())
    assert config["bias_strengths"] == [2, 5, 10, 20, 35, 50, 100, 150, 200]


def test_sweep_jsonl_format(tmp_path, t4_file):
    outdir = tmp_path / "out"
    assert main(["sweep", str(t4_file), "--strategies", "bias",
                 "--phi-values", "0.25", "--bias-strengths", "2",
                 "--samples", "2", "--seed", "3", "--format", "json-lines",
                 "--output-dir", str(outdir)]) == 0
    rows = [json.loads(line)
            for line in (outdir / "t4.runs.jsonl").read_text().splitlines()]
    assert len(rows) == 2
    assert rows[0]["strategy"] == "bias"


def test_synth_command_reproducible(tmp_path):
    a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
    assert main(["synth", str(a), "-n", "60", "--seed", "3"]) == 0
    assert main(["synth", str(b), "-n", "60", "--seed", "3"]) == 0
    assert a.read_bytes() == b.read_bytes()
    g = load_edge_list(a)
    assert g.n == 60
    meta = json.loads((tmp_path / "a.tsv.meta.json").read_text())
    assert meta["synthetic"] is True
    assert meta["seed"] == 3


def test_lorenz_command(tmp_path, t4_file):
    out = tmp_path / "curve.csv"
    assert main(["lorenz", str(t4_file), "-o", str(out)]) == 0
    lines = read_crlf(out)
    assert lines[0] == "node_fraction,cumulative_energy"
    assert len(lines) == 7                        # header + 5 points + final CRLF
    assert (tmp_path / "curve.csv.meta.json").exists()


def exit_code(argv):
    """Process exit code of main(argv), whether returned or raised."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def test_sweep_unknown_strategy_flag(tmp_path, t4_file, capsys):
    assert exit_code(["sweep", str(t4_file), "--strategies", "bias,nudge",
                      "--seed", "1", "--output-dir", str(tmp_path)]) == 2
    assert "nudge" in capsys.readouterr().err


def test_sweep_config_file_unknown_strategy(tmp_path, t4_file, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("strategies = insert, nudge\n")
    assert main(["sweep", str(t4_file), "--config", str(cfg), "--seed", "1",
                 "--output-dir", str(tmp_path)]) == 2
    assert "nudge" in capsys.readouterr().err


def test_sweep_mode_overrides_config_file_strengths(tmp_path, t4_file):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("bias_strengths = 3\n")
    outdir = tmp_path / "out"
    assert main(["sweep", str(t4_file), "--config", str(cfg),
                 "--mode", "saturation", "--strategies", "bias",
                 "--phi-values", "0.25", "--samples", "1", "--seed", "1",
                 "--output-dir", str(outdir)]) == 0
    config = json.loads((outdir / "t4.config.json").read_text())
    assert config["bias_strengths"] == [2, 5, 10, 20, 35, 50, 100, 150, 200]


def test_sweep_bias_strengths_flag_overrides_mode(tmp_path, t4_file):
    outdir = tmp_path / "out"
    assert main(["sweep", str(t4_file), "--mode", "saturation",
                 "--bias-strengths", "3", "--strategies", "bias",
                 "--phi-values", "0.25", "--samples", "1", "--seed", "1",
                 "--output-dir", str(outdir)]) == 0
    config = json.loads((outdir / "t4.config.json").read_text())
    assert config["bias_strengths"] == [3]


EXPECTED_SIDECARS = {
    "out/t4.config.json": """{
  "alpha_values": [
    0.0,
    0.1,
    0.2,
    0.3,
    0.4,
    0.5,
    0.6,
    0.7,
    0.8,
    0.9,
    1.0
  ],
  "bias_strengths": [
    1.05
  ],
  "graph_id": "t4",
  "input": "{tmp}/t4.tsv",
  "input_nodes": 4,
  "master_seed": 3,
  "max_iterations": 100000,
  "nodes_used": 4,
  "phi_values": [
    0.25
  ],
  "samples_per_phi": 1,
  "scc_reduced": false,
  "strategies": [
    "insert"
  ],
  "tolerance": 1e-12,
  "version": "{version}",
  "workers": 1
}
""",
    "out/t4.failures.json": """{
  "failure_count": 1,
  "failures": [
    {
      "alpha": null,
      "b": 1.05,
      "error": "ValidationError",
      "graph_id": "t4",
      "message": "budget_count must be an integer >= 1, got 0",
      "phi": 0.25,
      "sample_id": 0,
      "strategy": "insert"
    }
  ],
  "version": "{version}"
}
""",
    "pi.csv.meta.json": """{
  "input": "{tmp}/t4.tsv",
  "input_nodes": 4,
  "iterations": 40,
  "max_iterations": 100000,
  "nodes_used": 4,
  "residual": 9.094947017729282e-13,
  "scc_reduced": false,
  "strict": false,
  "tolerance": 1e-12,
  "version": "{version}"
}
""",
    "curve.csv.meta.json": """{
  "input": "{tmp}/t4.tsv",
  "input_nodes": 4,
  "max_iterations": 100000,
  "nodes_used": 4,
  "scc_reduced": false,
  "tolerance": 1e-12,
  "version": "{version}"
}
""",
    "out/t4.modified.tsv.meta.json": """{
  "alpha": null,
  "bias_strength": 2.0,
  "input": "{tmp}/t4.tsv",
  "input_nodes": 4,
  "links": 6,
  "nodes": 4,
  "nodes_used": 4,
  "scc_reduced": false,
  "seed": 5,
  "strategy": "bias",
  "targets": [
    "p1"
  ],
  "total_weight": 7.0,
  "version": "{version}"
}
""",
}


def test_sidecar_bytes(tmp_path, t4_file, capsys):
    outdir = str(tmp_path / "out")
    assert main(["sweep", str(t4_file), "--strategies", "insert",
                 "--phi-values", "0.25", "--bias-strengths", "1.05",
                 "--samples", "1", "--seed", "3", "--output-dir", outdir]) == 6
    assert main(["stationary", str(t4_file),
                 "-o", str(tmp_path / "pi.csv")]) == 0
    assert main(["lorenz", str(t4_file),
                 "-o", str(tmp_path / "curve.csv")]) == 0
    assert main(["modify", str(t4_file), "--strategy", "bias",
                 "--bias-strength", "2", "--targets", "p1", "--seed", "5",
                 "--output-dir", outdir]) == 0
    for name, text in EXPECTED_SIDECARS.items():
        expected = (text.replace("{tmp}", str(tmp_path))
                    .replace("{version}", __version__))
        assert (tmp_path / name).read_bytes() == expected.encode("utf-8"), name


RUNS_HEADER = ("graph_id,strategy,phi,sample_id,b,alpha,pi_t,pi_t_prime,tau,"
               "d_in,d_out,degree_ratio,l_b,inserted_count,biased_weight,"
               "iters_before,iters_after,wall_time_ms\r\n")

EXPECTED_REPORTS = {
    "pi.csv": "node,label,pi\r\n"
              "0,p1,0.181818181818\r\n"
              "1,p4,0.272727272727\r\n"
              "2,p2,0.363636363636\r\n"
              "3,p3,0.181818181818\r\n",
    "curve.csv": "node_fraction,cumulative_energy\r\n"
                 "0,0\r\n"
                 "0.25,0.363636363636\r\n"
                 "0.5,0.636363636364\r\n"
                 "0.75,0.818181818182\r\n"
                 "1,1\r\n",
    "out/t4.run.csv": RUNS_HEADER
    + "t4,bias,0.25,0,2,,0.181818181818,0.235294117647,1.29411764706,"
      "1,1,1,1,0,1,40,26,\r\n",
    "out/t4.targets.csv": "sample_id,node_index,label\r\n0,0,p1\r\n",
    "out/t4.runs.csv": RUNS_HEADER
    + "t4,bias,0.25,0,2,,0.363636363636,0.375,1.03125,"
      "2,2,1,2,0,2,40,40,\r\n"
      "t4,bias,0.25,1,2,,0.181818181818,0.235294117647,1.29411764706,"
      "1,1,1,1,0,1,40,26,\r\n"
      "t4,insert,0.25,0,2,,0.363636363636,0.363636363636,1,"
      "2,2,1,2,2,0,40,40,\r\n"
      "t4,insert,0.25,1,2,,0.181818181818,0.235294117647,1.29411764706,"
      "1,1,1,1,1,0,40,26,\r\n",
}


def test_report_bytes(tmp_path, t4_file, capsys):
    outdir = str(tmp_path / "out")
    assert main(["stationary", str(t4_file),
                 "-o", str(tmp_path / "pi.csv")]) == 0
    assert main(["lorenz", str(t4_file),
                 "-o", str(tmp_path / "curve.csv")]) == 0
    assert main(["modify", str(t4_file), "--strategy", "bias",
                 "--bias-strength", "2", "--targets", "p1", "--seed", "5",
                 "--output-dir", outdir]) == 0
    assert main(["sweep", str(t4_file), "--strategies", "bias,insert",
                 "--phi-values", "0.25", "--bias-strengths", "2",
                 "--samples", "2", "--seed", "3", "--output-dir", outdir]) == 0
    for name, text in EXPECTED_REPORTS.items():
        assert (tmp_path / name).read_bytes() == text.encode("utf-8"), name


def test_sweep_infinite_bias_strength_flag(tmp_path, t4_file, capsys):
    outdir = tmp_path / "out"
    assert main(["sweep", str(t4_file), "--strategies", "bias",
                 "--phi-values", "0.25", "--bias-strengths", "2,inf",
                 "--samples", "1", "--seed", "1",
                 "--output-dir", str(outdir)]) == 2
    assert "finite" in capsys.readouterr().err
    assert not (outdir / "t4.runs.csv").exists()


def test_sweep_infinite_bias_strength_config_file(tmp_path, t4_file, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("bias_strengths = 1.05, inf\n")
    outdir = tmp_path / "out"
    assert main(["sweep", str(t4_file), "--config", str(cfg),
                 "--strategies", "bias", "--phi-values", "0.25",
                 "--samples", "1", "--seed", "1",
                 "--output-dir", str(outdir)]) == 2
    assert "finite" in capsys.readouterr().err
    assert not (outdir / "t4.runs.csv").exists()


def _no_solve(monkeypatch):
    def solve(*args, **kwargs):
        raise AssertionError("a solve ran")

    monkeypatch.setattr("navsteer.experiment.stationary", solve)


def test_modify_combined_at_b_one_exits_before_any_solve(tmp_path, t4_file, capsys,
                                                         monkeypatch):
    _no_solve(monkeypatch)
    outdir = tmp_path / "out"
    assert main(["modify", str(t4_file), "--strategy", "combined",
                 "--bias-strength", "1", "--alpha", "0.5", "--targets", "p1",
                 "--seed", "1", "--output-dir", str(outdir)]) == 2
    assert "bias strength > 1" in capsys.readouterr().err
    assert not outdir.exists()


def test_sweep_combined_at_b_one_exits_before_any_solve(tmp_path, t4_file, capsys,
                                                        monkeypatch):
    _no_solve(monkeypatch)
    outdir = tmp_path / "out"
    assert main(["sweep", str(t4_file), "--strategies", "bias,combined",
                 "--phi-values", "0.25", "--bias-strengths", "1,2",
                 "--alpha-values", "0.5", "--samples", "2", "--seed", "1",
                 "--output-dir", str(outdir)]) == 2
    assert "bias strengths > 1" in capsys.readouterr().err
    assert not outdir.exists()


def test_sweep_repeated_grid_value_exits_before_any_solve(tmp_path, t4_file, capsys,
                                                         monkeypatch):
    _no_solve(monkeypatch)
    outdir = tmp_path / "out"
    assert main(["sweep", str(t4_file), "--strategies", "bias",
                 "--phi-values", "0.1,0.1", "--bias-strengths", "2",
                 "--samples", "1", "--seed", "1", "--output-dir", str(outdir)]) == 2
    assert "phi_values must not repeat a value" in capsys.readouterr().err
    assert not outdir.exists()


@pytest.mark.parametrize("command", [
    ["modify", "--strategy", "bias", "--bias-strength", "2", "--targets", "p1"],
    ["sweep", "--strategies", "bias", "--phi-values", "0.25",
     "--bias-strengths", "2", "--samples", "1", "--seed", "1"],
])
def test_output_dir_under_a_file_exits_before_any_solve(tmp_path, t4_file, capsys,
                                                        monkeypatch, command):
    _no_solve(monkeypatch)
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert main([command[0], str(t4_file), *command[1:],
                 "--output-dir", str(blocker / "out")]) == 2
    assert str(blocker / "out") in capsys.readouterr().err


def test_modify_targets_file_without_labels(tmp_path, t4_file, capsys):
    targets = tmp_path / "targets.txt"
    targets.write_text("# no labels here\n\n   \n")
    assert main(["modify", str(t4_file), "--strategy", "bias",
                 "--bias-strength", "2", "--targets-file", str(targets),
                 "--output-dir", str(tmp_path / "out")]) == 2
    assert f"no target labels found in {targets}" in capsys.readouterr().err


def test_sweep_config_line_without_equals_sign(tmp_path, t4_file, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("# sweep\nstrategies = bias\nphi_values 0.25\n")
    assert main(["sweep", str(t4_file), "--config", str(cfg), "--seed", "1",
                 "--output-dir", str(tmp_path / "out")]) == 2
    assert f"{cfg}:3: expected 'key = value'" in capsys.readouterr().err


def test_sweep_without_seed_echoes_the_generated_seed(tmp_path, t4_file, caplog):
    outdir = tmp_path / "out"
    assert main(["sweep", str(t4_file), "--strategies", "bias",
                 "--phi-values", "0.25", "--bias-strengths", "2",
                 "--samples", "1", "--output-dir", str(outdir)]) == 0
    seed = json.loads((outdir / "t4.config.json").read_text())["master_seed"]
    assert isinstance(seed, int) and 0 <= seed < 2**63
    assert f"no master seed given; generated {seed} " in caplog.text


# ------------------------------------------------ no input ends in a traceback

_PAGES = st.sampled_from(["a", "b", "c", "p 1", "x,y", '"q"'])
_LINKS = st.one_of(
    st.tuples(_PAGES, _PAGES).map("\t".join),
    st.tuples(_PAGES, _PAGES, st.sampled_from(["1", "3", "0.25"])).map("\t".join))
_ODD_LABELS = st.sampled_from(["a", "\ufeffa", "\u00e9", "\x0c", "\u2028",
                               " ", "", "#a"])
_ODD_WEIGHTS = st.sampled_from(["0", "-1", "1e-320", "1e308", "inf", "nan",
                                "0x10", "abc", "1\t2", ""])
_JUNK = st.one_of(
    st.tuples(_ODD_LABELS, _ODD_LABELS).map("\t".join),
    st.tuples(_PAGES, _PAGES, _ODD_WEIGHTS).map("\t".join),
    st.sampled_from(["", "# comment", "\t", "a", "  a\tb  "]),
    st.text(max_size=8))


@st.composite
def _edge_lists(draw) -> bytes:
    """Mostly well-formed links among a few pages, with up to two odd lines."""
    lines = draw(st.lists(_LINKS, max_size=10))
    for junk in draw(st.lists(_JUNK, max_size=2)):
        lines.insert(draw(st.integers(0, len(lines))), junk)
    return draw(st.sampled_from(["\n", "\r\n", "\r"])).join(lines).encode("utf-8")


@st.composite
def _commands(draw) -> list[str]:
    """A stationary or modify command line; {in} and {out} are filled in."""
    if draw(st.booleans()):
        return ["stationary", "{in}", "-o", "{out}/pi.csv",
                *draw(st.sampled_from([[], ["--strict"]]))]
    strategy = draw(st.sampled_from(["bias", "insert", "combined"]))
    return ["modify", "{in}", "--strategy", strategy,
            "--bias-strength", draw(st.sampled_from(["1", "2", "5"])),
            *draw(st.sampled_from([["--phi", "0.5"], ["--phi", "1"],
                                   ["--targets", "a,b"], ["--targets", "c"]])),
            *(["--alpha", "0.5"] if strategy == "combined" else []),
            "--seed", "1", "--output-dir", "{out}"]


def _exit_code(data: bytes, command: list[str]) -> int:
    """Exit code of main on ``data``; an exception escaping main is what a
    user would see as a traceback, and fails the calling test."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "in.tsv"
        path.write_bytes(data)
        argv = [arg.replace("{in}", str(path)).replace("{out}", tmp)
                for arg in command]
        # a small budget keeps slowly mixing inputs quick; exhausting it
        # still exits 3
        return main(argv + ["--max-iterations", "5000"])


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_edge_lists(), _commands())
def test_random_edge_list_text_exits_with_a_documented_code(data, command):
    assert _exit_code(data, command) in {0, 2, 3, 4, 5, 6}


@settings(max_examples=100, deadline=None)
@given(st.binary(max_size=64), _commands())
def test_random_bytes_exit_with_a_documented_code(data, command):
    assert _exit_code(data, command) in {0, 2, 3, 4, 5, 6}
