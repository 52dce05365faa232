"""Sweep orchestration, record serialization, binning."""

import json
import math

import numpy as np
import pytest

from navsteer import (
    CSV_HEADER,
    RunRecord,
    SweepConfig,
    ValidationError,
    bin_by_degree_ratio,
    lorenz_curve,
    run_single_detailed,
    stationary,
    sweep,
    transition_matrix,
    write_records_csv,
    write_records_jsonl,
)
from navsteer import experiment
from navsteer.cli import main as cli_main
from navsteer.graph import write_edge_list
from navsteer.modify import ModificationSpec, Strategy
from navsteer.targets import TargetSet

from conftest import make_t4, read_crlf

P1 = TargetSet(members=(0,), sample_id=0)


def bias_config(**overrides):
    base = dict(
        graph_id="t4",
        strategies=(Strategy.CLICK_BIAS,),
        phi_values=(0.25,),
        bias_strengths=(2.0,),
        alpha_values=(),
        samples_per_phi=3,
        master_seed=11,
    )
    base.update(overrides)
    return SweepConfig(**base)


def test_header_is_fixed():
    assert CSV_HEADER == ("graph_id,strategy,phi,sample_id,b,alpha,"
                          "pi_t,pi_t_prime,tau,d_in,d_out,degree_ratio,"
                          "l_b,inserted_count,biased_weight,"
                          "iters_before,iters_after,wall_time_ms")


def test_run_single_toy_bias(t4):
    spec = ModificationSpec(strategy=Strategy.CLICK_BIAS, bias_strength=2.0)
    rec, _ = run_single_detailed(t4, P1, spec, graph_id="t4")
    assert rec.strategy == "bias"
    assert rec.pi_t == pytest.approx(2 / 11, abs=1e-10)
    assert rec.pi_t_prime == pytest.approx(4 / 17, abs=1e-10)
    assert rec.tau == pytest.approx(22 / 17, abs=1e-9)
    assert rec.l_b == pytest.approx(1.0)
    assert rec.biased_weight == pytest.approx(1.0)
    assert rec.inserted_count == 0
    assert (rec.d_in, rec.d_out, rec.degree_ratio) == (1.0, 1.0, 1.0)
    assert rec.alpha is None
    assert rec.iters_before > 0 and rec.iters_after > 0
    assert rec.wall_time_ms >= 0.0
    assert len(rec.target_hash) == 16


def test_sweep_cardinality(t4):
    config = bias_config(bias_strengths=(2.0, 5.0))
    result = sweep(t4, config)
    assert len(result.failures) == 0
    assert len(result.records) == 6       # 1 phi x 3 samples x 2 strengths
    assert {r.b for r in result.records} == {2.0, 5.0}


def test_sweep_alpha_grid_only_for_combined(t4):
    # master_seed 20 samples targets p3 and p4, keeping the top-probability
    # page available as an insertion source for the combined runs
    config = bias_config(
        strategies=(Strategy.CLICK_BIAS, Strategy.COMBINED),
        alpha_values=(0.0, 0.5, 1.0),
        samples_per_phi=2,
        master_seed=20,
    )
    result = sweep(t4, config)
    pure = [r for r in result.records if r.strategy == "bias"]
    merged = [r for r in result.records if r.strategy == "combined"]
    assert len(pure) == 2                 # alphas do not multiply pure runs
    assert len(merged) == 6
    assert all(r.alpha is None for r in pure)
    assert sorted({r.alpha for r in merged}) == [0.0, 0.5, 1.0]


def test_sweep_baseline_shared_across_strategies(t4):
    config = bias_config(
        strategies=(Strategy.CLICK_BIAS, Strategy.LINK_INSERTION),
        samples_per_phi=2,
    )
    result = sweep(t4, config)
    by_sample = {}
    for r in result.records:
        key = (r.phi, r.sample_id)
        by_sample.setdefault(key, []).append(r)
    for rows in by_sample.values():
        # same target sample: identical baseline energy and target hash
        assert len({row.pi_t for row in rows}) == 1
        assert len({row.target_hash for row in rows}) == 1


def test_sweep_deterministic_bytes(tmp_path, t4):
    config = bias_config(samples_per_phi=4)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_records_csv(sweep(t4, config).records, a)
    write_records_csv(sweep(t4, config).records, b)
    assert a.read_bytes() == b.read_bytes()


def test_sweep_worker_count_invariant(tmp_path, t4):
    config = bias_config(samples_per_phi=4, bias_strengths=(2.0, 3.0))
    serial = sweep(t4, config, workers=1)
    parallel = sweep(t4, config, workers=2)
    # only pool workers keep the graph in a module global
    assert experiment._worker_context is None
    a, b = tmp_path / "serial.csv", tmp_path / "parallel.csv"
    write_records_csv(serial.records, a)
    write_records_csv(parallel.records, b)
    assert a.read_bytes() == b.read_bytes()


class _InlinePool:
    """Stands in for ProcessPoolExecutor: records ``max_workers`` and runs
    tasks in this process, so no worker is ever started."""

    started: list[int] = []

    def __init__(self, max_workers, initializer, initargs):
        self.started.append(max_workers)
        initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        experiment._worker_context = None

    def map(self, fn, tasks, chunksize):
        return map(fn, tasks)


@pytest.mark.parametrize("workers, cpus, started", [
    (5000, 64, [3]),      # capped at the run count
    (5000, 2, [2]),       # capped at the CPU count
    (5000, None, []),     # unknown CPU count: one process, no pool
    (2, 64, [2]),
])
def test_sweep_starts_no_more_workers_than_runs_or_cpus(
        monkeypatch, tmp_path, t4, workers, cpus, started):
    import concurrent.futures
    import os

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InlinePool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(_InlinePool, "started", [])
    config = bias_config(samples_per_phi=3)          # 3 runs
    result = sweep(t4, config, workers=workers)
    assert _InlinePool.started == started
    a, b = tmp_path / "serial.csv", tmp_path / "capped.csv"
    write_records_csv(sweep(t4, config).records, a)
    write_records_csv(result.records, b)
    assert a.read_bytes() == b.read_bytes()


def test_sweep_isolates_run_failures(t4):
    # b = 1.05 on a single-in-link target rounds the insertion budget to
    # zero, which insert_links rejects; the bias runs must still complete
    config = bias_config(
        strategies=(Strategy.CLICK_BIAS, Strategy.LINK_INSERTION),
        bias_strengths=(1.05,),
        samples_per_phi=3,
    )
    result = sweep(t4, config)
    assert len(result.records) == 3
    assert len(result.failures) == 3
    for f in result.failures:
        assert f.strategy == "insert"
        assert f.error == "ValidationError"
        assert f.b == 1.05


def test_sweep_validates_grids(t4):
    with pytest.raises(ValidationError):
        bias_config(phi_values=(0.0,))
    with pytest.raises(ValidationError):
        bias_config(bias_strengths=(0.5,))
    with pytest.raises(ValidationError):
        bias_config(bias_strengths=(2.0, math.inf))
    with pytest.raises(ValidationError):
        bias_config(samples_per_phi=0)
    with pytest.raises(ValidationError):
        bias_config(strategies=(Strategy.COMBINED,), alpha_values=(1.5,))


def test_csv_schema(tmp_path, t4):
    result = sweep(t4, bias_config(samples_per_phi=2))
    path = tmp_path / "runs.csv"
    write_records_csv(result.records, path)
    lines = read_crlf(path)
    assert lines[0] == CSV_HEADER
    assert lines[-1] == ""                       # trailing CRLF
    assert len(lines) == 2 + len(result.records)
    row = lines[1].split(",")
    assert row[0] == "t4"
    assert row[1] == "bias"
    assert row[2] == "0.25"
    assert row[5] == ""                          # alpha empty for pure runs
    assert row[6] == f"{result.records[0].pi_t:.12g}"
    assert len(row[6].replace("0.", "")) == 12   # 12 significant digits
    assert row[17] == ""                         # timing off by default
    float(row[8])                                # tau parses


def test_csv_timing_column_opt_in(tmp_path, t4):
    rec, _ = run_single_detailed(
        t4, P1, ModificationSpec(strategy=Strategy.CLICK_BIAS, bias_strength=2.0))
    path = tmp_path / "run.csv"
    write_records_csv([rec], path, include_timing=True)
    last = read_crlf(path)[1].split(",")[17]
    assert last != ""
    assert float(last) >= 0.0


def test_csv_quotes_fields_with_commas(tmp_path, t4):
    rec, _ = run_single_detailed(
        t4, P1, ModificationSpec(strategy=Strategy.CLICK_BIAS, bias_strength=2.0),
        graph_id='web,"prod"')
    path = tmp_path / "run.csv"
    write_records_csv([rec], path)
    assert read_crlf(path)[1].startswith('"web,""prod""",')


def test_jsonl_round_trip(tmp_path, t4):
    result = sweep(t4, bias_config(samples_per_phi=2))
    path = tmp_path / "runs.jsonl"
    write_records_jsonl(result.records, path)
    data = path.read_bytes()
    assert b"\r" not in data                      # LF line ends on every platform
    rows = [json.loads(line) for line in data.decode("utf-8").splitlines()]
    assert len(rows) == len(result.records)
    assert rows[0]["graph_id"] == "t4"
    assert rows[0]["target_hash"] == result.records[0].target_hash
    assert rows[0]["wall_time_ms"] >= 0.0        # jsonl always carries timing


def test_failure_manifest(tmp_path, t4):
    # the manifest is written by the sweep command; b = 1.05 leaves no room
    # for a whole inserted link, so every insertion run fails validation
    write_edge_list(t4, tmp_path / "t4.tsv")
    outdir = tmp_path / "sweep"
    assert cli_main(["sweep", str(tmp_path / "t4.tsv"), "--strategies", "insert",
                     "--phi-values", "0.25", "--bias-strengths", "1.05",
                     "--samples", "3", "--seed", "11",
                     "--output-dir", str(outdir)]) == 6
    payload = json.loads((outdir / "t4.failures.json").read_text())
    assert payload["failure_count"] == 3
    assert payload["failures"][0]["error"] == "ValidationError"
    assert "version" in payload


def test_lorenz_report_writes_curve(tmp_path, t4):
    # the Lorenz report is written by the lorenz command
    write_edge_list(t4, tmp_path / "t4.tsv")
    path = tmp_path / "curve.csv"
    assert cli_main(["lorenz", str(tmp_path / "t4.tsv"), "-o", str(path)]) == 0
    lines = read_crlf(path)
    assert lines[0] == "node_fraction,cumulative_energy"
    curve = np.array([[float(v) for v in line.split(",")] for line in lines[1:-1]])
    expected = lorenz_curve(stationary(transition_matrix(t4)).pi)
    assert np.allclose(curve, expected)
    assert len(lines) == 2 + len(curve)          # header + rows + final CRLF


def make_record(ratio, energy_after, strategy="insert", b=5.0):
    return RunRecord(
        graph_id="g", strategy=strategy, phi=0.1, sample_id=0, b=b,
        alpha=None, pi_t=0.1, pi_t_prime=energy_after, tau=energy_after / 0.1,
        d_in=1.0, d_out=ratio, degree_ratio=ratio, l_b=4.0,
        inserted_count=4, biased_weight=0.0, iters_before=10, iters_after=10,
        wall_time_ms=0.0, target_hash="0" * 16)


def test_binning_one_record_per_bin():
    records = [make_record(r, r / 10) for r in (1, 2, 3, 4, 5, 6)]
    summary = bin_by_degree_ratio(records, n_bins=6)
    assert summary.counts == (1,) * 6
    assert np.allclose(summary.mean_energy, [0.1, 0.2, 0.3, 0.4, 0.5, 0.6])
    assert summary.dropped_infinite == 0
    assert summary.notice is None


def test_binning_degenerate_range():
    records = [make_record(2.0, 0.3) for _ in range(5)]
    summary = bin_by_degree_ratio(records, n_bins=6)
    assert len(summary.counts) == 1
    assert summary.counts[0] == 5
    assert summary.notice is not None


def test_binning_drops_infinite_ratios():
    records = [make_record(1.0, 0.1), make_record(math.inf, 0.9),
               make_record(3.0, 0.3)]
    summary = bin_by_degree_ratio(records, n_bins=2)
    assert summary.dropped_infinite == 1
    assert sum(summary.counts) == 2


def test_binning_quantile_method():
    records = [make_record(float(r), r / 10) for r in range(1, 9)]
    summary = bin_by_degree_ratio(records, n_bins=2, method="quantile")
    assert summary.method == "quantile"
    assert summary.counts == (4, 4)


def test_binning_rejects_unknown_method():
    with pytest.raises(ValidationError):
        bin_by_degree_ratio([make_record(1.0, 0.1)], method="log")
