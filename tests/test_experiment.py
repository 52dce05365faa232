"""Sweep orchestration and record serialization."""

import dataclasses
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from navsteer import (
    CSV_HEADER,
    PeriodicChainError,
    WeightedDigraph,
    RunRecord,
    SweepConfig,
    ValidationError,
    lorenz_curve,
    run_single_detailed,
    stationary,
    sweep,
    transition_matrix,
    write_records_csv,
    write_records_jsonl,
)
from navsteer import experiment, surfer
from navsteer.cli import main as cli_main
from navsteer.graph import write_edge_list
from navsteer.modify import ModificationSpec, Strategy
from navsteer.targets import TargetSet

from conftest import make_t4, random_scc_graph, read_crlf

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


def test_runs_reuse_the_baseline_plan_without_changing_bytes(tmp_path, monkeypatch):
    from navsteer.synth import scale_free_graph
    g = scale_free_graph(300, seed=4)
    config = SweepConfig(
        strategies=(Strategy.CLICK_BIAS, Strategy.LINK_INSERTION, Strategy.COMBINED),
        phi_values=(0.05, 0.2), bias_strengths=(2.0, 5.0), alpha_values=(0.5, 1.0),
        samples_per_phi=2, master_seed=5)
    solves = []
    solve = experiment.stationary

    def spy(p, *args, plan=None, **kwargs):
        result = solve(p, *args, plan=plan, **kwargs)
        solves.append((plan, result.plan))
        return result

    def unplanned(p, *args, plan=None, **kwargs):
        return solve(p, *args, **kwargs)

    csv = {}
    for name, workers, stand_in in (("planned", 1, spy), ("pool", 2, None),
                                    ("unplanned", 1, unplanned)):
        if stand_in is not None:
            monkeypatch.setattr(experiment, "stationary", stand_in)
        result = sweep(g, config, workers=workers)
        assert not result.failures
        csv[name] = tmp_path / f"{name}.csv"
        write_records_csv(result.records, csv[name])
    assert csv["planned"].read_bytes() == csv["pool"].read_bytes()
    assert csv["planned"].read_bytes() == csv["unplanned"].read_bytes()
    # the baseline solve has no plan to reuse; every bias run reuses its
    # plan, and so does every alpha 1 combined run, which inserts nothing
    baseline_plan = solves[0][1]
    reused = sum(given is baseline_plan and used is baseline_plan
                 for given, used in solves[1:])
    bias_runs = sum(r.strategy == "bias" for r in result.records)
    alpha_one = sum(r.alpha == 1.0 and r.inserted_count == 0 for r in result.records)
    assert solves[0][0] is None and alpha_one > 0
    assert reused == bias_runs + alpha_one


def _period_checks(monkeypatch):
    """The shapes of the chains whose period a solve checks from now on."""
    shapes = []
    check = surfer.chain_period

    def spy(matrix):
        shapes.append(matrix.shape)
        return check(matrix)

    monkeypatch.setattr(surfer, "chain_period", spy)
    return shapes


@pytest.mark.parametrize("spec", [
    ModificationSpec(Strategy.CLICK_BIAS, 5.0),
    ModificationSpec(Strategy.LINK_INSERTION, 5.0),
    ModificationSpec(Strategy.COMBINED, 5.0, alpha=0.5, seed=3),
])
def test_runs_check_no_period_of_the_modified_chain(monkeypatch, spec):
    from navsteer.synth import scale_free_graph
    g = scale_free_graph(400, seed=2)
    baseline = stationary(transition_matrix(g))
    assert baseline.plan is not None
    shapes = _period_checks(monkeypatch)
    built, censor = [], surfer._censor

    def build(matrix):
        built.append(censor(matrix))
        return built[-1]

    monkeypatch.setattr(surfer, "_censor", build)
    ts = TargetSet(members=tuple(range(0, g.n, 20)), sample_id=0)
    record, modified = run_single_detailed(g, ts, spec, baseline=baseline)
    assert (g.n, g.n) not in shapes
    if spec.strategy is Strategy.CLICK_BIAS:
        assert shapes == [] and built == []       # the baseline's plan is reused
    else:
        # a new plan censors only once its Q passed the period check, which
        # a diagonal entry of Q answers without a search
        assert record.inserted_count > 0 and modified.edge_count() > g.edge_count()
        [(plan, q)] = built
        assert plan.to_s is not None and all(shape == q.shape for shape in shapes)


def test_a_run_without_a_baseline_plan_checks_the_period(monkeypatch):
    # a 4-cycle: the uniform step settles the baseline, so it has no plan,
    # and the link 0 -> 3 adds a cycle of length 2: period 2
    g = WeightedDigraph.from_edges(4, [0, 1, 2, 3], [1, 2, 3, 0])
    baseline = stationary(transition_matrix(g))
    assert baseline.plan is None
    shapes = _period_checks(monkeypatch)
    with pytest.raises(PeriodicChainError) as err:
        run_single_detailed(g, TargetSet(members=(3,), sample_id=0),
                            ModificationSpec(Strategy.LINK_INSERTION, 2.0),
                            baseline=baseline)
    assert err.value.period == 2 and shapes == [(4, 4)]


_SPECS = {
    Strategy.CLICK_BIAS: lambda b, seed: ModificationSpec(Strategy.CLICK_BIAS, b),
    Strategy.LINK_INSERTION: lambda b, seed: ModificationSpec(Strategy.LINK_INSERTION, b),
    Strategy.COMBINED: lambda b, seed: ModificationSpec(Strategy.COMBINED, b,
                                                        alpha=0.5, seed=seed),
}


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(list(Strategy)),
       st.sampled_from([15.0, 40.0, 123.25]))
def test_a_records_budget_is_b_minus_one_times_its_in_degree(seed, strategy, b):
    # l(b) = (b - 1) x d_in by definition, so the two agree bit for bit
    rng = np.random.default_rng(seed)
    g = random_scc_graph(rng, int(rng.integers(8, 60)))
    members = rng.choice(g.n, int(rng.integers(1, g.n // 2)), replace=False)
    record, _ = run_single_detailed(g, TargetSet(tuple(sorted(members.tolist())), 0),
                                    _SPECS[strategy](b, seed))
    assert record.l_b == (b - 1.0) * record.d_in


@pytest.mark.parametrize("strategy", list(Strategy))
def test_a_non_target_weight_past_float64_leaves_the_record_finite(strategy):
    # page 1's in-links sum past float64; the target, page 0, has in-weight 1
    g = WeightedDigraph.from_edges(4, [0, 2, 3, 1, 1, 0], [1, 1, 1, 0, 2, 3],
                                   [1e308, 1e308, 1, 1, 1, 1])
    record, _ = run_single_detailed(g, P1, _SPECS[strategy](2.0, 3))
    assert (record.d_in, record.l_b) == (1.0, 1.0)


def test_a_subnormal_link_mass_keeps_the_combined_draws_finite():
    # the targets' out-links of weight 1e308 leave some eligible links a
    # subnormal mass, whose Exp(1) key E / mass overflowed
    g = WeightedDigraph.from_edges(4, [0, 1, 2, 2, 0, 3, 1, 3, 0], [2, 2, 0, 1, 3, 0, 3, 1, 1],
                                   [1e308, 1e308, 1, 1, 1, 1, 1, 1, 1])
    ts = TargetSet(members=(0, 1), sample_id=0)
    spec = ModificationSpec(Strategy.COMBINED, 2.0, alpha=0.5, seed=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        record, modified = run_single_detailed(g, ts, spec)
    realized = float(modified.in_weights()[[0, 1]].sum() - g.in_weights()[[0, 1]].sum())
    assert record.l_b == 5.0 and abs(realized - record.l_b) <= 0.5
    assert record.biased_weight + record.inserted_count == realized


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
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(_InlinePool, "started", [])
    config = bias_config(samples_per_phi=3)          # 3 runs
    result = sweep(t4, config, workers=workers)
    assert _InlinePool.started == started
    a, b = tmp_path / "serial.csv", tmp_path / "capped.csv"
    write_records_csv(sweep(t4, config).records, a)
    write_records_csv(result.records, b)
    assert a.read_bytes() == b.read_bytes()


def test_sweep_starts_no_pool_on_one_allowed_cpu_of_many(monkeypatch, t4):
    import concurrent.futures
    import os

    # a process pinned to one CPU of a 64-CPU host, as under `taskset -c 0`
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InlinePool)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(_InlinePool, "started", [])
    result = sweep(t4, bias_config(samples_per_phi=3), workers=2)
    assert _InlinePool.started == [] and len(result.records) == 3


class _RecordingPool(_InlinePool):
    """An :class:`_InlinePool` that also records what ``map`` is given."""

    mapped: list = []

    def map(self, fn, tasks, chunksize):
        self.mapped.append((list(tasks), chunksize))
        return super().map(fn, tasks, chunksize)


def _key(run):
    return run.strategy, run.phi, run.sample_id, run.b, run.alpha


def _task_key(task):
    spec = task.spec
    return (spec.strategy.value, task.phi, task.targets.sample_id, spec.bias_strength,
            spec.alpha)


def test_pool_takes_the_runs_in_reverse_order_one_at_a_time(t4, monkeypatch):
    import concurrent.futures
    import os

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(_RecordingPool, "mapped", [])
    config = bias_config(strategies=(Strategy.CLICK_BIAS, Strategy.LINK_INSERTION),
                         phi_values=(0.25, 0.5), bias_strengths=(1.05, 2.0),
                         samples_per_phi=2)
    keys = [_task_key(t) for t in experiment._enumerate_tasks(t4, config)]
    result = sweep(t4, config, workers=2)
    [(sent, chunksize)] = _RecordingPool.mapped
    assert chunksize == 1
    assert [_task_key(t) for t in sent] == keys[::-1]
    # records and the failure manifest (b = 1.05 rounds some insertion
    # budgets to zero) each keep enumeration order
    assert result.failures and len(result.records) + len(result.failures) == len(keys)
    for runs in (result.records, result.failures):
        ranks = [keys.index(_key(run)) for run in runs]
        assert ranks == sorted(ranks)


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
    # measured time only with include_timing, as in the CSV
    assert all(row["wall_time_ms"] is None for row in rows)
    write_records_jsonl(result.records, path, include_timing=True)
    timed = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    assert all(row["wall_time_ms"] >= 0.0 for row in timed)


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


@pytest.mark.parametrize("field, values", [
    ("strategies", ("bias", Strategy.CLICK_BIAS)),
    ("phi_values", (0.1, 0.1)),
    ("bias_strengths", (2.0, 2.0)),
    ("alpha_values", (0.5, 0.5)),
])
def test_sweep_config_rejects_a_repeated_grid_value(field, values):
    with pytest.raises(ValidationError, match=f"{field} must not repeat a value"):
        bias_config(**{field: values})


@pytest.mark.parametrize("make, message", [
    (lambda t4: bias_config(strategies=()), "sweep needs at least one strategy"),
    (lambda t4: bias_config(bias_strengths=()), "sweep needs at least one bias strength"),
    (lambda t4: bias_config(strategies=(Strategy.COMBINED,)),
     "combined strategy needs alpha values"),
    (lambda t4: bias_config(strategies=(Strategy.CLICK_BIAS, Strategy.COMBINED),
                            bias_strengths=(1.0, 2.0), alpha_values=(0.5,)),
     "combined strategy needs bias strengths > 1"),
    (lambda t4: sweep(t4, bias_config(), workers=0), "workers must be at least 1"),
])
def test_experiment_rejects_invalid_values(t4, make, message):
    with pytest.raises(ValidationError) as err:
        make(t4)
    assert message in str(err.value)


def test_only_the_combined_strategy_rejects_b_one():
    pure = (Strategy.CLICK_BIAS, Strategy.LINK_INSERTION)
    assert bias_config(strategies=pure, bias_strengths=(1.0,)).bias_strengths == (1.0,)


def _not_json(name):
    raise AssertionError(f"{name} is not JSON")


def test_jsonl_writes_every_non_finite_float_as_its_str(tmp_path):
    # the targets' out-links sum past float64, so d_out and the ratio read inf
    g = WeightedDigraph.from_edges(4, [0, 1, 2, 2, 0, 3, 1, 3, 0], [2, 2, 0, 1, 3, 0, 3, 1, 1],
                                   [1e308, 1e308, 1, 1, 1, 1, 1, 1, 1])
    record, _ = run_single_detailed(g, TargetSet(members=(0, 1), sample_id=0),
                                    ModificationSpec(Strategy.CLICK_BIAS, 2.0))
    odd = dataclasses.replace(make_record(2.0, 0.3), pi_t=-math.inf, tau=math.nan)
    path = tmp_path / "runs.jsonl"
    write_records_jsonl([record, odd], path)
    rows = [json.loads(line, parse_constant=_not_json)
            for line in path.read_text().splitlines()]
    assert (rows[0]["d_in"], rows[0]["d_out"], rows[0]["degree_ratio"]) == (5.0, "inf", "inf")
    assert (rows[1]["pi_t"], rows[1]["tau"]) == ("-inf", "nan")


def test_jsonl_writes_an_infinite_degree_ratio_as_inf(tmp_path):
    path = tmp_path / "runs.jsonl"
    write_records_jsonl([make_record(math.inf, 0.2), make_record(2.0, 0.3)], path)
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert [r["degree_ratio"] for r in rows] == ["inf", 2.0]
