"""End-to-end acceptance checks.

Each test prints one PASS line with its measured numbers so a plain
pytest run doubles as an acceptance report. The exact toy values come
from hand-solvable cases; dataset-scale claims are checked as qualitative
shapes on the bundled synthetic graph (real crawled corpora are not
shipped with the package).
"""

import hashlib
import time

import numpy as np
import pytest
from scipy.stats import spearmanr

from navsteer import (
    SweepConfig,
    WeightedDigraph,
    energy,
    influence_potential,
    stationary,
    sweep,
    target_vector,
    sample_target_sets,
    transition_matrix,
    write_records_csv,
)
from navsteer.experiment import run_single_detailed
from navsteer.modify import (
    ModificationSpec,
    Strategy,
    apply_modification,
    click_bias,
    insert_links,
    combine,
    weight_budget,
)
from navsteer.synth import scale_free_graph
from navsteer.util import round_half_up

from conftest import dense_stationary, make_t4, random_scc_graph, weight_delta

# Frozen synthetic benchmark: every dataset-scale criterion runs on this
# exact graph so results are reproducible bit for bit.
SYNTH_NODES = 5000
SYNTH_SEED = 20260814
TARGET_SEED = 1001
CORRELATION_SEED = 2002


@pytest.fixture(scope="module")
def synth_graph():
    return scale_free_graph(SYNTH_NODES, seed=SYNTH_SEED)


@pytest.fixture(scope="module")
def synth_baseline(synth_graph):
    return stationary(transition_matrix(synth_graph))


def biased_solve(g, targets, b):
    """Target energy under click bias ``b`` and the iterations it took."""
    t = target_vector(targets, g.n)
    res = stationary(transition_matrix(click_bias(g, t, b)))
    return energy(res.pi, t), res.iterations


def test_criterion_01_toy_figure_values():
    """Baseline and click-bias values match the worked four-page example."""
    t4 = make_t4()
    t = np.array([1.0, 0.0, 0.0, 0.0])

    started = time.perf_counter()
    base = stationary(transition_matrix(t4))
    biased = stationary(transition_matrix(click_bias(t4, t, 2.0)))
    elapsed_ms = (time.perf_counter() - started) * 1000

    assert np.array_equal(np.round(base.pi, 2), [0.18, 0.36, 0.18, 0.27])
    assert np.array_equal(np.round(biased.pi, 2), [0.24, 0.35, 0.12, 0.29])
    assert round(energy(biased.pi, t), 2) == 0.24
    tau = influence_potential(energy(base.pi, t), energy(biased.pi, t))
    assert tau == pytest.approx(22 / 17, abs=1e-9)
    # bound the work, not the machine's speed: the censored solves' counts
    assert base.iterations <= 40 and biased.iterations <= 26
    print(f"ACCEPTANCE 1 PASS: toy baseline (0.18,0.36,0.18,0.27), bias b=2 "
          f"(0.24,0.35,0.12,0.29), tau {tau:.6f}, {base.iterations} + "
          f"{biased.iterations} iterations, {elapsed_ms:.2f} ms")


def test_criterion_02_insertion_row_discrepancy():
    """Inserting 4->1 matches the displayed matrix, not the printed vector.

    The worked example's insertion panel displays a modified matrix whose
    eigenvector is (0.2941, 0.2353, 0.1176, 0.3529), yet prints
    (0.22, 0.33, 0.17, 0.28). The printed vector actually belongs to the
    graph with 3->1 inserted instead; both claims are checked against a
    dense linear-solve oracle.
    """
    t4 = make_t4()
    displayed = np.array([0.2941, 0.2353, 0.1176, 0.3529])
    printed = np.array([0.22, 0.33, 0.17, 0.28])

    with_4_to_1 = WeightedDigraph.from_edges(
        4, (0, 1, 1, 2, 2, 3, 3), (3, 0, 2, 1, 3, 1, 0),
        node_labels=t4.node_labels)
    oracle = dense_stationary(with_4_to_1)
    assert np.max(np.abs(oracle - displayed)) < 1e-4
    power = stationary(transition_matrix(with_4_to_1)).pi
    assert np.max(np.abs(power - oracle)) < 1e-8
    # the printed vector is inconsistent with the displayed matrix ...
    assert np.max(np.abs(oracle - printed)) > 0.02
    # ... and is explained by inserting 3->1 instead
    with_3_to_1 = WeightedDigraph.from_edges(
        4, (0, 1, 1, 2, 2, 3, 2), (3, 0, 2, 1, 3, 1, 0),
        node_labels=t4.node_labels)
    assert np.array_equal(np.round(dense_stationary(with_3_to_1), 2), printed)
    print("ACCEPTANCE 2 PASS: insertion 4->1 eigenvector matches the oracle "
          "to 1e-4; the printed vector belongs to insertion 3->1")


def test_criterion_03_power_iteration_vs_dense_oracle():
    """200 random strongly connected graphs agree with a dense solve."""
    rng = np.random.default_rng(314159)
    worst = 0.0
    iterations = 0
    started = time.perf_counter()
    for _ in range(200):
        g = random_scc_graph(rng, int(rng.integers(3, 51)))
        res = stationary(transition_matrix(g))
        worst = max(worst, float(np.max(np.abs(res.pi - dense_stationary(g)))))
        iterations += res.iterations
    elapsed = time.perf_counter() - started
    assert worst <= 1e-8
    assert iterations <= 13324
    print(f"ACCEPTANCE 3 PASS: 200 graphs, worst deviation {worst:.2e}, "
          f"{iterations} iterations, {elapsed:.1f} s")


def test_criterion_04_budget_accounting_exact():
    """Bias spends exactly (b-1) x in-degree; insertion lands its count."""
    rng = np.random.default_rng(271828)
    violations = 0
    for _ in range(100):
        g = random_scc_graph(rng, int(rng.integers(4, 40)), integer_weights=True)
        t = np.zeros(g.n)
        t[rng.choice(g.n, int(rng.integers(2, max(3, g.n // 3))),
                     replace=False)] = 1.0
        b = float(rng.integers(2, 11))
        pi = stationary(transition_matrix(g)).pi

        l_b = weight_budget(g, t, b)
        expected = (b - 1.0) * float(np.dot(g.in_weights(), t))
        if weight_delta(g, click_bias(g, t, b)) != expected or l_b != expected:
            violations += 1
            continue
        count = round_half_up(l_b)
        inserted, budget = apply_modification(
            g, ModificationSpec(Strategy.LINK_INSERTION, b), t, pi)
        if weight_delta(g, inserted) != float(count):
            violations += 1
        elif np.any(inserted.adjacency.diagonal() != 0.0):
            violations += 1
        elif budget.inserted_count != count:
            violations += 1
    assert violations == 0
    print("ACCEPTANCE 4 PASS: 100 cases, bias and insertion budgets exact, "
          "zero self-loops, zero violations")


def test_criterion_05_combination_endpoints_exact():
    """combine(alpha=1) == click_bias and combine(alpha=0) == insert_links."""
    rng = np.random.default_rng(161803)
    for _ in range(50):
        g = random_scc_graph(rng, int(rng.integers(4, 30)), integer_weights=True)
        t = np.zeros(g.n)
        t[rng.choice(g.n, int(rng.integers(2, max(3, g.n // 3))),
                     replace=False)] = 1.0
        b = float(rng.integers(2, 8))
        pi = stationary(transition_matrix(g)).pi

        all_bias, _ = combine(g, t, pi, b=b, alpha=1.0,
                              rng=np.random.default_rng(1))
        pure_bias = click_bias(g, t, b)
        assert (all_bias.adjacency != pure_bias.adjacency).nnz == 0
        assert np.array_equal(all_bias.adjacency.data, pure_bias.adjacency.data)

        all_insert, _ = combine(g, t, pi, b=b, alpha=0.0,
                                rng=np.random.default_rng(1))
        pure_insert = insert_links(g, t, pi, round_half_up(weight_budget(g, t, b)))
        assert (all_insert.adjacency != pure_insert.adjacency).nnz == 0
        assert np.array_equal(all_insert.adjacency.data,
                              pure_insert.adjacency.data)
    print("ACCEPTANCE 5 PASS: 50 cases, both endpoints entrywise exact")


def test_criterion_06_bias_saturation_curve(synth_graph):
    """Mean target energy grows with b and flattens past b = 35."""
    g = synth_graph
    started = time.perf_counter()
    sets = sample_target_sets(g, 0.1, 20, TARGET_SEED)
    grid = (2.0, 5.0, 10.0, 20.0, 35.0, 50.0, 100.0, 200.0)
    solves = np.array([[biased_solve(g, ts, b) for ts in sets] for b in grid])
    means = solves[:, :, 0].mean(axis=1)
    iterations = int(solves[:, :, 1].sum())
    elapsed = time.perf_counter() - started

    steps = np.diff(means)
    assert np.all(steps >= -1e-9), f"curve not nondecreasing: {means}"
    total_rise = means[-1] - means[0]
    assert total_rise > 0
    late = steps[4:]                     # increments past b = 35
    worst_share = float(late.max() / total_rise)
    assert worst_share < 0.05, f"late gains too large: {late / total_rise}"
    assert iterations <= 13638
    print(f"ACCEPTANCE 6 PASS: curve {np.round(means, 4).tolist()} "
          f"nondecreasing, max post-35 step {100 * worst_share:.2f}% of total "
          f"rise, {iterations} iterations, {elapsed:.1f} s")


def test_criterion_07_influence_potential_decays_with_phi(synth_graph,
                                                          synth_baseline):
    """Mean tau at b=5 falls as the target fraction grows, both strategies."""
    g = synth_graph
    base = synth_baseline
    taus = {}
    for strategy in (Strategy.CLICK_BIAS, Strategy.LINK_INSERTION):
        means = []
        for phi in (0.01, 0.1, 0.2):
            vals = []
            for ts in sample_target_sets(g, phi, 20, TARGET_SEED):
                t = target_vector(ts, g.n)
                spec = ModificationSpec(strategy=strategy, bias_strength=5.0)
                modified, _ = apply_modification(g, spec, t, base.pi)
                after = stationary(transition_matrix(modified))
                vals.append(influence_potential(energy(base.pi, t),
                                                energy(after.pi, t)))
            means.append(float(np.mean(vals)))
        assert means[0] > means[1] > means[2], (strategy, means)
        taus[strategy.value] = means
    print(f"ACCEPTANCE 7 PASS: mean tau strictly decreasing over phi "
          f"(bias {np.round(taus['bias'], 4).tolist()}, "
          f"insert {np.round(taus['insert'], 4).tolist()})")


def test_criterion_08_degree_ratio_negative_correlation(synth_graph,
                                                        synth_baseline):
    """Better-linked targets gain more: ratio vs energy correlates negatively."""
    g = synth_graph
    base = synth_baseline
    ratios, energies = [], []
    for ts in sample_target_sets(g, 0.05, 100, CORRELATION_SEED):
        t = target_vector(ts, g.n)
        spec = ModificationSpec(strategy=Strategy.LINK_INSERTION,
                                bias_strength=5.0)
        modified, _ = apply_modification(g, spec, t, base.pi)
        after = stationary(transition_matrix(modified))
        d_in = float(np.dot(g.in_weights(), t))
        d_out = float(np.dot(g.out_weights(), t))
        ratios.append(d_out / d_in)
        energies.append(energy(after.pi, t))
    rho, p_value = spearmanr(ratios, energies)
    assert rho < 0
    assert p_value < 0.05
    print(f"ACCEPTANCE 8 PASS: insertion b=5, 100 samples, "
          f"Spearman rho {rho:.4f}, p {p_value:.2e}")


def test_criterion_09_sweep_byte_determinism(tmp_path):
    """Same master seed => byte-identical CSV, for 1 and 8 workers."""
    g = scale_free_graph(200, seed=7)
    pure = SweepConfig(
        graph_id="synth200",
        strategies=(Strategy.CLICK_BIAS, Strategy.LINK_INSERTION),
        phi_values=(0.1,),
        bias_strengths=(2.0, 5.0),
        alpha_values=(),
        samples_per_phi=5,
        master_seed=99,
    )
    # the combined strategy draws its bias links from a per-run RNG
    combined = SweepConfig(
        graph_id="synth200",
        strategies=(Strategy.COMBINED,),
        phi_values=(0.1,),
        bias_strengths=(5.0,),
        alpha_values=(0.3, 0.7),
        samples_per_phi=5,
        master_seed=99,
    )

    def digest(config: SweepConfig, workers: int) -> str:
        result = sweep(g, config, workers=workers)
        assert not result.failures
        path = tmp_path / "runs.csv"
        write_records_csv(result.records, path)
        return hashlib.sha256(path.read_bytes()).hexdigest()

    for config in (pure, combined):
        first, rerun, parallel = (digest(config, 1), digest(config, 1),
                                  digest(config, 8))
        assert first == rerun
        assert first == parallel
        print(f"ACCEPTANCE 9 PASS: {config.strategies[0].value} sweep CSV "
              f"sha256 {first[:16]}... identical across reruns and for 1 vs "
              f"8 workers")


def test_criterion_10_iteration_counts_reported(synth_graph):
    """Solver iteration counts are finite and land in the run records."""
    t4 = make_t4()
    counts = []
    for g, label in ((t4, "toy"), (synth_graph, "synthetic")):
        ts = sample_target_sets(g, 0.25 if g.n == 4 else 0.1, 1, 5)[0]
        spec = ModificationSpec(strategy=Strategy.CLICK_BIAS, bias_strength=5.0)
        rec, _ = run_single_detailed(g, ts, spec, tolerance=1e-6, graph_id=label)
        assert isinstance(rec.iters_before, int)
        assert isinstance(rec.iters_after, int)
        assert 0 < rec.iters_before < 100_000
        assert 0 < rec.iters_after < 100_000
        counts.append((label, rec.iters_before, rec.iters_after))
    print(f"ACCEPTANCE 10 PASS: iteration counts at tolerance 1e-6: "
          + ", ".join(f"{label} {before}->{after}"
                      for label, before, after in counts))
