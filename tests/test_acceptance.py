"""Release acceptance suite: one test per criterion, one PASS line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines with measured margins.
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np
import pytest

from linkpred import (ExperimentConfig, PropagationConfig, ScoreMatrix,
                      auc_exact, auc_sampled, generate_planted_attribute_graph,
                      matrix_form_step, randwalk_solve, run_experiment,
                      katz_index, local_index, lp_index, BaselineConfig,
                      similarity_matrix, split_probe, transmission_weights,
                      LOCAL_INDEX_KINDS)
from _helpers import adjacency_sets, make_gnp
from _oracles import (oracle_auc, oracle_fixed_point, oracle_full_solve, oracle_katz_series,
                      oracle_local_matrix, oracle_lp_matrix, oracle_randwalk_step,
                      oracle_sim_matrix)

ATTENUATION = 0.8
# the a-posteriori bound: an iterate lies within c/(1-c) * its last sweep's change
BOUND_FACTOR = ATTENUATION / (1.0 - ATTENUATION)

# twenty seeded sparse graphs: sizes 10/30/60, edge prob swept over 0.1..0.3
GRAPH_SPECS = [((10, 30, 60)[i % 3], 0.1 + 0.2 * (i / 19.0), 1000 + i) for i in range(20)]


@pytest.fixture(scope="module")
def uniform_runs():
    """Tight solves on uniform-attribute graphs and the classic recursion's
    exact fixed point, unit edge weights (A1/A3)."""
    tight = PropagationConfig(c=ATTENUATION, tolerance=1e-12, max_iterations=300)
    runs = []
    start = time.perf_counter()
    for n, p, seed in GRAPH_SPECS:
        graph = make_gnp(n, p, seed, attrs="uniform")
        adjacency = graph.adjacency_matrix().toarray()
        runs.append((graph, randwalk_solve(graph, tight),
                     oracle_fixed_point(adjacency, adjacency, ATTENUATION)))
    elapsed = time.perf_counter() - start
    return runs, elapsed


@pytest.fixture(scope="module")
def random_attr_runs():
    """Default-tolerance solves on random attributes, a Jacobi loop from the
    identity run here, and the exact fixed point from oracle cosines (A2/A3)."""
    runs = []
    for n, p, seed in GRAPH_SPECS:
        graph = make_gnp(n, p, seed, attrs="random", attr_dim=5)
        weights = transmission_weights(graph, similarity_matrix(graph))
        solution = randwalk_solve(graph, PropagationConfig(c=ATTENUATION))
        identity, deltas, _, converged = oracle_full_solve(
            lambda s: matrix_form_step(s, graph, weights, ATTENUATION), np.eye(n), 1e-6, 100)
        assert converged
        adjacency = graph.adjacency_matrix().toarray()
        cosines = np.maximum(oracle_sim_matrix(graph.attributes.tolist()), 0.0)
        truth = oracle_fixed_point(adjacency, adjacency * cosines, ATTENUATION)
        runs.append((graph, solution, (identity, deltas), truth))
    return runs


def test_a1_reduction_to_classic_fixed_point(uniform_runs):
    runs, elapsed = uniform_runs
    worst = 0.0
    for _, weighted, classic in runs:
        assert weighted.converged
        worst = max(worst, float(np.abs(weighted.values - classic).max()))
    assert worst < 1e-8
    assert elapsed < 30.0
    print(f"\nA1 PASS: uniform-attribute fixed points match the classic recursion's exact "
          f"fixed point, max gap {worst:.2e} over {len(runs)} graphs in {elapsed:.1f}s")


def test_a2_contraction_and_init_independence(random_attr_runs):
    worst_ratio = 0.0
    worst_error = 0.0
    for _, solution, (identity, identity_deltas), truth in random_attr_runs:
        # the solver from the attribute similarity, and a second start: the identity
        for values, deltas in ((solution.values, solution.deltas), (identity, identity_deltas)):
            for i in range(1, len(deltas)):
                assert deltas[i] <= ATTENUATION * deltas[i - 1] + 1e-9
                if deltas[i - 1] > 0:
                    worst_ratio = max(worst_ratio, deltas[i] / deltas[i - 1])
            error = float(np.abs(values - truth).max())
            assert error <= 10 * 1e-6
            assert error <= BOUND_FACTOR * deltas[-1] * (1.0 + 1e-9)
            worst_error = max(worst_error, error)
    print(f"\nA2 PASS: sweep-to-sweep contraction (worst ratio {worst_ratio:.3f} <= c={ATTENUATION}), "
          f"both starts within {worst_error:.2e} of the exact fixed point (budget 1e-5, and "
          f"c/(1-c) times the last change)")


def test_a3_bounds_and_exact_symmetry(uniform_runs, random_attr_runs):
    matrices = [weighted.values for _, weighted, _ in uniform_runs[0]]
    for _, solution, (identity, _), _ in random_attr_runs:
        matrices.extend([solution.values, identity])
    for values in matrices:
        assert (np.diag(values) == 1.0).all()
        assert values.min() >= 0.0
        assert values.max() <= 1.0
        assert np.array_equal(values, values.T)
    print(f"\nA3 PASS: unit diagonal, [0, 1] bounds, bitwise symmetry on {len(matrices)} matrices")


def test_a4_step_equivalence():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for trial in range(50):
        n = int(rng.integers(5, 51))
        graph = make_gnp(n, float(rng.uniform(0.1, 0.4)), 3000 + trial, attrs="random")
        weights = transmission_weights(graph, similarity_matrix(graph))
        prev = rng.random((n, n))
        prev = (prev + prev.T) / 2
        np.fill_diagonal(prev, 1.0)
        # the oracle computes its own cosines, independent of transmission_weights
        sim = oracle_sim_matrix(graph.attributes.tolist())
        direct = oracle_randwalk_step(prev.tolist(), adjacency_sets(graph), sim, ATTENUATION)
        fast = matrix_form_step(prev, graph, weights, ATTENUATION)
        worst = max(worst, float(np.abs(direct - fast).max()))
    assert worst < 1e-10
    print(f"\nA4 PASS: matrix-form sweep equals direct double-sum sweep, max gap {worst:.2e} over 50 instances")


def test_a5_baselines_match_bruteforce_oracles():
    cfg = BaselineConfig(lp_epsilon=0.001, katz_beta=0.001)
    worst = 0.0
    for trial in range(20):
        n = int(np.random.default_rng(4000 + trial).integers(8, 31))
        graph = make_gnp(n, 0.25, 4000 + trial)
        adj = adjacency_sets(graph)
        for kind in LOCAL_INDEX_KINDS:
            gap = float(np.abs(local_index(kind, graph).values
                               - oracle_local_matrix(kind, adj)).max())
            worst = max(worst, gap)
        worst = max(worst, float(np.abs(lp_index(graph, cfg).values
                                        - oracle_lp_matrix(adj, cfg.lp_epsilon)).max()))
        series = oracle_katz_series(graph.adjacency_matrix().toarray(), cfg.katz_beta, terms=50)
        worst = max(worst, float(np.abs(katz_index(graph, cfg).values - series).max()))
    assert worst < 1e-10
    print(f"\nA5 PASS: 8 local indices + lp + katz match independent oracles, max gap {worst:.2e}")


def test_a6_auc_correctness():
    worst_sample_gap = 0.0
    for trial in range(10):
        rng = np.random.default_rng(5000 + trial)
        graph = make_gnp(int(rng.integers(12, 26)), 0.25, 5000 + trial)
        split = split_probe(graph, 0.2, seed=6000 + trial)
        values = rng.random((graph.n, graph.n))
        values = (values + values.T) / 2
        np.fill_diagonal(values, 1.0)
        scores = ScoreMatrix(values=values)
        exact = auc_exact(scores, split.probe_edges, split.train_graph)

        probe_scores = [values[i, j] for i, j in split.probe_edges.tolist()]
        nonedge_scores = []
        probe_set = {tuple(sorted(e)) for e in split.probe_edges.tolist()}
        train_adj = adjacency_sets(split.train_graph)
        for i in range(graph.n):
            for j in range(i + 1, graph.n):
                if j not in train_adj[i] and (i, j) not in probe_set:
                    nonedge_scores.append(values[i, j])
        auc, higher, equal, total = oracle_auc(probe_scores, nonedge_scores)
        assert (exact.auc, exact.n_higher, exact.n_equal, exact.n_comparisons) == \
            (auc, higher, equal, total)

        sampled = auc_sampled(scores, split.probe_edges, split.train_graph,
                              n=200_000, seed=7000 + trial)
        gap = abs(sampled.auc - exact.auc)
        assert gap < 0.01
        worst_sample_gap = max(worst_sample_gap, gap)

    # constant scores: every comparison ties
    graph = make_gnp(15, 0.3, 5100)
    split = split_probe(graph, 0.2, seed=5101)
    flat = ScoreMatrix(values=np.full((graph.n, graph.n), 0.25))
    assert auc_exact(flat, split.probe_edges, split.train_graph).auc == 0.5
    assert auc_sampled(flat, split.probe_edges, split.train_graph, 1000, 5).auc == 0.5

    # perfect separation: every probe edge outranks every non-edge
    top = np.zeros((graph.n, graph.n))
    for i, j in split.probe_edges.tolist():
        top[i, j] = top[j, i] = 1.0
    assert auc_exact(ScoreMatrix(values=top), split.probe_edges, split.train_graph).auc == 1.0
    print(f"\nA6 PASS: exact AUC equals all-pairs oracle on 10 instances; "
          f"200k-sample AUC within {worst_sample_gap:.4f} (budget 0.01); "
          f"constant scores 0.5, perfect separation 1.0")


# published node/edge/average-degree columns for the eight bibliography networks
PUBLISHED_DEGREE_ROWS = [
    ("ACM", 1465, 1209, 1.6505),
    ("CEUS", 1047, 1543, 2.9475),
    ("ICICS", 888, 1398, 3.1486),
    ("IJCGA", 940, 1699, 3.6149),
    ("IJNS", 1059, 1305, 2.4646),
    ("JCMC", 1198, 1477, 2.4658),
    ("MSCS", 870, 825, 1.8966),
    ("NLDB", 847, 1211, 2.8595),
]


def test_a7_published_average_degree_regression():
    for name, n_nodes, m_edges, k_published in PUBLISHED_DEGREE_ROWS:
        assert round(2 * m_edges / n_nodes, 4) == k_published, name
    print(f"\nA7 PASS: K = 2M/N reproduces the published column at 4 decimals "
          f"for all {len(PUBLISHED_DEGREE_ROWS)} rows")


def test_a8_attribute_walk_beats_common_neighbors_on_planted_graph():
    start = time.perf_counter()
    graph = generate_planted_attribute_graph(200, 4, p_in=0.15, p_out=0.01,
                                             attr_noise=0.1, seed=424242)
    report = run_experiment(graph, ["randwalk", "cn"],
                            ExperimentConfig(master_seed=12345, split_fraction=0.1),
                            repetitions=10, dataset="planted")
    elapsed = time.perf_counter() - start
    by_method = {r.method: r.auc_mean for r in report.results}
    assert by_method["randwalk"] >= by_method["cn"] - 0.01
    assert by_method["randwalk"] >= 0.7
    assert elapsed < 120.0
    print(f"\nA8 PASS: planted graph mean AUC randwalk={by_method['randwalk']:.4f} "
          f">= cn={by_method['cn']:.4f} - 0.01 and >= 0.7, in {elapsed:.1f}s")


def test_a9_evaluate_is_byte_deterministic(tmp_path):
    edges = tmp_path / "edges.txt"
    attrs = tmp_path / "attrs.txt"
    gen = subprocess.run(
        [sys.executable, "-m", "linkpred", "generate", "--n", "120", "--groups", "4",
         "--p-in", "0.2", "--p-out", "0.02", "--attr-noise", "0.1", "--seed", "11",
         "--out-edges", str(edges), "--out-attrs", str(attrs)],
        capture_output=True, text=True)
    assert gen.returncode == 0, gen.stderr
    reports = []
    for tag in ("a", "b"):
        out = tmp_path / f"report_{tag}.txt"
        proc = subprocess.run(
            [sys.executable, "-m", "linkpred", "evaluate", "--edges", str(edges),
             "--attrs", str(attrs), "--method", "randwalk,cn,katz", "--reps", "3",
             "--seed", "2718", "--out", str(out)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]
    print(f"\nA9 PASS: two evaluate runs with one master seed wrote byte-identical "
          f"reports ({len(reports[0])} bytes)")


def test_a10_performance_envelope():
    graph = generate_planted_attribute_graph(1500, 4, p_in=0.007, p_out=0.0004,
                                             attr_noise=0.1, seed=31)
    weights = transmission_weights(graph, similarity_matrix(graph))
    start = time.perf_counter()
    matrix_form_step(np.eye(graph.n), graph, weights, ATTENUATION)
    sweep_seconds = time.perf_counter() - start
    assert sweep_seconds < 10.0

    start = time.perf_counter()
    solution = randwalk_solve(graph, PropagationConfig(c=ATTENUATION, tolerance=1e-6))
    solve_seconds = time.perf_counter() - start
    assert solution.converged
    assert solve_seconds < 300.0
    print(f"\nA10 PASS: n={graph.n} (m={graph.m_edges}) one sweep {sweep_seconds:.2f}s < 10s, "
          f"full solve {solve_seconds:.1f}s < 300s ({solution.iterations} sweeps)")
