from __future__ import annotations

import logging

import numpy as np
import pytest

from linkpred import (AttributedGraph, ConfigError, PropagationConfig, ScoreMatrix,
                      TransmissionWeights, matrix_form_step, randwalk_init, randwalk_solve,
                      similarity_matrix, simrank_classic, transmission_weights)
from _helpers import adjacency_sets, make_gnp
from _oracles import (oracle_dense_sweep, oracle_full_solve, oracle_randwalk_step,
                      oracle_sim_matrix, oracle_simrank, oracle_simrank_step)


def _weighted_setup(graph):
    sim = similarity_matrix(graph)
    return sim, transmission_weights(graph, sim)


def _sparse_graph(n: int, seed: int) -> AttributedGraph:
    # about four neighbors per node; the last three nodes stay isolated and
    # every 97th node has an all-zero attribute row (edges but no weight)
    rng = np.random.default_rng(seed)
    core = max(n - 3, 1)
    ii, jj = np.triu_indices(core, 1)
    keep = rng.random(ii.size) < 4.0 / core
    attrs = rng.random((n, 4))
    attrs[::97] = 0.0
    return AttributedGraph.build(n, np.column_stack([ii[keep], jj[keep]]), attributes=attrs)


def _direct_step(prev: np.ndarray, graph: AttributedGraph, c: float) -> np.ndarray:
    # the per-pair double sum, with cosines computed by the oracle itself
    return oracle_randwalk_step(prev.tolist(), adjacency_sets(graph),
                                oracle_sim_matrix(graph.attributes.tolist()), c)


def _symmetric_scores(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    prev = rng.random((n, n))
    prev = (prev + prev.T) / 2
    np.fill_diagonal(prev, 1.0)
    return prev


class TestPropagationConfig:
    @pytest.mark.parametrize("kwargs", [
        {"c": 0.0}, {"c": 1.0}, {"c": -0.2}, {"tolerance": 0.0},
        {"max_iterations": 0}, {"init_mode": "adjacency"},
        {"tolerance": np.nan}, {"tolerance": np.inf},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigError):
            PropagationConfig(**kwargs)

    def test_defaults(self):
        cfg = PropagationConfig()
        assert cfg.c == 0.8
        assert cfg.tolerance == 1e-6
        assert cfg.max_iterations == 100
        assert cfg.init_mode == "attrsim"


class TestSimrankClassic:
    def test_two_isolated_nodes(self):
        g = AttributedGraph.build(2, [])
        scores = simrank_classic(g, PropagationConfig())
        assert scores.values[0, 1] == 0.0
        assert scores.values[0, 0] == 1.0
        assert scores.values[1, 1] == 1.0

    def test_single_edge_fixed_point_is_zero(self):
        # s(0,1) <- c * s(1,0) starting from the identity stays at 0
        g = AttributedGraph.build(2, [(0, 1)])
        scores = simrank_classic(g, PropagationConfig(c=0.8))
        assert scores.values[0, 1] == 0.0
        assert scores.converged

    @pytest.mark.parametrize("seed,n,p", [(0, 8, 0.4), (1, 12, 0.3), (2, 15, 0.25)])
    def test_matches_naive_oracle(self, seed, n, p):
        g = make_gnp(n, p, seed)
        cfg = PropagationConfig(tolerance=1e-10, max_iterations=200)
        fast = simrank_classic(g, cfg)
        slow = oracle_simrank(adjacency_sets(g), cfg.c, 10 * fast.iterations)
        assert np.abs(fast.values - slow).max() < 1e-8

    def test_star_matches_oracle(self):
        g = AttributedGraph.build(5, [(0, i) for i in range(1, 5)])
        cfg = PropagationConfig(tolerance=1e-10, max_iterations=200)
        fast = simrank_classic(g, cfg)
        slow = oracle_simrank(adjacency_sets(g), cfg.c, 10 * fast.iterations)
        assert np.abs(fast.values - slow).max() < 1e-8

    def test_rejects_empty_graph(self):
        with pytest.raises(ValueError, match="at least one node"):
            simrank_classic(AttributedGraph.build(0, []), PropagationConfig())


class TestRandwalkInit:
    def test_identity_mode(self):
        g = make_gnp(3, 0.5, 0, attrs="random")
        sim, _ = _weighted_setup(g)
        assert np.array_equal(randwalk_init(g, sim, "identity").values, np.eye(3))

    def test_attrsim_uniform_is_all_ones(self):
        g = make_gnp(4, 0.5, 0, attrs="uniform")
        sim, _ = _weighted_setup(g)
        assert (randwalk_init(g, sim, "attrsim").values == 1.0).all()

    def test_attrsim_orthogonal_is_identity(self):
        g = AttributedGraph.build(3, [(0, 1), (1, 2)], attributes=np.eye(3))
        sim, _ = _weighted_setup(g)
        assert np.array_equal(randwalk_init(g, sim, "attrsim").values, np.eye(3))

    def test_attrsim_pins_diagonal_for_zero_rows(self):
        g = AttributedGraph.build(2, [(0, 1)],
                                  attributes=np.array([[0., 0.], [1., 0.]]))
        sim, _ = _weighted_setup(g)
        assert randwalk_init(g, sim, "attrsim").values[0, 0] == 1.0

    def test_unknown_mode(self):
        g = make_gnp(3, 0.5, 0, attrs="uniform")
        sim, _ = _weighted_setup(g)
        with pytest.raises(ConfigError):
            randwalk_init(g, sim, "zeros")


class TestRandwalkStep:
    """One sweep of the weighted recursion, through ``matrix_form_step``."""

    def test_uniform_attributes_reduce_to_unweighted_step(self):
        g = make_gnp(12, 0.3, 5, attrs="uniform")
        _, weights = _weighted_setup(g)
        prev = _symmetric_scores(12, seed=0)
        stepped = matrix_form_step(ScoreMatrix(values=prev), g, weights, 0.8)
        expected = oracle_simrank_step(prev.tolist(), adjacency_sets(g), 0.8)
        assert np.abs(stepped.values - np.array(expected)).max() < 1e-12

    def test_isolated_endpoint_scores_zero(self):
        g = AttributedGraph.build(3, [(0, 1)], attributes=np.ones((3, 1)))
        _, weights = _weighted_setup(g)
        stepped = matrix_form_step(ScoreMatrix(values=np.eye(3)), g, weights, 0.8)
        assert stepped.values[0, 2] == 0.0
        assert stepped.values[1, 2] == 0.0

    def test_diagonal_pinned(self):
        g = make_gnp(10, 0.3, 6, attrs="random")
        _, weights = _weighted_setup(g)
        stepped = matrix_form_step(ScoreMatrix(values=np.eye(10)), g, weights, 0.8)
        assert (np.diag(stepped.values) == 1.0).all()

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_pure_python_oracle(self, seed):
        g = make_gnp(12, 0.3, seed, attrs="random")
        _, weights = _weighted_setup(g)
        prev = _symmetric_scores(12, seed=seed + 100)
        stepped = matrix_form_step(ScoreMatrix(values=prev), g, weights, 0.8)
        assert np.abs(stepped.values - _direct_step(prev, g, 0.8)).max() < 1e-10


class TestMatrixFormStep:
    @pytest.mark.parametrize("seed", range(5))
    def test_equals_direct_step(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 30))
        g = make_gnp(n, 0.3, seed + 50, attrs="random")
        _, weights = _weighted_setup(g)
        prev = rng.random((n, n))
        prev = (prev + prev.T) / 2
        np.fill_diagonal(prev, 1.0)
        fast = matrix_form_step(ScoreMatrix(values=prev), g, weights, 0.8)
        assert np.abs(_direct_step(prev, g, 0.8) - fast.values).max() < 1e-10

    def test_subnormal_weight_matches_direct_step(self):
        # sim(0, 1) = 1e-310 makes D(0, 1) subnormal; c / D would overflow
        attrs = np.array([[1.0, 0.0], [1e-310, 1.0], [1.0, 1.0]])
        g = AttributedGraph.build(3, [(0, 1)], attributes=attrs)
        _, weights = _weighted_setup(g)
        prev = _symmetric_scores(3, seed=0)
        fast = matrix_form_step(ScoreMatrix(values=prev), g, weights, 0.8)
        assert np.isfinite(fast.values).all()
        assert np.abs(_direct_step(prev, g, 0.8) - fast.values).max() < 1e-12

    def test_edgeless_graph_keeps_identity(self):
        g = AttributedGraph.build(4, [], attributes=np.ones((4, 2)))
        _, weights = _weighted_setup(g)
        stepped = matrix_form_step(ScoreMatrix(values=np.eye(4)), g, weights, 0.8)
        assert np.array_equal(stepped.values, np.eye(4))


class TestMultiTileSweep:
    """A single node, one full tile, one row spilling into a second tile, three tiles."""

    @pytest.mark.parametrize("n", [1, 256, 257, 600])
    def test_matrix_form_matches_dense_oracle(self, n):
        g = _sparse_graph(n, seed=n)
        _, weights = _weighted_setup(g)
        prev = _symmetric_scores(n, seed=n + 1)
        stepped = matrix_form_step(ScoreMatrix(values=prev), g, weights, 0.8).values
        expected = oracle_dense_sweep(prev, g.adjacency_matrix().toarray(),
                                      weights.edge_prob.toarray(), 0.8)
        assert np.abs(stepped - expected).max() < 1e-12
        assert np.array_equal(stepped, stepped.T)
        assert (np.diag(stepped) == 1.0).all()
        assert (stepped[:, -3:][~np.eye(n, dtype=bool)[:, -3:]] == 0.0).all()

    @pytest.mark.parametrize("n", [257, 600])
    def test_solver_deltas_follow_dense_iterates(self, n):
        g = _sparse_graph(n, seed=n + 2)
        sim, weights = _weighted_setup(g)
        scores = randwalk_solve(g, PropagationConfig())
        adjacency = g.adjacency_matrix().toarray()
        prob = weights.edge_prob.toarray()
        current = randwalk_init(g, sim, "attrsim").values
        expected = []
        for _ in range(scores.iterations):
            nxt = oracle_dense_sweep(current, adjacency, prob, 0.8)
            expected.append(np.abs(nxt - current).max())
            current = nxt
        assert np.abs(np.array(scores.deltas) - np.array(expected)).max() < 1e-12
        assert np.abs(scores.values - current).max() < 1e-12
        assert np.array_equal(scores.values, scores.values.T)

    def test_simrank_runs_the_same_sweep(self):
        g = _sparse_graph(300, seed=9)
        cfg = PropagationConfig(tolerance=1e-14, max_iterations=6)
        scores = simrank_classic(g, cfg)
        adjacency = g.adjacency_matrix().toarray()
        current = np.eye(g.n)
        for _ in range(cfg.max_iterations):
            current = oracle_dense_sweep(current, adjacency, adjacency, cfg.c)
        assert scores.iterations == cfg.max_iterations
        assert np.abs(scores.values - current).max() < 1e-12
        assert np.array_equal(scores.values, scores.values.T)


def _isolated_node_graph(kind: str) -> AttributedGraph:
    if kind == "multi-tile":
        return _sparse_graph(600, seed=600)
    rng = np.random.default_rng(3)
    if kind == "edgeless":
        attrs = rng.random((6, 3))
        attrs[2] = 0.0
        return AttributedGraph.build(6, [], attributes=attrs)
    # a 4-cycle plus node 4, isolated, with node 0's attributes: start[4, 0] = 1
    attrs = rng.random((5, 3))
    attrs[4] = attrs[0]
    return AttributedGraph.build(5, [(0, 1), (1, 2), (2, 3), (0, 3)], attributes=attrs)


class TestSweepsOnlyNodesWithEdges:
    """The solvers sweep the nodes that have an edge; the result is a full-graph solve's."""

    @pytest.mark.parametrize("kind,max_iterations", [
        ("multi-tile", 100), ("edgeless", 100), ("one-isolated", 1)])
    @pytest.mark.parametrize("solver", ["randwalk-identity", "randwalk-attrsim", "simrank"])
    def test_equals_full_solve_bitwise(self, kind, max_iterations, solver):
        g = _isolated_node_graph(kind)
        if solver == "simrank":
            cfg = PropagationConfig(max_iterations=max_iterations)
            fast = simrank_classic(g, cfg)
            weights = TransmissionWeights(edge_prob=g.adjacency_matrix())
            start = np.eye(g.n)
        else:
            cfg = PropagationConfig(max_iterations=max_iterations,
                                    init_mode=solver.removeprefix("randwalk-"))
            fast = randwalk_solve(g, cfg)
            sim, weights = _weighted_setup(g)
            start = randwalk_init(g, sim, cfg.init_mode).values
        values, deltas, iterations, converged = oracle_full_solve(
            lambda s: matrix_form_step(ScoreMatrix(values=s), g, weights, cfg.c).values,
            start, cfg.tolerance, cfg.max_iterations)
        assert np.array_equal(fast.values, values)
        assert fast.deltas == deltas
        assert (fast.iterations, fast.converged, fast.final_delta) == (
            iterations, converged, deltas[-1])
        isolated = g.degrees == 0
        assert isolated.any()
        off_diagonal = ~np.eye(g.n, dtype=bool)
        assert (fast.values[isolated][off_diagonal[isolated]] == 0.0).all()

    def test_edgeless_graph_first_delta_is_largest_start_entry(self):
        g = _isolated_node_graph("edgeless")
        start = randwalk_init(g, similarity_matrix(g), "attrsim").values
        scores = randwalk_solve(g, PropagationConfig())
        assert np.array_equal(scores.values, np.eye(g.n))
        assert scores.deltas == [start[~np.eye(g.n, dtype=bool)].max(), 0.0]

    def test_isolated_start_entry_sets_first_delta(self):
        # the only change larger than the swept pairs' is start[4, 0] going to 0
        g = _isolated_node_graph("one-isolated")
        sim, weights = _weighted_setup(g)
        start = randwalk_init(g, sim, "attrsim").values
        swept = matrix_form_step(ScoreMatrix(values=start), g, weights, 0.8).values
        kept = np.abs(swept - start)[:4, :4].max()
        scores = randwalk_solve(g, PropagationConfig(max_iterations=1))
        assert kept < start[4, 0] == scores.deltas[0]
        assert scores.iterations == 1
        assert not scores.converged

    def test_logs_swept_node_count(self, caplog):
        g = AttributedGraph.build(5, [(0, 1), (1, 2)], attributes=np.ones((5, 2)))
        with caplog.at_level(logging.INFO, logger="linkpred"):
            randwalk_solve(g, PropagationConfig())
            simrank_classic(g, PropagationConfig())
        assert "randwalk: sweeping 3 of 5 nodes (2 isolated)" in caplog.messages
        assert "simrank: sweeping 3 of 5 nodes (2 isolated)" in caplog.messages


class TestRandwalkSolve:
    @pytest.mark.parametrize("init_mode", ["identity", "attrsim"])
    def test_single_edge_decays_to_zero(self, init_mode):
        attrs = np.array([[1.0, 1.0], [1.0, 0.5]])  # sim(0,1) = p > 0
        g = AttributedGraph.build(2, [(0, 1)], attributes=attrs)
        cfg = PropagationConfig(init_mode=init_mode)
        scores = randwalk_solve(g, cfg)
        assert scores.converged
        assert scores.values[0, 1] < 1e-5

    @pytest.mark.parametrize("seed", [0, 1])
    def test_uniform_attributes_match_simrank(self, seed):
        g = make_gnp(15, 0.25, seed, attrs="uniform")
        cfg = PropagationConfig(tolerance=1e-12, max_iterations=300)
        weighted = randwalk_solve(g, cfg)
        classic = simrank_classic(g, cfg)
        assert np.abs(weighted.values - classic.values).max() < 1e-8

    def test_orthogonal_attributes_zero_offdiagonal(self):
        g = AttributedGraph.build(4, [(0, 1), (1, 2), (2, 3)], attributes=np.eye(4))
        scores = randwalk_solve(g, PropagationConfig())
        off = scores.values[~np.eye(4, dtype=bool)]
        assert (off == 0.0).all()

    @pytest.mark.parametrize("seed", [2, 3])
    def test_bounds_symmetry_and_diagonal(self, seed):
        g = make_gnp(20, 0.2, seed, attrs="random")
        scores = randwalk_solve(g, PropagationConfig())
        assert (np.diag(scores.values) == 1.0).all()
        assert scores.values.min() >= 0.0
        assert scores.values.max() <= 1.0
        assert np.array_equal(scores.values, scores.values.T)

    @pytest.mark.parametrize("seed", [4, 5])
    def test_sweep_deltas_contract(self, seed):
        g = make_gnp(20, 0.2, seed, attrs="random")
        cfg = PropagationConfig(c=0.8)
        scores = randwalk_solve(g, cfg)
        for prev, cur in zip(scores.deltas, scores.deltas[1:]):
            assert cur <= cfg.c * prev + 1e-9

    @pytest.mark.parametrize("seed", [6, 7])
    def test_init_modes_share_fixed_point(self, seed):
        g = make_gnp(18, 0.2, seed, attrs="random")
        a = randwalk_solve(g, PropagationConfig(init_mode="identity"))
        b = randwalk_solve(g, PropagationConfig(init_mode="attrsim"))
        assert np.abs(a.values - b.values).max() <= 10 * 1e-6

    def test_nonconvergence_reported(self):
        g = make_gnp(15, 0.3, 8, attrs="random")
        scores = randwalk_solve(g, PropagationConfig(tolerance=1e-14, max_iterations=2))
        assert not scores.converged
        assert scores.iterations == 2
        assert scores.final_delta == scores.deltas[-1]

    def test_requires_attributes(self):
        with pytest.raises(ConfigError, match="no attributes"):
            randwalk_solve(make_gnp(5, 0.5, 0), PropagationConfig())
