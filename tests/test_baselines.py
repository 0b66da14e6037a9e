from __future__ import annotations

import logging

import numpy as np
import pytest

from linkpred import (AttributedGraph, BaselineConfig, ConfigError, katz_index,
                      local_index, lp_index, LOCAL_INDEX_KINDS)
from linkpred.baselines import _LOCAL_FORMULAS, ALIASES
from _helpers import adjacency_sets, make_gnp
from _oracles import (oracle_bfs_distances, oracle_dense_local, oracle_katz_series,
                      oracle_local_matrix, oracle_lp_matrix)


def path3():
    return AttributedGraph.build(3, [(0, 1), (1, 2)])


def star4():
    return AttributedGraph.build(4, [(0, 1), (0, 2), (0, 3)])


def several_components(seed):
    """40 nodes under a seeded relabelling: a 14-node G(n, p) block, a 6-cycle,
    a triangle, a two-node component and 15 isolated nodes."""
    rng = np.random.default_rng(seed)
    ii, jj = np.triu_indices(14, 1)
    keep = rng.random(ii.size) < 0.3
    edges = [(int(i), int(j)) for i, j in zip(ii[keep], jj[keep])]
    edges += [(i, i + 1) for i in range(13)]  # keeps the block connected
    edges += [(14 + i, 14 + (i + 1) % 6) for i in range(6)]
    edges += [(20, 21), (21, 22), (20, 22), (23, 24)]
    label = rng.permutation(40)
    return AttributedGraph.build(40, [(label[u], label[v]) for u, v in edges])


class TestLocalIndices:
    @pytest.mark.parametrize("kind,expected", [
        ("cn", 1.0), ("salton", 1.0), ("jaccard", 1.0), ("pa", 1.0),
    ])
    def test_path_endpoints(self, kind, expected):
        scores = local_index(kind, path3())
        assert scores.values[0, 2] == expected

    @pytest.mark.parametrize("kind", ["cn", "hpi", "lhn-i"])
    def test_star_leaves(self, kind):
        scores = local_index(kind, star4())
        assert scores.values[1, 2] == 1.0

    @pytest.mark.parametrize("kind", LOCAL_INDEX_KINDS)
    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_set_oracle(self, kind, seed):
        g = make_gnp(25, 0.2, seed)
        expected = oracle_local_matrix(kind, adjacency_sets(g))
        assert np.abs(local_index(kind, g).values - expected).max() < 1e-12

    @pytest.mark.parametrize("kind", LOCAL_INDEX_KINDS)
    @pytest.mark.parametrize("g", [
        pytest.param(AttributedGraph.build(9, [(0, 1), (1, 2), (2, 3), (0, 3), (1, 3)]),
                     id="isolated-nodes"),
        pytest.param(AttributedGraph.build(7, [(0, i) for i in range(1, 7)]), id="star"),
        pytest.param(several_components(2), id="several-components"),
        pytest.param(make_gnp(40, 0.15, 3), id="gnp"),
        pytest.param(AttributedGraph.build(5, []), id="edgeless"),
    ])
    def test_bitwise_equal_to_dense_evaluation(self, kind, g):
        # the nonzeros of A^2 give every byte, sign bits included, that the
        # formula evaluated on all n x n pairs gives
        expected = oracle_dense_local(_LOCAL_FORMULAS[kind], g.adjacency_matrix().toarray())
        assert local_index(kind, g).values.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("kind", LOCAL_INDEX_KINDS)
    def test_isolated_nodes_score_zero(self, kind):
        g = AttributedGraph.build(4, [(0, 1)])
        scores = local_index(kind, g).values
        assert scores[2, 3] == 0.0
        assert scores[0, 2] == 0.0

    @pytest.mark.parametrize("kind", LOCAL_INDEX_KINDS)
    def test_symmetric_nonnegative(self, kind):
        g = make_gnp(30, 0.15, 7)
        values = local_index(kind, g).values
        assert np.array_equal(values, values.T)
        assert values.min() >= 0.0

    @pytest.mark.parametrize("kind", [k for k in LOCAL_INDEX_KINDS if k != "pa"])
    def test_no_common_neighbors_means_zero(self, kind):
        g = make_gnp(20, 0.15, 11)
        adj = adjacency_sets(g)
        values = local_index(kind, g).values
        for x in range(g.n):
            for y in range(x + 1, g.n):
                if not adj[x] & adj[y]:
                    assert values[x, y] == 0.0

    def test_sorenson_alias(self):
        g = path3()
        assert np.array_equal(local_index("Sorenson", g).values,
                              local_index("sorensen", g).values)
        g = make_gnp(25, 0.2, 4)
        local_aliases = {a: k for a, k in ALIASES.items() if k in LOCAL_INDEX_KINDS}
        assert set(local_aliases) == {"sorenson", "lhn", "lhn1", "lhn-1"}
        for alias, kind in local_aliases.items():
            expected = local_index(kind, g).values
            for spelling in (alias, alias.upper(), f" {alias} "):
                assert np.array_equal(local_index(spelling, g).values, expected)

    def test_kinds_pinned(self):
        # order fixes the report rows and the benchmark references
        assert LOCAL_INDEX_KINDS == ("cn", "salton", "jaccard", "sorensen", "hpi", "hdi",
                                     "lhn-i", "pa")

    def test_unknown_kind(self):
        with pytest.raises(ConfigError, match="unknown local index"):
            local_index("adamic-adar", path3())


class TestLpIndex:
    def test_path_two_hop(self):
        scores = lp_index(path3(), BaselineConfig())
        assert scores.values[0, 2] == 1.0

    def test_triangle_three_hop_term(self):
        g = AttributedGraph.build(3, [(0, 1), (1, 2), (0, 2)])
        scores = lp_index(g, BaselineConfig(lp_epsilon=0.001))
        # one 2-hop path plus three 3-hop walks (1-0-1, 2-0-1 via 0, and 1-2-1)
        assert scores.values[0, 1] == pytest.approx(1.003, abs=1e-15)

    def test_empty_graph(self):
        g = AttributedGraph.build(3, [])
        assert (lp_index(g, BaselineConfig()).values == 0.0).all()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_set_oracle(self, seed):
        g = make_gnp(20, 0.2, seed)
        cfg = BaselineConfig(lp_epsilon=0.001)
        expected = oracle_lp_matrix(adjacency_sets(g), cfg.lp_epsilon)
        assert np.abs(lp_index(g, cfg).values - expected).max() < 1e-10


class TestKatzIndex:
    def test_single_edge_closed_form(self):
        g = AttributedGraph.build(2, [(0, 1)])
        beta = 0.1
        scores = katz_index(g, BaselineConfig(katz_beta=beta))
        assert scores.values[0, 1] == pytest.approx(beta / (1 - beta ** 2), abs=1e-12)

    def test_empty_graph(self):
        g = AttributedGraph.build(3, [])
        assert (katz_index(g, BaselineConfig()).values == 0.0).all()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_series_oracle(self, seed):
        g = make_gnp(20, 0.2, seed)
        cfg = BaselineConfig(katz_beta=0.05)
        expected = oracle_katz_series(g.adjacency_matrix().toarray(), cfg.katz_beta)
        assert np.abs(katz_index(g, cfg).values - expected).max() < 1e-10

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("beta", [0.05, 0.1])
    def test_per_component_matches_series_oracle(self, seed, beta):
        g = several_components(seed)
        values = katz_index(g, BaselineConfig(katz_beta=beta)).values
        expected = oracle_katz_series(g.adjacency_matrix().toarray(), beta, terms=200)
        assert np.abs(values - expected).max() < 1e-10
        adj = [sorted(nbrs) for nbrs in adjacency_sets(g)]
        apart = np.array([[d < 0 for d in oracle_bfs_distances(adj, v)] for v in range(g.n)])
        assert apart.sum() > 0 and (values[apart] == 0.0).all()
        assert (np.diag(values) == 0.0).all()
        assert np.array_equal(values, values.T)

    def test_logs_component_sizes(self, caplog):
        with caplog.at_level(logging.INFO, logger="linkpred"):
            katz_index(several_components(0), BaselineConfig())
        assert caplog.messages == ["katz: 19 components, largest 14 of 40 nodes (15 isolated)"]

    def test_factorisation_failure_is_config_error(self, monkeypatch):
        # with the guard fooled into a radius of 0, beta = 0.9 leaves I - beta A
        # indefinite, which the Cholesky factorisation itself must refuse
        monkeypatch.setattr("linkpred.baselines.eigsh", lambda *args, **kwargs: np.zeros(1))
        with pytest.raises(ConfigError, match="makes the system singular"):
            katz_index(make_gnp(20, 0.4, 3), BaselineConfig(katz_beta=0.9))

    def test_beta_above_spectral_bound(self):
        g = make_gnp(20, 0.4, 3)
        with pytest.raises(ConfigError, match="spectral radius"):
            katz_index(g, BaselineConfig(katz_beta=0.9))

    @pytest.mark.parametrize("beta,accepted", [(0.50004, False), (0.49998, True)])
    def test_guard_is_exact_on_long_path(self, beta, accepted):
        # the spectral radius is 2 cos(pi/401) = 1.9999386; 100 power-iteration
        # steps read 1.99970 and so accepted beta = 0.50004, where the series diverges
        g = AttributedGraph.build(400, [(i, i + 1) for i in range(399)])
        if accepted:
            values = katz_index(g, BaselineConfig(katz_beta=beta)).values
            assert np.isfinite(values).all() and (values >= 0).all()
        else:
            with pytest.raises(ConfigError, match="spectral radius"):
                katz_index(g, BaselineConfig(katz_beta=beta))

    def test_small_beta_ranks_like_cn_at_distance_two(self):
        g = make_gnp(20, 0.25, 5)
        adj = adjacency_sets(g)
        katz = katz_index(g, BaselineConfig(katz_beta=1e-4)).values
        cn = local_index("cn", g).values
        pairs = [(x, y) for x in range(g.n) for y in range(x + 1, g.n)
                 if y not in adj[x] and adj[x] & adj[y]]
        cn_vals = np.array([cn[x, y] for x, y in pairs])
        katz_vals = np.array([katz[x, y] for x, y in pairs])
        # compare rankings only where common-neighbor counts are untied
        for a in range(len(pairs)):
            for b in range(a + 1, len(pairs)):
                if cn_vals[a] != cn_vals[b]:
                    assert (cn_vals[a] > cn_vals[b]) == (katz_vals[a] > katz_vals[b])


class TestBaselineConfig:
    @pytest.mark.parametrize("kwargs", [
        {"lp_epsilon": 0.0}, {"katz_beta": -1.0}, {"lp_epsilon": np.nan},
        {"lp_epsilon": np.inf}, {"katz_beta": np.nan}, {"katz_beta": np.inf},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigError):
            BaselineConfig(**kwargs)
