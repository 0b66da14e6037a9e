from __future__ import annotations

import math

import numpy as np
import pytest

from linkpred import (AttributedGraph, ConfigError, assortativity, avg_degree,
                      clustering_coefficient, components, efficiency, format_stats,
                      generate_planted_attribute_graph, stats_report)
from _helpers import adjacency_sets, make_gnp
from _oracles import (oracle_assortativity, oracle_clustering, oracle_components,
                      oracle_cosine, oracle_efficiency)


def triangle():
    return AttributedGraph.build(3, [(0, 1), (1, 2), (0, 2)])


def path3():
    return AttributedGraph.build(3, [(0, 1), (1, 2)])


def two_components():
    return AttributedGraph.build(5, [(0, 1), (1, 2), (3, 4)])


class TestComponents:
    def test_path(self):
        assert components(path3()) == (3, 1)

    def test_isolated_nodes(self):
        assert components(AttributedGraph.build(3, [])) == (1, 3)

    def test_two_components(self):
        assert components(two_components()) == (3, 2)

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_traversal_oracle(self, seed):
        g = make_gnp(40, 0.05, seed)
        assert components(g) == oracle_components(adjacency_sets(g))

    def test_format_largest_over_count(self):
        row = stats_report(two_components())
        assert row.num_c == "3/2"


class TestAvgDegree:
    def test_triangle(self):
        assert avg_degree(triangle()) == 2.0

    def test_published_scale(self):
        # 2 * 1209 / 1465 rounds to 1.6505 at 4 decimals
        assert round(2 * 1209 / 1465, 4) == 1.6505

    def test_empty_graph_undefined(self):
        with pytest.raises(ValueError):
            avg_degree(AttributedGraph.build(0, []))

    @pytest.mark.parametrize("seed", range(3))
    def test_consistent_with_edge_count(self, seed):
        g = make_gnp(30, 0.2, seed)
        assert abs(avg_degree(g) * g.n - 2 * g.m_edges) < 1e-9


class TestClustering:
    def test_triangle(self):
        assert clustering_coefficient(triangle()) == 1.0

    def test_path(self):
        assert clustering_coefficient(path3()) == 0.0

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_triangle_enumeration(self, seed):
        g = make_gnp(25, 0.25, seed)
        expected = oracle_clustering(adjacency_sets(g))
        assert clustering_coefficient(g) == pytest.approx(expected, abs=1e-12)

    def test_low_degree_nodes_count_as_zero(self):
        # star plus one triangle edge: local values 1/3, 1, 1 and 0 for the leaf
        g = AttributedGraph.build(4, [(0, 1), (0, 2), (0, 3), (1, 2)])
        assert clustering_coefficient(g) == pytest.approx(7 / 12, abs=1e-15)


class TestAssortativity:
    def test_star_is_minus_one(self):
        star = AttributedGraph.build(4, [(0, 1), (0, 2), (0, 3)])
        assert assortativity(star) == pytest.approx(-1.0, abs=1e-12)

    def test_regular_graph_degenerate(self):
        assert math.isnan(assortativity(triangle()))

    def test_edgeless_degenerate(self):
        assert math.isnan(assortativity(AttributedGraph.build(3, [])))

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_direct_sum_oracle(self, seed):
        g = make_gnp(30, 0.15, seed)
        expected = oracle_assortativity(g.edges.tolist(), g.degrees.tolist())
        got = assortativity(g)
        if math.isnan(expected):
            assert math.isnan(got)
        else:
            assert got == pytest.approx(expected, abs=1e-10)


class TestEfficiency:
    def test_complete_graph(self):
        assert efficiency(triangle()) == 1.0

    def test_disconnected_pair(self):
        assert efficiency(AttributedGraph.build(2, [])) == 0.0

    def test_path_value(self):
        assert efficiency(path3()) == pytest.approx(5 / 6, abs=1e-12)

    def test_single_node_undefined(self):
        with pytest.raises(ValueError):
            efficiency(AttributedGraph.build(1, []))

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_bfs_oracle(self, seed):
        g = make_gnp(25, 0.1, seed)
        assert efficiency(g) == pytest.approx(oracle_efficiency(adjacency_sets(g)), abs=1e-12)

    def test_monotone_under_edge_addition(self):
        rng = np.random.default_rng(17)
        n = 12
        all_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        rng.shuffle(all_pairs)
        edges = []
        previous = efficiency(AttributedGraph.build(n, []))
        for pair in all_pairs[:30]:
            edges.append(pair)
            current = efficiency(AttributedGraph.build(n, edges))
            assert current >= previous - 1e-12
            previous = current


class TestStatsReport:
    def test_triangle_row(self):
        row = stats_report(triangle())
        assert (row.n_nodes, row.n_edges, row.n_attributes) == (3, 3, 0)
        assert (row.largest_component, row.n_components) == (3, 1)
        assert row.efficiency == 1.0
        assert row.clustering == 1.0
        assert math.isnan(row.assortativity)
        assert row.avg_degree == 2.0

    def test_path_row(self):
        row = stats_report(path3())
        assert row.efficiency == pytest.approx(5 / 6, abs=1e-12)
        assert row.clustering == 0.0
        assert row.assortativity == pytest.approx(-1.0, abs=1e-12)
        assert row.avg_degree == pytest.approx(4 / 3, abs=1e-12)

    def test_two_component_row(self):
        row = stats_report(two_components())
        assert row.num_c == "3/2"
        assert row.efficiency == pytest.approx(0.35, abs=1e-12)
        assert row.clustering == 0.0
        assert row.assortativity == pytest.approx(-0.5, abs=1e-12)
        assert row.avg_degree == pytest.approx(1.2, abs=1e-12)

    def test_format_renders_nan_as_na(self):
        text = format_stats(stats_report(triangle()))
        header, values = text.splitlines()
        assert header.split()[:4] == ["N", "M", "Att", "NUM_C"]
        assert "n/a" in values


class TestGenerator:
    def test_pure_groups(self):
        g = generate_planted_attribute_graph(40, 4, 0.5, 0.0, 0.0, seed=0)
        attrs = g.attributes
        for i in range(0, 40, 7):
            for j in range(0, 40, 5):
                sim = oracle_cosine(attrs[i].tolist(), attrs[j].tolist())
                if np.argmax(attrs[i]) == np.argmax(attrs[j]):
                    assert sim == pytest.approx(1.0, abs=1e-12)
                else:
                    assert sim == 0.0

    def test_expected_edge_count(self):
        n, k, p_in, p_out = 120, 4, 0.2, 0.02
        g = generate_planted_attribute_graph(n, k, p_in, p_out, 0.1, seed=1)
        within = k * (30 * 29 // 2)
        cross = n * (n - 1) // 2 - within
        mean = within * p_in + cross * p_out
        sigma = math.sqrt(within * p_in * (1 - p_in) + cross * p_out * (1 - p_out))
        assert abs(g.m_edges - mean) < 5 * sigma

    def test_deterministic(self):
        a = generate_planted_attribute_graph(50, 3, 0.3, 0.05, 0.1, seed=9)
        b = generate_planted_attribute_graph(50, 3, 0.3, 0.05, 0.1, seed=9)
        assert np.array_equal(a.edges, b.edges)
        assert np.array_equal(a.attributes, b.attributes)

    @pytest.mark.parametrize("p_in,p_out", [(0.5, 0.5), (0.2, 0.3), (1.5, 0.0), (0.5, -0.1)])
    def test_invalid_probabilities(self, p_in, p_out):
        with pytest.raises(ConfigError):
            generate_planted_attribute_graph(20, 2, p_in, p_out, 0.0, seed=0)

    def test_noise_mass(self):
        g = generate_planted_attribute_graph(30, 3, 0.5, 0.0, 0.25, seed=3)
        sums = g.attributes.sum(axis=1)
        assert np.allclose(sums, 1.25, atol=1e-12)
