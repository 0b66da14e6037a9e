from __future__ import annotations

import numpy as np
import pytest

from linkpred import AttributedGraph, ConfigError, similarity_matrix, transmission_weights
from _helpers import adjacency_sets, make_gnp
from _oracles import oracle_cosine, oracle_sim_matrix


def _pair_cosine(u, v) -> float:
    # the off-diagonal entry of the similarity matrix of two nodes
    attrs = np.array([u, v], dtype=np.float64)
    return similarity_matrix(AttributedGraph.build(2, [], attributes=attrs))[0, 1]


class TestCosineSimilarity:
    """Pairwise entries of ``similarity_matrix``."""

    def test_identical_vectors(self):
        assert _pair_cosine((1, 0, 0), (1, 0, 0)) == 1.0

    def test_orthogonal_vectors(self):
        assert _pair_cosine((1, 0), (0, 1)) == 0.0

    def test_half_overlap(self):
        # 1/sqrt(2), evaluated by hand
        assert _pair_cosine((1, 1), (1, 0)) == pytest.approx(0.7071067811865475, abs=1e-15)

    def test_zero_vector_convention(self):
        # an all-zero vector has similarity 0 to everything, another zero
        # vector and itself included (0, not the nan of 0/0)
        values = similarity_matrix(AttributedGraph.build(
            3, [], attributes=np.array([[0., 0.], [0., 0.], [1., 0.]])))
        assert values.tolist() == [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 1.0]]

    @pytest.mark.parametrize("seed", range(5))
    def test_positive_scaling_invariance(self, seed):
        rng = np.random.default_rng(seed)
        u, v = rng.random(6), rng.random(6)
        base = _pair_cosine(u, v)
        assert base == pytest.approx(oracle_cosine(u.tolist(), v.tolist()), abs=1e-12)
        for factor in (1e-300, 1e-3, 3.7, 250.0, 1e300):
            assert _pair_cosine(factor * u, v) == pytest.approx(base, abs=1e-12)


class TestSimilarityMatrix:
    def test_uniform_attributes(self):
        g = AttributedGraph.build(4, [(0, 1)], attributes=np.ones((4, 3)))
        assert (similarity_matrix(g) == 1.0).all()

    def test_orthogonal_attributes(self):
        g = AttributedGraph.build(3, [(0, 1)], attributes=np.eye(3))
        assert np.array_equal(similarity_matrix(g), np.eye(3))

    def test_three_node_values(self):
        g = AttributedGraph.build(3, [(0, 1), (1, 2)],
                                  attributes=np.array([[1., 1.], [1., 0.], [0., 1.]]))
        values = similarity_matrix(g)
        root_half = 0.7071067811865475
        assert values[0, 1] == pytest.approx(root_half, abs=1e-12)
        assert values[0, 2] == pytest.approx(root_half, abs=1e-12)
        assert values[1, 2] == 0.0

    def test_bitwise_symmetry(self):
        g = make_gnp(40, 0.1, 3, attrs="random", attr_dim=6)
        values = similarity_matrix(g)
        assert np.array_equal(values, values.T)

    @pytest.mark.parametrize("n,m", [(1, 1), (2, 3), (7, 1), (64, 2), (300, 5), (1465, 50)])
    def test_bitwise_symmetry_across_shapes(self, n, m):
        # no mirror step: X X^T must come out symmetric from the product
        # itself, with zero rows and negative attributes included
        rng = np.random.default_rng(n * m)
        attrs = rng.random((n, m)) - 0.3
        attrs[rng.random(n) < 0.1] = 0.0
        values = similarity_matrix(AttributedGraph.build(n, [], attributes=attrs))
        assert np.array_equal(values.view(np.int64), values.T.view(np.int64))

    def test_zero_row_zero_diagonal(self):
        g = AttributedGraph.build(2, [(0, 1)], attributes=np.array([[0., 0.], [1., 0.]]))
        values = similarity_matrix(g)
        assert values[0, 0] == 0.0
        assert values[1, 1] == 1.0
        assert values[0, 1] == 0.0

    def test_matches_oracle(self):
        g = make_gnp(15, 0.2, 9, attrs="random", attr_dim=5)
        expected = np.array(oracle_sim_matrix(g.attributes.tolist()))
        np.fill_diagonal(expected, 1.0)
        assert np.allclose(similarity_matrix(g), expected, atol=1e-12)

    def test_requires_attributes(self):
        with pytest.raises(ConfigError, match="no attributes"):
            similarity_matrix(AttributedGraph.build(2, [(0, 1)]))


def _node_sums(weights) -> np.ndarray:
    return np.asarray(weights.sum(axis=1)).ravel()


class TestTransmissionWeights:
    def test_uniform_attributes_give_degree_sums(self):
        g = make_gnp(20, 0.2, 1, attrs="uniform")
        weights = transmission_weights(g, similarity_matrix(g))
        assert np.array_equal(_node_sums(weights), g.degrees.astype(float))
        assert (weights.data == 1.0).all()

    def test_node_sum_is_direct_sum(self):
        g = AttributedGraph.build(3, [(0, 1), (0, 2)])
        sim = np.array([
            [1.0, 0.2, 0.3],
            [0.2, 1.0, 0.0],
            [0.3, 0.0, 1.0],
        ])
        weights = transmission_weights(g, sim)
        assert _node_sums(weights)[0] == pytest.approx(0.5, abs=1e-15)

    def test_isolated_node_sum_zero(self):
        g = AttributedGraph.build(3, [(0, 1)], attributes=np.ones((3, 2)))
        weights = transmission_weights(g, similarity_matrix(g))
        assert _node_sums(weights)[2] == 0.0

    def test_negative_similarity_clamped(self):
        g = AttributedGraph.build(2, [(0, 1)],
                                  attributes=np.array([[1., 0.], [-1., 0.]]))
        weights = transmission_weights(g, similarity_matrix(g))
        assert (weights.data >= 0.0).all()
        assert _node_sums(weights)[0] == 0.0

    @pytest.mark.parametrize("seed", range(3))
    def test_row_sum_consistency(self, seed):
        # edge weights are the oracle cosines on the edge set, 0 elsewhere
        g = make_gnp(30, 0.15, seed, attrs="random")
        weights = transmission_weights(g, similarity_matrix(g))
        dense = weights.toarray()
        assert np.array_equal(dense, dense.T)
        sim = oracle_sim_matrix(g.attributes.tolist())
        adj = adjacency_sets(g)
        sums = [sum(sim[i][j] for j in adj[i]) for i in range(g.n)]
        assert np.allclose(_node_sums(weights), sums, atol=1e-12)
