from __future__ import annotations

import numpy as np
import pytest

from linkpred import (AttributedGraph, ConfigError, SimilarityMatrix,
                      cosine_similarity, similarity_matrix, transmission_weights)
from _helpers import make_gnp
from _oracles import oracle_sim_matrix


class TestCosineSimilarity:
    def test_identical_vectors(self):
        assert cosine_similarity((1, 0, 0), (1, 0, 0)) == 1.0

    def test_orthogonal_vectors(self):
        assert cosine_similarity((1, 0), (0, 1)) == 0.0

    def test_half_overlap(self):
        # 1/sqrt(2), evaluated by hand
        assert cosine_similarity((1, 1), (1, 0)) == pytest.approx(0.7071067811865475, abs=1e-15)

    def test_zero_vector_convention(self):
        assert cosine_similarity((0, 0), (1, 0)) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="differ in length"):
            cosine_similarity((1, 0), (1, 0, 0))

    @pytest.mark.parametrize("seed", range(5))
    def test_positive_scaling_invariance(self, seed):
        rng = np.random.default_rng(seed)
        u, v = rng.random(6), rng.random(6)
        base = cosine_similarity(u, v)
        for factor in (1e-3, 3.7, 250.0):
            assert cosine_similarity(factor * u, v) == pytest.approx(base, abs=1e-12)


class TestSimilarityMatrix:
    def test_uniform_attributes(self):
        g = AttributedGraph.build(4, [(0, 1)], attributes=np.ones((4, 3)))
        assert (similarity_matrix(g).values == 1.0).all()

    def test_orthogonal_attributes(self):
        g = AttributedGraph.build(3, [(0, 1)], attributes=np.eye(3))
        assert np.array_equal(similarity_matrix(g).values, np.eye(3))

    def test_three_node_values(self):
        g = AttributedGraph.build(3, [(0, 1), (1, 2)],
                                  attributes=np.array([[1., 1.], [1., 0.], [0., 1.]]))
        values = similarity_matrix(g).values
        root_half = 0.7071067811865475
        assert values[0, 1] == pytest.approx(root_half, abs=1e-12)
        assert values[0, 2] == pytest.approx(root_half, abs=1e-12)
        assert values[1, 2] == 0.0

    def test_bitwise_symmetry(self):
        g = make_gnp(40, 0.1, 3, attrs="random", attr_dim=6)
        values = similarity_matrix(g).values
        assert np.array_equal(values, values.T)

    @pytest.mark.parametrize("n,m", [(1, 1), (2, 3), (7, 1), (64, 2), (300, 5), (1465, 50)])
    def test_bitwise_symmetry_across_shapes(self, n, m):
        # no mirror step: X X^T must come out symmetric from the product
        # itself, with zero rows and negative attributes included
        rng = np.random.default_rng(n * m)
        attrs = rng.random((n, m)) - 0.3
        attrs[rng.random(n) < 0.1] = 0.0
        values = similarity_matrix(AttributedGraph.build(n, [], attributes=attrs)).values
        assert np.array_equal(values.view(np.int64), values.T.view(np.int64))

    def test_zero_row_zero_diagonal(self):
        g = AttributedGraph.build(2, [(0, 1)], attributes=np.array([[0., 0.], [1., 0.]]))
        values = similarity_matrix(g).values
        assert values[0, 0] == 0.0
        assert values[1, 1] == 1.0
        assert values[0, 1] == 0.0

    def test_matches_oracle(self):
        g = make_gnp(15, 0.2, 9, attrs="random", attr_dim=5)
        expected = np.array(oracle_sim_matrix(g.attributes.tolist()))
        np.fill_diagonal(expected, 1.0)
        assert np.allclose(similarity_matrix(g).values, expected, atol=1e-12)

    def test_requires_attributes(self):
        with pytest.raises(ConfigError, match="no attributes"):
            similarity_matrix(AttributedGraph.build(2, [(0, 1)]))

    def test_unknown_kind(self):
        g = AttributedGraph.build(2, [(0, 1)], attributes=np.ones((2, 1)))
        with pytest.raises(ConfigError, match="unknown similarity kind"):
            similarity_matrix(g, kind="euclidean")


class TestTransmissionWeights:
    def test_uniform_attributes_give_degree_sums(self):
        g = make_gnp(20, 0.2, 1, attrs="uniform")
        weights = transmission_weights(g, similarity_matrix(g))
        assert np.array_equal(weights.node_sum, g.degrees.astype(float))
        assert (weights.edge_prob.data == 1.0).all()

    def test_node_sum_is_direct_sum(self):
        g = AttributedGraph.build(3, [(0, 1), (0, 2)])
        sim = SimilarityMatrix(values=np.array([
            [1.0, 0.2, 0.3],
            [0.2, 1.0, 0.0],
            [0.3, 0.0, 1.0],
        ]))
        weights = transmission_weights(g, sim)
        assert weights.node_sum[0] == pytest.approx(0.5, abs=1e-15)

    def test_isolated_node_sum_zero(self):
        g = AttributedGraph.build(3, [(0, 1)], attributes=np.ones((3, 2)))
        weights = transmission_weights(g, similarity_matrix(g))
        assert weights.node_sum[2] == 0.0

    def test_negative_similarity_clamped(self):
        g = AttributedGraph.build(2, [(0, 1)],
                                  attributes=np.array([[1., 0.], [-1., 0.]]))
        weights = transmission_weights(g, similarity_matrix(g))
        assert (weights.edge_prob.data >= 0.0).all()
        assert weights.node_sum[0] == 0.0

    @pytest.mark.parametrize("seed", range(3))
    def test_row_sum_consistency(self, seed):
        g = make_gnp(30, 0.15, seed, attrs="random")
        weights = transmission_weights(g, similarity_matrix(g))
        dense = weights.edge_prob.toarray()
        assert np.array_equal(dense, dense.T)
        assert np.allclose(dense.sum(axis=1), weights.node_sum, atol=1e-12)
