"""Pairwise attribute similarity and per-edge transmission weights."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError
from .graph import AttributedGraph


@dataclass(frozen=True)
class SimilarityMatrix:
    """Symmetric n x n attribute-similarity matrix.

    Entries lie in [0, 1] for non-negative attributes. Rows with an all-zero
    attribute vector are 0 everywhere, including the diagonal (no evidence
    of affinity).
    """

    values: np.ndarray

    @property
    def n(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class TransmissionWeights:
    """Per-edge transmission probabilities.

    ``edge_prob`` is a sparse symmetric matrix holding the attribute
    similarity of each edge's endpoints (zero off the edge set).
    """

    edge_prob: sp.csr_matrix

    @property
    def n(self) -> int:
        return self.edge_prob.shape[0]


def similarity_matrix(graph: AttributedGraph) -> SimilarityMatrix:
    """All-pairs attribute similarity of a graph's nodes.

    Computed as X X^T from the row-normalized attribute vectors X. numpy
    forms that product with a symmetric rank-k update, which computes one
    triangle and copies it, so the result is bitwise symmetric without a
    mirror step. The diagonal is exactly 1 for nodes with a nonzero
    attribute vector and 0 otherwise.
    """
    if graph.attr_dim == 0:
        raise ConfigError("graph has no attributes loaded")
    T = graph.attributes
    norms = np.linalg.norm(T, axis=1)
    nonzero = norms > 0
    normalized = np.zeros_like(T)
    normalized[nonzero] = T[nonzero] / norms[nonzero, None]
    values = np.clip(normalized @ normalized.T, -1.0, 1.0)
    values[np.diag_indices(graph.n)] = nonzero.astype(np.float64)
    return SimilarityMatrix(values=values)


def transmission_weights(graph: AttributedGraph, sim: SimilarityMatrix) -> TransmissionWeights:
    """Per-edge transmission probabilities from attribute similarities.

    Each edge carries the similarity of its endpoints; negative
    similarities (possible only with negative attribute inputs) are
    clamped to 0 before use as probabilities.
    """
    if sim.n != graph.n:
        raise ValueError("similarity matrix does not match graph size")
    row_ids = np.repeat(np.arange(graph.n), graph.degrees)
    data = np.maximum(sim.values[row_ids, graph.indices], 0.0)
    edge_prob = sp.csr_matrix((data, graph.indices.copy(), graph.indptr.copy()),
                              shape=(graph.n, graph.n))
    return TransmissionWeights(edge_prob=edge_prob)
