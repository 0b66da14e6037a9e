"""Pairwise attribute similarity and per-edge transmission weights."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError
from .graph import AttributedGraph

SIMILARITY_KINDS = ("cosine",)


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
    """Per-edge transmission probabilities and their per-node sums.

    ``edge_prob`` is a sparse symmetric matrix holding the attribute
    similarity of each edge's endpoints (zero off the edge set);
    ``node_sum`` is its row sum, the total similarity mass a node shares
    with its neighbors.
    """

    edge_prob: sp.csr_matrix
    node_sum: np.ndarray

    @property
    def n(self) -> int:
        return self.edge_prob.shape[0]


def cosine_similarity(t_i: np.ndarray, t_j: np.ndarray) -> float:
    """Cosine of the angle between two attribute vectors.

    Returns 0.0 if either vector is all zero. The result is clipped to
    [-1, 1] to keep downstream probabilities in range.
    """
    t_i = np.asarray(t_i, dtype=np.float64)
    t_j = np.asarray(t_j, dtype=np.float64)
    if t_i.shape != t_j.shape:
        raise ValueError(f"attribute vectors differ in length: {t_i.shape} vs {t_j.shape}")
    norm_i = np.linalg.norm(t_i)
    norm_j = np.linalg.norm(t_j)
    if norm_i == 0.0 or norm_j == 0.0:
        return 0.0
    return float(np.clip(np.dot(t_i, t_j) / (norm_i * norm_j), -1.0, 1.0))


def similarity_matrix(graph: AttributedGraph, kind: str = "cosine") -> SimilarityMatrix:
    """All-pairs attribute similarity of a graph's nodes.

    Computed as X X^T from the row-normalized attribute vectors X. numpy
    forms that product with a symmetric rank-k update, which computes one
    triangle and copies it, so the result is bitwise symmetric without a
    mirror step. The diagonal is exactly 1 for nodes with a nonzero
    attribute vector and 0 otherwise.
    """
    if kind not in SIMILARITY_KINDS:
        raise ConfigError(f"unknown similarity kind {kind!r}; valid: {', '.join(SIMILARITY_KINDS)}")
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
    node_sum = np.asarray(edge_prob.sum(axis=1)).ravel()
    return TransmissionWeights(edge_prob=edge_prob, node_sum=node_sum)
