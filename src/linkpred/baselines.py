"""Classical topological link-prediction indices.

Eight local indices built on common-neighbor counts z = |N(x) ∩ N(y)| and
degrees k, plus two path-based ones:

    cn        z
    salton    z / sqrt(k_x * k_y)
    jaccard   z / |N(x) ∪ N(y)|
    sorensen  2z / (k_x + k_y)
    hpi       z / min(k_x, k_y)
    hdi       z / max(k_x, k_y)
    lhn-i     z / (k_x * k_y)
    pa        k_x * k_y
    lp        (A^2) + eps * (A^3)
    katz      sum_{l>=1} beta^l (A^l)  =  (I - beta A)^{-1} - I

Zero denominators (isolated endpoints) score 0. All outputs are symmetric
and non-negative with a zero diagonal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import eigsh

from .errors import ConfigError
from .graph import AttributedGraph
from .propagation import ScoreMatrix

LOCAL_INDEX_KINDS = ("cn", "salton", "jaccard", "sorensen", "hpi", "hdi", "lhn-i", "pa")


@dataclass
class BaselineConfig:
    lp_epsilon: float = 0.001
    katz_beta: float = 0.001

    def __post_init__(self) -> None:
        # chained comparisons are false for nan, so nan fails too
        if not 0.0 < self.lp_epsilon < np.inf:
            raise ConfigError(f"lp_epsilon must be positive and finite, got {self.lp_epsilon}")
        if not 0.0 < self.katz_beta < np.inf:
            raise ConfigError(f"katz_beta must be positive and finite, got {self.katz_beta}")


def _canonical_kind(kind: str) -> str:
    key = kind.strip().lower()
    if key == "sorenson":  # common alternate spelling
        key = "sorensen"
    if key in ("lhn", "lhn1", "lhn-1"):
        key = "lhn-i"
    return key


def local_index(kind: str, graph: AttributedGraph) -> ScoreMatrix:
    """Score every node pair with one of the eight local indices."""
    key = _canonical_kind(kind)
    if key not in LOCAL_INDEX_KINDS:
        raise ConfigError(f"unknown local index {kind!r}; valid: {', '.join(LOCAL_INDEX_KINDS)}")
    adjacency = graph.adjacency_matrix()
    common = (adjacency @ adjacency).toarray()
    np.fill_diagonal(common, 0.0)
    deg = graph.degrees.astype(np.float64)
    k_outer = np.multiply.outer(deg, deg)
    k_sum = np.add.outer(deg, deg)

    if key == "cn":
        values = common
    elif key == "pa":
        values = k_outer.copy()
    else:
        if key == "salton":
            denom = np.sqrt(k_outer)
        elif key == "jaccard":
            denom = k_sum - common
        elif key == "sorensen":
            denom = k_sum
            common = 2.0 * common
        elif key == "hpi":
            denom = np.minimum.outer(deg, deg)
        elif key == "hdi":
            denom = np.maximum.outer(deg, deg)
        else:  # lhn-i
            denom = k_outer
        values = np.zeros_like(common)
        np.divide(common, denom, out=values, where=denom > 0)
    np.fill_diagonal(values, 0.0)
    return ScoreMatrix(values=values)


def lp_index(graph: AttributedGraph, cfg: BaselineConfig) -> ScoreMatrix:
    """Local-path index: 2-hop path counts plus eps times 3-hop counts."""
    adjacency = graph.adjacency_matrix()
    two_hop = adjacency @ adjacency
    three_hop = two_hop @ adjacency
    values = two_hop.toarray() + cfg.lp_epsilon * three_hop.toarray()
    np.fill_diagonal(values, 0.0)
    return ScoreMatrix(values=values)


def katz_index(graph: AttributedGraph, cfg: BaselineConfig) -> ScoreMatrix:
    """Damped count of paths of every length, by direct linear solve.

    Requires katz_beta below the reciprocal spectral radius of the
    adjacency matrix so the path series converges. For a non-negative
    symmetric matrix the radius is the largest eigenvalue, computed by
    Lanczos iteration (``eigsh``) to machine precision. Negative entries
    of the inverse, which only rounding can produce once beta passes that
    check, are clamped to 0.
    """
    adjacency = graph.adjacency_matrix()
    radius = 0.0
    if adjacency.nnz:
        radius = float(eigsh(adjacency, k=1, which="LA", v0=np.ones(graph.n),
                             return_eigenvectors=False)[0])
    if cfg.katz_beta * radius >= 1.0:
        raise ConfigError(
            f"katz_beta={cfg.katz_beta} too large: must be < 1/spectral radius ≈ {1.0 / radius:.6g}"
        )
    n = graph.n
    system = np.eye(n) - cfg.katz_beta * adjacency.toarray()
    try:
        inverse = np.linalg.solve(system, np.eye(n))
    except np.linalg.LinAlgError:
        raise ConfigError(
            f"katz_beta={cfg.katz_beta} makes the system singular; "
            f"choose beta < 1/spectral radius ≈ {1.0 / max(radius, 1e-300):.6g}"
        ) from None
    # off the diagonal, (I - beta A)^{-1} - I is the inverse itself; the LU
    # solve is not exactly symmetric, so keep its upper triangle and mirror it
    values = np.triu(np.maximum(inverse, 0.0, out=inverse), 1)
    values += values.T
    return ScoreMatrix(values=values)
