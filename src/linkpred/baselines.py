"""Classical topological link-prediction indices.

Eight local indices built on common-neighbor counts z = |N(x) ∩ N(y)| and
degrees k (cn, salton, jaccard, sorensen, hpi, hdi, lhn-i, pa; each one's
formula is its entry in ``_LOCAL_FORMULAS``), plus two path-based ones:

    lp        (A^2) + eps * (A^3)
    katz      sum_{l>=1} beta^l (A^l)  =  (I - beta A)^{-1} - I,
              by a Cholesky inverse per connected component

Every local numerator but pa's is a multiple of z, so those seven indices
are evaluated on the nonzeros of A^2 only. Zero denominators (isolated
endpoints) score 0. All outputs are symmetric and non-negative with a zero
diagonal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotri
from scipy.sparse.linalg import eigsh

from .errors import ConfigError
from .graph import AttributedGraph, per_component
from .propagation import ScoreMatrix

# kind -> (numerator, denominator) over the common-neighbor counts z and the
# degrees kx of the row node and ky of the column node; a kind builds only
# the arrays its formula needs, and pairs whose denominator is 0 score 0
_LOCAL_FORMULAS = {
    "cn": lambda z, kx, ky: (z, 1.0),
    "salton": lambda z, kx, ky: (z, np.sqrt(kx * ky)),
    "jaccard": lambda z, kx, ky: (z, kx + ky - z),
    "sorensen": lambda z, kx, ky: (2.0 * z, kx + ky),
    "hpi": lambda z, kx, ky: (z, np.minimum(kx, ky)),
    "hdi": lambda z, kx, ky: (z, np.maximum(kx, ky)),
    "lhn-i": lambda z, kx, ky: (z, kx * ky),
    "pa": lambda z, kx, ky: (kx * ky, 1.0),
}
LOCAL_INDEX_KINDS = tuple(_LOCAL_FORMULAS)

# alternate spellings of method names -> canonical name
ALIASES = {"sorenson": "sorensen", "lhn": "lhn-i", "lhn1": "lhn-i", "lhn-1": "lhn-i",
           "kaze": "katz"}


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


def canonical_name(name: str) -> str:
    """Lower-case, trimmed method name with aliases resolved; not validated."""
    key = name.strip().lower()
    return ALIASES.get(key, key)


def local_index(kind: str, graph: AttributedGraph) -> ScoreMatrix:
    """Score every node pair with one of the eight local indices.

    Every numerator but pa's is a multiple of z, so those kinds score 0 off
    the nonzeros of A^2: their formula is evaluated on those entries only,
    with the degrees of each entry's row and column, and scattered into a
    zero array. pa is evaluated on all pairs.
    """
    key = canonical_name(kind)
    formula = _LOCAL_FORMULAS.get(key)
    if formula is None:
        raise ConfigError(f"unknown local index {kind!r}; valid: {', '.join(LOCAL_INDEX_KINDS)}")
    deg = graph.degrees.astype(np.float64)
    values = np.zeros((graph.n, graph.n))
    if key == "pa":
        _evaluate(formula, None, deg[:, None], deg, out=values)
    else:
        adjacency = graph.adjacency_matrix()
        two_hop = (adjacency @ adjacency).tocoo()
        rows, cols = two_hop.row, two_hop.col
        values[rows, cols] = _evaluate(formula, two_hop.data, deg[rows], deg[cols],
                                       out=np.zeros(two_hop.nnz))
    np.fill_diagonal(values, 0.0)
    return ScoreMatrix(values=values)


def _evaluate(formula, z, kx, ky, out: np.ndarray) -> np.ndarray:
    """Write numerator / denominator of ``formula`` into the zeros ``out``
    where the denominator is positive; return ``out``."""
    numerator, denominator = formula(z, kx, ky)
    return np.divide(numerator, denominator, out=out, where=denominator > 0)


def lp_index(graph: AttributedGraph, cfg: BaselineConfig) -> ScoreMatrix:
    """Local-path index: 2-hop path counts plus eps times 3-hop counts."""
    adjacency = graph.adjacency_matrix()
    two_hop = adjacency @ adjacency
    three_hop = two_hop @ adjacency
    values = two_hop.toarray() + cfg.lp_epsilon * three_hop.toarray()
    np.fill_diagonal(values, 0.0)
    return ScoreMatrix(values=values)


def katz_index(graph: AttributedGraph, cfg: BaselineConfig) -> ScoreMatrix:
    """Damped count of paths of every length, by a Cholesky inverse per component.

    Requires katz_beta below the reciprocal spectral radius of the
    adjacency matrix so the path series converges. For a non-negative
    symmetric matrix the radius is the largest eigenvalue, computed by
    Lanczos iteration (``eigsh``) to machine precision. Below it,
    I - beta A is symmetric positive definite, and block-diagonal over the
    connected components: each component of two or more nodes is inverted
    on its own by a Cholesky factorisation (LAPACK ``potrf`` + ``potri``),
    and pairs in different components, or with an isolated node, score 0.
    Negative entries of the inverse, which only rounding can produce once
    beta passes that check, are clamped to 0.
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

    def invert(block) -> np.ndarray:
        system = np.eye(block.shape[0]) - cfg.katz_beta * block.toarray()
        # the system is symmetric, so its transpose is the same matrix in the
        # Fortran order LAPACK factors in place
        factor, info = dpotrf(system.T, overwrite_a=True)
        if info == 0:
            inverse, info = dpotri(factor, overwrite_c=True)
        if info:
            raise ConfigError(
                f"katz_beta={cfg.katz_beta} makes the system singular; "
                f"choose beta < 1/spectral radius ≈ {1.0 / max(radius, 1e-300):.6g}"
            )
        # off the diagonal, (I - beta A)^{-1} - I is the inverse itself, and
        # potri writes only its upper triangle: keep that and mirror it
        values = np.triu(np.maximum(inverse, 0.0, out=inverse), 1)
        values += values.T
        return values

    return ScoreMatrix(values=per_component(graph, invert, "katz"))
