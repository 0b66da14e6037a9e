"""Fixed-point similarity-propagation solvers.

Two solvers share one sweep and one Jacobi loop: the attribute-weighted
recursion, in which each edge transmits score in proportion to the
attribute similarity of its endpoints, and the classic structural-similarity
recursion (every sweep averages scores over neighbor pairs, damped by the
attenuation coefficient), which is the weighted one with unit edge weights.

The weighted sweep updates every off-diagonal pair (a, b) to

    c * sum_{x in N(a), y in N(b)} (w(x,a) + w(y,b)) * s(x, y) / D(a, b)

with D(a, b) = deg(b)*W(a) + deg(a)*W(b), where w is the per-edge
transmission weight and W the per-node weight sum. Since the inner weights
sum to exactly D(a, b), each sweep is c times a convex combination of
previous scores: iterates stay in [0, 1] and the map contracts with factor
c, so the fixed point is unique and init-independent. Pairs with D = 0
(isolated endpoint or all-zero weight sums) score 0; the diagonal is
pinned to 1.

In matrix form a sweep is c * (W S A + A S W) / D. It runs as two sparse
products, W S and A (W S)^T, then one fused pass over square tiles of the
upper triangle that adds each tile of the second product to the transpose
of its mirror tile, divides by the precomputed D/c, writes the tile and
its transpose, and takes the sup-norm change. Iterates are therefore symmetric
by construction, with no mirror pass. A solve holds four dense n x n
arrays (two swapped iterates, D/c, and the transposed operand of the
second product) plus the two sparse-product outputs of the sweep.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .graph import AttributedGraph
from .similarity import SimilarityMatrix, TransmissionWeights, similarity_matrix, transmission_weights

logger = logging.getLogger(__name__)

INIT_MODES = ("identity", "attrsim")

# Edge of the square tiles the sweep works on; 128 and 256 run fastest at
# n = 3000, 512 is slower.
_TILE = 256


@dataclass
class PropagationConfig:
    """Solver knobs: damping, stop rule, and score initialization."""

    c: float = 0.8
    tolerance: float = 1e-6
    max_iterations: int = 100
    init_mode: str = "attrsim"

    def __post_init__(self) -> None:
        if not 0.0 < self.c < 1.0:
            raise ConfigError(f"attenuation coefficient c must be in (0, 1), got {self.c}")
        if not 0.0 < self.tolerance < np.inf:  # false for nan as well
            raise ConfigError(f"tolerance must be positive and finite, got {self.tolerance}")
        if self.max_iterations < 1:
            raise ConfigError(f"max_iterations must be >= 1, got {self.max_iterations}")
        if self.init_mode not in INIT_MODES:
            raise ConfigError(f"init_mode must be one of {INIT_MODES}, got {self.init_mode!r}")


@dataclass
class ScoreMatrix:
    """Symmetric n x n link-score matrix plus iteration metadata.

    Solver outputs guarantee a unit diagonal, entries in [0, 1], and exact
    (bitwise) symmetry. ``deltas`` records the sup-norm change of every
    sweep; ``final_delta`` is its last entry.
    """

    values: np.ndarray
    iterations: int = 0
    converged: bool = True
    final_delta: float = 0.0
    deltas: list = field(default_factory=list)

    @property
    def n(self) -> int:
        return self.values.shape[0]


class _TiledSweep:
    """One Jacobi sweep S -> c * (W S A + A S W) / D, fused over tiles.

    ``cross = A (W S)^T`` is formed once per sweep; each upper tile pair
    (I, J) then takes ``cross[I, J] + cross[J, I]^T`` over ``D[I, J] / c``
    and writes it to both (I, J) and (J, I), so every output is bitwise
    symmetric without a separate mirror pass. The transposed operand of the
    second product lives in a buffer allocated once per solve.
    """

    def __init__(self, adjacency, edge_prob, c: float) -> None:
        n = adjacency.shape[0]
        self.adjacency = adjacency
        self.edge_prob = edge_prob
        # D (module docstring) from the row sums deg of A and W of the edge
        # weights; symmetric by commutativity. Sweeps divide by D / c, inf
        # where D = 0 so those pairs score 0, rather than multiply by c / D,
        # which overflows to inf when D is subnormal (a near-zero attribute
        # similarity).
        deg = np.asarray(adjacency.sum(axis=1)).ravel()
        weight = np.asarray(edge_prob.sum(axis=1)).ravel()
        self.d_over_c = np.multiply.outer(weight, deg) + np.multiply.outer(deg, weight)
        self.d_over_c /= c
        self.d_over_c[self.d_over_c == 0.0] = np.inf
        self.transposed = np.empty((n, n))
        self.tile = np.empty((min(n, _TILE), min(n, _TILE)))
        self.spans = [slice(lo, min(lo + _TILE, n)) for lo in range(0, n, _TILE)]

    def _transposed_product(self, scores: np.ndarray) -> np.ndarray:
        ws = self.edge_prob @ scores
        for rows in self.spans:
            for cols in self.spans:
                self.transposed[rows, cols] = ws[cols, rows].T
        return self.transposed

    def __call__(self, scores: np.ndarray, out: np.ndarray) -> float:
        """Write the sweep of ``scores`` into ``out``; return max |out - scores|.

        The change is read on the upper tiles only, which covers every entry
        when ``scores`` is symmetric, as every solver iterate is.
        """
        cross = self.adjacency @ self._transposed_product(scores)
        tile_deltas = []
        for first, rows in enumerate(self.spans):
            for cols in self.spans[first:]:
                blk = self.tile[:rows.stop - rows.start, :cols.stop - cols.start]
                np.add(cross[rows, cols], cross[cols, rows].T, out=blk)
                blk /= self.d_over_c[rows, cols]
                if rows == cols:
                    np.fill_diagonal(blk, 1.0)
                else:
                    out[cols, rows] = blk.T
                out[rows, cols] = blk
                blk -= scores[rows, cols]
                tile_deltas.append(np.abs(blk, out=blk).max())
        return float(np.max(tile_deltas, initial=0.0))


def _fixed_point(sweep: _TiledSweep, scores: np.ndarray, cfg: PropagationConfig,
                 label: str) -> ScoreMatrix:
    # Jacobi iteration over two swapped buffers; ``scores`` is overwritten.
    nxt = np.empty_like(scores)
    deltas: list[float] = []
    converged = False
    iterations = 0
    for iterations in range(1, cfg.max_iterations + 1):
        delta = sweep(scores, nxt)
        deltas.append(delta)
        scores, nxt = nxt, scores
        logger.debug("%s sweep %d: delta=%.3e", label, iterations, delta)
        if delta < cfg.tolerance:
            converged = True
            break
    return ScoreMatrix(values=scores, iterations=iterations, converged=converged,
                       final_delta=deltas[-1] if deltas else 0.0, deltas=deltas)


def simrank_classic(graph: AttributedGraph, cfg: PropagationConfig) -> ScoreMatrix:
    """Classic unweighted structural-similarity fixed point.

    Jacobi sweeps of s(a, b) <- c / (deg(a) deg(b)) * sum over neighbor
    pairs of the previous scores, diagonal pinned to 1, pairs with an
    empty neighborhood scoring 0. Starts from the identity matrix.
    ``cfg.init_mode`` does not apply here. This is the weighted sweep with
    unit edge weights: the numerator becomes 2 A S A and D = 2 deg deg.
    """
    if graph.n == 0:
        raise ValueError("graph must have at least one node")
    adjacency = graph.adjacency_matrix()
    sweep = _TiledSweep(adjacency, adjacency, cfg.c)
    return _fixed_point(sweep, np.eye(graph.n), cfg, "simrank")


def randwalk_init(graph: AttributedGraph, sim: SimilarityMatrix, mode: str) -> ScoreMatrix:
    """Initial score matrix: identity, or attribute similarity with unit diagonal."""
    if mode not in INIT_MODES:
        raise ConfigError(f"init_mode must be one of {INIT_MODES}, got {mode!r}")
    if mode == "identity":
        values = np.eye(graph.n)
    else:
        values = np.maximum(sim.values, 0.0)
        np.fill_diagonal(values, 1.0)
    return ScoreMatrix(values=values)


def matrix_form_step(s_prev: ScoreMatrix, graph: AttributedGraph,
                     weights: TransmissionWeights, c: float) -> ScoreMatrix:
    """One sweep of the weighted recursion, computed as the solvers compute it.

    Expects a symmetric ``s_prev``, as every solver iterate is.
    """
    sweep = _TiledSweep(graph.adjacency_matrix(), weights.edge_prob, c)
    values = np.empty(s_prev.values.shape)
    sweep(s_prev.values, values)
    return ScoreMatrix(values=values)


def randwalk_solve(graph: AttributedGraph, cfg: PropagationConfig) -> ScoreMatrix:
    """Iterate the attribute-weighted sweep to its fixed point.

    Builds the similarity matrix and transmission weights, initializes per
    ``cfg.init_mode``, and sweeps until the sup-norm change drops below
    ``cfg.tolerance`` or ``cfg.max_iterations`` is hit (reported via
    ``converged``; the last iterate is returned either way).
    """
    if graph.n == 0:
        raise ValueError("graph must have at least one node")
    sim = similarity_matrix(graph)
    weights = transmission_weights(graph, sim)
    scores = randwalk_init(graph, sim, cfg.init_mode).values
    del sim  # one n x n array fewer while the solver's buffers are live
    sweep = _TiledSweep(graph.adjacency_matrix(), weights.edge_prob, cfg.c)
    return _fixed_point(sweep, scores, cfg, "randwalk")
