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
by construction, with no mirror pass.

Sweeps run only over the n' nodes that have an edge. An isolated node's
pairs have D = 0 and it is in no neighborhood, so they score 0 without
being swept, and the result is scattered into an n x n identity. A solve
holds four dense n' x n' arrays (two swapped iterates, D/c, and the
transposed operand of the second product) plus the two sparse-product
outputs of the sweep.
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


def _solve(graph: AttributedGraph, edge_prob, start: ScoreMatrix, cfg: PropagationConfig,
           label: str) -> ScoreMatrix:
    """Jacobi iteration from ``start.values`` over the nodes that have an edge.

    An isolated node x has deg(x) = 0 and W(x) = 0, so D(x, .) = 0: sweep 1
    sets x's off-diagonal pairs to 0 and, x being in no neighborhood, no
    later sweep reads them. So the sweeps run on the subgraph induced by the
    other nodes. Its relabelling is monotone, so each kept entry sums the
    same terms in the same order as on the full graph, and values, deltas
    and sweep count are bitwise those of the full solve.

    ``start.values`` is replaced by its block of nodes with an edge, which
    frees the n x n start before the sweep allocates its buffers, as long as
    the caller holds no other reference to that array.
    """
    n = graph.n
    active = np.flatnonzero(graph.degrees)
    isolated = np.flatnonzero(graph.degrees == 0)
    logger.info("%s: sweeping %d of %d nodes (%d isolated)", label, active.size, n, isolated.size)
    # Sweep 1's change on the dropped pairs: the off-diagonal start entries
    # in isolated rows (0 for the identity start).
    rows = np.abs(start.values[isolated])
    rows[np.arange(isolated.size), isolated] = 0.0
    dropped = float(rows.max(initial=0.0))
    del rows  # isolated x n; about 4 MB at paper scale
    scores = start.values = start.values[np.ix_(active, active)]
    sweep = _TiledSweep(graph.adjacency_matrix()[active][:, active],
                        edge_prob[active][:, active], cfg.c)
    # Jacobi iteration over two swapped buffers.
    nxt = np.empty_like(scores)
    deltas: list[float] = []
    converged = False
    iterations = 0
    for iterations in range(1, cfg.max_iterations + 1):
        delta = max(sweep(scores, nxt), dropped)
        dropped = 0.0
        deltas.append(delta)
        scores, nxt = nxt, scores
        logger.debug("%s sweep %d: delta=%.3e", label, iterations, delta)
        if delta < cfg.tolerance:
            converged = True
            break
    del sweep  # its two n' x n' buffers go before the n x n result is allocated
    values = np.eye(n)
    values[np.ix_(active, active)] = scores
    return ScoreMatrix(values=values, iterations=iterations, converged=converged,
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
    return _solve(graph, graph.adjacency_matrix(), ScoreMatrix(values=np.eye(graph.n)), cfg,
                  "simrank")


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
    edge_prob = transmission_weights(graph, sim).edge_prob
    start = randwalk_init(graph, sim, cfg.init_mode)
    del sim  # one n x n array fewer while the solver's buffers are live
    return _solve(graph, edge_prob, start, cfg, "randwalk")
