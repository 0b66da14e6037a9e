"""Attribute similarity, transmission weights and the fixed-point solver.

The weighted method's stages pass plain arrays: the n x n cosine similarity
of the attribute vectors, the sparse per-edge transmission probabilities
taken from it, and the scores propagated along them to a fixed point.

One solver, ``randwalk_solve``, iterates the attribute-weighted recursion,
in which each edge transmits score in proportion to the attribute
similarity of its endpoints. With unit edge weights the same sweep is the
classic structural-similarity recursion (every sweep averages scores over
neighbor pairs, damped by the attenuation coefficient); ``matrix_form_step``
runs it when given the adjacency matrix as the weights.

The weighted sweep updates every off-diagonal pair (a, b) to

    c * sum_{x in N(a), y in N(b)} (w(x,a) + w(y,b)) * s(x, y) / D(a, b)

with D(a, b) = deg(b)*W(a) + deg(a)*W(b), where w is the per-edge
transmission weight and W the per-node weight sum. Since the inner weights
sum to exactly D(a, b), each sweep is c times a convex combination of
previous scores: iterates stay in [0, 1] and the map contracts with factor
c, so the fixed point is unique and does not depend on the start, and an
iterate whose sweep changed it by delta lies within c/(1-c)*delta of it.
Pairs with D = 0 (isolated endpoint or all-zero weight sums) score 0; the
diagonal is pinned to 1.

In matrix form a sweep is c * (W S A + A S W) / D. It runs as two sparse
products, W S and A (W S)^T, then one fused pass over square tiles of the
upper triangle that adds each tile of the second product to the transpose
of its mirror tile, divides by the precomputed D/c, writes the tile and
its transpose, and takes the sup-norm change. Iterates are therefore symmetric
by construction, with no mirror pass.

Sweeps run only over the n' nodes that have an edge. An isolated node's
pairs have D = 0 and it is in no neighborhood, so they score 0 without
being swept, and the result is scattered into an n x n identity. At its
peak a solve holds three and a half dense n' x n' arrays: the two swapped
iterates, the upper tiles of D/c, and one sparse-product output at a time.
The transposed operand of the second product is built in the next-iterate
buffer, which the tile pass then overwrites.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError
from .graph import AttributedGraph

logger = logging.getLogger(__name__)

# Edge of the square tiles the sweep works on; 128 and 256 run fastest at
# n = 3000, 512 is slower.
_TILE = 256


@dataclass
class PropagationConfig:
    """Solver knobs: damping and stop rule."""

    c: float = 0.8
    tolerance: float = 1e-6
    max_iterations: int = 100

    def __post_init__(self) -> None:
        if not 0.0 < self.c < 1.0:
            raise ConfigError(f"attenuation coefficient c must be in (0, 1), got {self.c}")
        if not 0.0 < self.tolerance < np.inf:  # false for nan as well
            raise ConfigError(f"tolerance must be positive and finite, got {self.tolerance}")
        if self.max_iterations < 1:
            raise ConfigError(f"max_iterations must be >= 1, got {self.max_iterations}")


@dataclass
class ScoreMatrix:
    """Symmetric n x n link-score matrix plus iteration metadata.

    Solver outputs guarantee a unit diagonal, entries in [0, 1], and exact
    (bitwise) symmetry. ``deltas`` records the sup-norm change of every
    sweep; ``iterations`` and ``final_delta`` are read from it.
    """

    values: np.ndarray
    converged: bool = True
    deltas: list = field(default_factory=list)

    @property
    def iterations(self) -> int:
        return len(self.deltas)

    @property
    def final_delta(self) -> float:
        """The last sweep's sup-norm change, 0.0 when there were no sweeps."""
        return self.deltas[-1] if self.deltas else 0.0


def similarity_matrix(graph: AttributedGraph) -> np.ndarray:
    """All-pairs cosine similarity of the nodes' attribute vectors, n x n.

    Computed as X X^T from the row-normalized attribute vectors X. numpy
    forms that product with a symmetric rank-k update, which computes one
    triangle and copies it, so the result is bitwise symmetric without a
    mirror step. Entries lie in [0, 1] for non-negative attributes. The
    diagonal is exactly 1 for nodes with a nonzero attribute vector; an
    all-zero row is 0 everywhere (no evidence of affinity).
    """
    if graph.attr_dim == 0:
        raise ConfigError("graph has no attributes loaded")
    # An exact power-of-two scaling puts each row's largest |entry| in [0.5, 1),
    # so the squared norm can neither overflow (1e300) nor underflow (1e-200).
    _, exponent = np.frexp(np.abs(graph.attributes).max(axis=1))
    scaled = np.ldexp(graph.attributes, -exponent[:, None])
    norms = np.linalg.norm(scaled, axis=1)
    nonzero = norms > 0
    normalized = np.divide(scaled, norms[:, None], out=np.zeros_like(scaled),
                           where=nonzero[:, None])
    values = np.clip(normalized @ normalized.T, -1.0, 1.0)
    values[np.diag_indices(graph.n)] = nonzero.astype(np.float64)
    return values


def transmission_weights(graph: AttributedGraph, sim: np.ndarray) -> sp.csr_matrix:
    """Per-edge transmission probabilities from attribute similarities.

    A sparse symmetric n x n matrix holding the similarity of each edge's
    endpoints, zero off the edge set. Negative similarities (possible only
    with negative attribute inputs) are clamped to 0 before use as
    probabilities.
    """
    if sim.shape[0] != graph.n:
        raise ValueError("similarity matrix does not match graph size")
    row_ids = np.repeat(np.arange(graph.n), graph.degrees)
    data = np.maximum(sim[row_ids, graph.indices], 0.0)
    return sp.csr_matrix((data, graph.indices.copy(), graph.indptr.copy()),
                         shape=(graph.n, graph.n))


class _TiledSweep:
    """One Jacobi sweep S -> c * (W S A + A S W) / D, fused over tiles.

    ``cross = A (W S)^T`` is formed once per sweep; each upper tile pair
    (I, J) then takes ``cross[I, J] + cross[J, I]^T`` over ``D[I, J] / c``
    and writes it to both (I, J) and (J, I), so every output is bitwise
    symmetric without a separate mirror pass. The transposed operand of the
    second product is built in ``out``, the next-iterate buffer: nothing
    reads ``out`` before the tile pass writes it, and the tile pass reads
    only ``cross``, D/c and ``scores``. D/c is symmetric and read on the
    upper tiles only, so only those are kept, in one allocation.
    """

    def __init__(self, adjacency, edge_prob, c: float) -> None:
        n = adjacency.shape[0]
        self.adjacency = adjacency
        self.edge_prob = edge_prob
        self.spans = [slice(lo, min(lo + _TILE, n)) for lo in range(0, n, _TILE)]
        tile = np.empty((min(n, _TILE), min(n, _TILE)))
        # D (module docstring) from the row sums deg of A and W of the edge
        # weights, each entry as weight[i]*deg[j] + deg[i]*weight[j]. Sweeps
        # divide by D / c, inf where D = 0 so those pairs score 0, rather than
        # multiply by c / D, which overflows to inf when D is subnormal (a
        # near-zero attribute similarity).
        deg = np.asarray(adjacency.sum(axis=1)).ravel()
        weight = np.asarray(edge_prob.sum(axis=1)).ravel()
        upper = [(rows, cols) for first, rows in enumerate(self.spans)
                 for cols in self.spans[first:]]
        shapes = [(rows.stop - rows.start, cols.stop - cols.start) for rows, cols in upper]
        store = np.empty(sum(h * w for h, w in shapes))
        # per upper tile pair: its spans, its D/c tile and the scratch view
        # of its shape
        self.tiles = []
        for (rows, cols), (h, w) in zip(upper, shapes):
            d_over_c, store = store[:h * w].reshape(h, w), store[h * w:]
            np.multiply.outer(weight[rows], deg[cols], out=d_over_c)
            d_over_c += np.multiply.outer(deg[rows], weight[cols], out=tile[:h, :w])
            d_over_c /= c
            d_over_c[d_over_c == 0.0] = np.inf
            self.tiles.append((rows, cols, d_over_c, tile[:h, :w]))

    def __call__(self, scores: np.ndarray, out: np.ndarray) -> float:
        """Write the sweep of ``scores`` into ``out``; return max |out - scores|.

        The change is read on the upper tiles only, which covers every entry
        when ``scores`` is symmetric, as every solver iterate is.
        """
        ws = self.edge_prob @ scores
        for rows in self.spans:
            for cols in self.spans:
                out[rows, cols] = ws[cols, rows].T
        del ws  # freed before cross is allocated, so one product output lives at a time
        cross = self.adjacency @ out
        tile_deltas = []
        for rows, cols, d_over_c, blk in self.tiles:
            np.add(cross[rows, cols], cross[cols, rows].T, out=blk)
            blk /= d_over_c
            if rows == cols:
                np.fill_diagonal(blk, 1.0)
            else:
                out[cols, rows] = blk.T
            out[rows, cols] = blk
            blk -= scores[rows, cols]
            tile_deltas.append(np.abs(blk, out=blk).max())
        return float(np.max(tile_deltas, initial=0.0))


def matrix_form_step(scores: np.ndarray, graph: AttributedGraph, edge_prob: sp.csr_matrix,
                     c: float) -> np.ndarray:
    """One sweep of the weighted recursion, computed as the solver computes it.

    ``edge_prob`` holds the per-edge weights (``transmission_weights``, or
    the adjacency matrix for the unweighted recursion). Expects a symmetric
    ``scores``, as every solver iterate is.
    """
    out = np.empty(scores.shape)
    _TiledSweep(graph.adjacency_matrix(), edge_prob, c)(scores, out)
    return out


def randwalk_solve(graph: AttributedGraph, cfg: PropagationConfig) -> ScoreMatrix:
    """Iterate the attribute-weighted sweep to its fixed point.

    Starts from the attribute similarity, clamped at 0 with a unit diagonal,
    and sweeps until the sup-norm change drops below ``cfg.tolerance`` or
    ``cfg.max_iterations`` is hit (reported via ``converged``; the last
    iterate is returned either way).

    An isolated node x has deg(x) = 0 and W(x) = 0, so D(x, .) = 0: sweep 1
    sets x's off-diagonal pairs to 0 and, x being in no neighborhood, no
    later sweep reads them. So the sweeps run on the subgraph induced by the
    other nodes. Its relabelling is monotone, so each kept entry sums the
    same terms in the same order as on the full graph, and values, deltas
    and sweep count are bitwise those of the full solve.
    """
    if graph.n == 0:
        raise ValueError("graph must have at least one node")
    n = graph.n
    sim = similarity_matrix(graph)
    edge_prob = transmission_weights(graph, sim)
    active = np.flatnonzero(graph.degrees)
    isolated = np.flatnonzero(graph.degrees == 0)
    logger.info("randwalk: sweeping %d of %d nodes (%d isolated)", active.size, n, isolated.size)
    # Sweep 1's change on the dropped pairs: the largest off-diagonal start
    # entry in an isolated row.
    rows = np.maximum(sim[isolated], 0.0)
    rows[np.arange(isolated.size), isolated] = 0.0
    dropped = float(rows.max(initial=0.0))
    del rows  # isolated x n; about 4 MB at paper scale
    scores = sim[np.ix_(active, active)]
    np.maximum(scores, 0.0, out=scores)
    np.fill_diagonal(scores, 1.0)
    del sim  # the n x n similarity goes before the sweep allocates its buffers
    sweep = _TiledSweep(graph.adjacency_matrix()[active][:, active],
                        edge_prob[active][:, active], cfg.c)
    # Jacobi iteration over two swapped buffers.
    nxt = np.empty_like(scores)
    deltas: list[float] = []
    converged = False
    while not converged and len(deltas) < cfg.max_iterations:
        delta = max(sweep(scores, nxt), dropped)
        dropped = 0.0
        deltas.append(delta)
        scores, nxt = nxt, scores
        logger.debug("randwalk sweep %d: delta=%.3e", len(deltas), delta)
        converged = delta < cfg.tolerance
    del sweep  # D/c, half an n' x n' array, goes before the n x n result is allocated
    values = np.eye(n)
    values[np.ix_(active, active)] = scores
    return ScoreMatrix(values=values, converged=converged, deltas=deltas)
