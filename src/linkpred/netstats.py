"""Whole-network statistics and a synthetic attributed-graph generator.

Definitional choices (several of these quantities have competing
definitions in the literature):

- clustering: mean local coefficient, triangles(v) / C(deg(v), 2), with
  degree < 2 nodes contributing 0;
- efficiency: global efficiency, the average of 1/dist over all ordered
  node pairs with 1/inf = 0 across components;
- assortativity: Pearson correlation of endpoint degrees over edges, each
  undirected edge counted in both orientations (NaN when the degree
  variance is zero, e.g. regular graphs).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse.csgraph as csgraph

from .errors import ConfigError
from .graph import AttributedGraph


@dataclass(frozen=True)
class NetStatsRow:
    """One summary row: counts, component structure, and the four coefficients."""

    n_nodes: int
    n_edges: int
    n_attributes: int
    largest_component: int
    n_components: int
    efficiency: float
    clustering: float
    assortativity: float
    avg_degree: float

    @property
    def num_c(self) -> str:
        """Component column rendered as ``largest/count``."""
        return f"{self.largest_component}/{self.n_components}"


def components(graph: AttributedGraph) -> tuple[int, int]:
    """(size of the largest connected component, number of components)."""
    if graph.n == 0:
        return (0, 0)
    count, labels = csgraph.connected_components(graph.adjacency_matrix(), directed=False)
    largest = int(np.bincount(labels).max())
    return (largest, int(count))


def avg_degree(graph: AttributedGraph) -> float:
    if graph.n == 0:
        raise ValueError("average degree undefined for an empty graph")
    return 2.0 * graph.m_edges / graph.n


def clustering_coefficient(graph: AttributedGraph) -> float:
    """Mean local clustering coefficient; degree < 2 nodes count as 0."""
    if graph.n == 0:
        return 0.0
    adjacency = graph.adjacency_matrix()
    # row sums of (A^2 ∘ A) count, for each node, common neighbors summed
    # over its incident edges = twice its triangle count
    paths = (adjacency @ adjacency).multiply(adjacency)
    triangles = np.asarray(paths.sum(axis=1)).ravel() / 2.0
    deg = graph.degrees.astype(np.float64)
    possible = deg * (deg - 1.0) / 2.0
    local = np.zeros(graph.n)
    np.divide(triangles, possible, out=local, where=possible > 0)
    return float(local.mean())


def assortativity(graph: AttributedGraph) -> float:
    """Degree correlation across edge endpoints; NaN when degenerate."""
    if graph.m_edges == 0:
        return math.nan
    deg = graph.degrees.astype(np.float64)
    x = deg[graph.edges[:, 0]]
    y = deg[graph.edges[:, 1]]
    ends_a = np.concatenate([x, y])
    ends_b = np.concatenate([y, x])
    dev_a = ends_a - ends_a.mean()
    dev_b = ends_b - ends_b.mean()
    denom = math.sqrt(float(np.dot(dev_a, dev_a)) * float(np.dot(dev_b, dev_b)))
    if denom == 0.0:
        return math.nan
    return float(np.dot(dev_a, dev_b)) / denom


def efficiency(graph: AttributedGraph) -> float:
    """Global efficiency: mean inverse shortest-path length over ordered pairs."""
    if graph.n < 2:
        raise ValueError("efficiency undefined for graphs with fewer than 2 nodes")
    dist = csgraph.shortest_path(graph.adjacency_matrix(), method="D",
                                 directed=False, unweighted=True)
    with np.errstate(divide="ignore"):
        inv = 1.0 / dist
    inv[~np.isfinite(inv)] = 0.0
    np.fill_diagonal(inv, 0.0)
    return float(inv.sum()) / (graph.n * (graph.n - 1))


def stats_report(graph: AttributedGraph) -> NetStatsRow:
    """Assemble the full statistics row for a graph."""
    largest, count = components(graph)
    return NetStatsRow(
        n_nodes=graph.n,
        n_edges=graph.m_edges,
        n_attributes=graph.attr_dim,
        largest_component=largest,
        n_components=count,
        efficiency=efficiency(graph),
        clustering=clustering_coefficient(graph),
        assortativity=assortativity(graph),
        avg_degree=avg_degree(graph),
    )


def format_stats(row: NetStatsRow) -> str:
    """Render one aligned header + value row (components as largest/count)."""
    headers = ["N", "M", "Att", "NUM_C", "e", "C", "r", "K"]
    r_text = "n/a" if math.isnan(row.assortativity) else f"{row.assortativity:.4f}"
    cells = [
        str(row.n_nodes), str(row.n_edges), str(row.n_attributes), row.num_c,
        f"{row.efficiency:.4f}", f"{row.clustering:.4f}", r_text, f"{row.avg_degree:.4f}",
    ]
    widths = [max(len(h), len(c)) for h, c in zip(headers, cells)]
    head = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    body = "  ".join(c.ljust(w) for c, w in zip(cells, widths))
    return f"{head}\n{body}"


def generate_planted_attribute_graph(n: int, k_groups: int, p_in: float, p_out: float,
                                     attr_noise: float, seed: int) -> AttributedGraph:
    """Random graph with correlated community and attribute structure.

    Nodes split into ``k_groups`` contiguous near-equal groups; pairs link
    with probability ``p_in`` inside a group and ``p_out`` across. Each
    group owns one basis attribute coordinate; a node's vector is its
    group's unit vector plus total mass ``attr_noise`` spread in random
    proportions over the other coordinates. Deterministic per seed.
    """
    if n < 1:
        raise ConfigError(f"n must be >= 1, got {n}")
    if not 1 <= k_groups <= n:
        raise ConfigError(f"k_groups must be in [1, n], got {k_groups}")
    if not (0.0 <= p_out < p_in <= 1.0):
        raise ConfigError(f"need 0 <= p_out < p_in <= 1, got p_in={p_in}, p_out={p_out}")
    if not 0.0 <= attr_noise < np.inf:  # false for nan as well
        raise ConfigError(f"attr_noise must be non-negative and finite, got {attr_noise}")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    group = np.zeros(n, dtype=np.int64)
    for g, block in enumerate(np.array_split(np.arange(n), k_groups)):
        group[block] = g

    row_idx, col_idx = np.triu_indices(n, 1)
    same = group[row_idx] == group[col_idx]
    prob = np.where(same, p_in, p_out)
    keep = rng.random(row_idx.size) < prob
    edges = np.column_stack([row_idx[keep], col_idx[keep]])

    attrs = np.zeros((n, k_groups))
    attrs[np.arange(n), group] = 1.0
    if attr_noise > 0.0 and k_groups > 1:
        weights = rng.random((n, k_groups))
        weights[np.arange(n), group] = 0.0
        totals = weights.sum(axis=1, keepdims=True)
        attrs += attr_noise * weights / np.where(totals > 0, totals, 1.0)

    return AttributedGraph.build(n, edges, attributes=attrs)
