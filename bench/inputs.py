"""Workload inputs: seeded planted-attribute graphs written as linkpred files.

Usage: python3 bench/inputs.py --workload NAME --seed N --out DIR

Writes DIR/edges.txt and DIR/attrs.txt through ``save_edge_list`` and
``save_attributes`` and prints one JSON line with the realized node and
edge counts. The same seed always gives the same files.

The graph model is the planted-attribute model of
``linkpred.generate_planted_attribute_graph`` (contiguous near-equal
groups, p_in inside a group, p_out across, group basis vector plus
``noise`` spread over the other coordinates). It is written out here so
that the inputs stay fixed when the program's own generator changes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

# A10 settings: the performance-envelope graph of the acceptance suite.
A10_P_IN = 0.007
A10_P_OUT = 0.0004


def _group_sizes(n: int, groups: int) -> np.ndarray:
    return np.array([len(b) for b in np.array_split(np.arange(n), groups)])


def paper_scale_probabilities(n: int, groups: int, expected_m: float) -> tuple[float, float]:
    """p_in, p_out with the A10 ratio p_in/p_out and the given expected edge count."""
    sizes = _group_sizes(n, groups)
    pairs_in = float(np.sum(sizes * (sizes - 1) // 2))
    pairs_out = n * (n - 1) / 2 - pairs_in
    ratio = A10_P_IN / A10_P_OUT
    p_out = expected_m / (ratio * pairs_in + pairs_out)
    return ratio * p_out, p_out


# Both evaluate workloads use one graph per seed, sized like the ACM row of
# the published statistics table (N = 1465, M about 1209).
_PAPER_P_IN, _PAPER_P_OUT = paper_scale_probabilities(1465, 4, 1209)

WORKLOAD_GRAPHS = {
    "predict-n3000": dict(n=3000, groups=4, p_in=A10_P_IN, p_out=A10_P_OUT, noise=0.1),
    "evaluate-paper": dict(n=1465, groups=4, p_in=_PAPER_P_IN, p_out=_PAPER_P_OUT, noise=0.1),
    "evaluate-baselines": dict(n=1465, groups=4, p_in=_PAPER_P_IN, p_out=_PAPER_P_OUT,
                               noise=0.1),
}


def planted_graph(n: int, groups: int, p_in: float, p_out: float, noise: float,
                  seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Edge array (i < j) and attribute matrix of one planted-attribute graph."""
    rng = np.random.default_rng(seed)
    group = np.repeat(np.arange(groups), _group_sizes(n, groups))
    row, col = np.triu_indices(n, 1)
    prob = np.where(group[row] == group[col], p_in, p_out)
    keep = rng.random(row.size) < prob
    edges = np.column_stack([row[keep], col[keep]])
    attrs = np.zeros((n, groups))
    attrs[np.arange(n), group] = 1.0
    if noise > 0.0 and groups > 1:
        weights = rng.random((n, groups))
        weights[np.arange(n), group] = 0.0
        attrs += noise * weights / weights.sum(axis=1, keepdims=True)
    return edges, attrs


def write_inputs(workload: str, seed: int, out_dir: str) -> dict:
    """Generate one workload's graph and write its edge and attribute files."""
    from linkpred.graph import AttributedGraph, save_attributes, save_edge_list

    spec = WORKLOAD_GRAPHS[workload]
    edges, attrs = planted_graph(spec["n"], spec["groups"], spec["p_in"], spec["p_out"],
                                 spec["noise"], seed)
    graph = AttributedGraph.build(spec["n"], edges, attributes=attrs)
    edges_path = os.path.join(out_dir, "edges.txt")
    attrs_path = os.path.join(out_dir, "attrs.txt")
    save_edge_list(graph, edges_path)
    save_attributes(graph, attrs_path)
    return {"edges": edges_path, "attrs": attrs_path, "n": graph.n, "m": graph.m_edges,
            "p_in": spec["p_in"], "p_out": spec["p_out"], "noise": spec["noise"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOAD_GRAPHS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    os.makedirs(args.out, exist_ok=True)
    print(json.dumps(write_inputs(args.workload, args.seed, args.out)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
