"""Attributed-graph data model and text-file loaders.

File formats
------------
Edge list: one undirected edge per line as two whitespace-separated node
ids; ``#`` starts a comment line. The optional directive ``#nodes N`` pins
the node count so that graphs with trailing isolated nodes survive a
save/load round trip; without it, n = 1 + max node id. A comment whose
first word is ``nodes`` followed by one other word that is not an ASCII
count below 2^63 is an error.

Attributes: a header line ``#dense m`` or ``#sparse m`` declares the
attribute count, then one node per line; a second header is an error.
Dense lines hold ``node_id`` followed by m values; sparse lines hold
``node_id idx:value ...`` with each index at most once. Nodes absent from
the file get the all-zero vector.

Files are UTF-8, and a leading byte-order mark is skipped. Data lines are
plain ASCII: ids and indices are ASCII decimal integers below 2^63, and
``_`` digit separators are rejected.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph

from .errors import ConfigError, ParseError

logger = logging.getLogger(__name__)

_NODES_DIRECTIVE = re.compile(r"#\s*nodes\s+(\S+)\s*$", re.ASCII)
_ATTR_HEADER = re.compile(r"#\s*(dense|sparse)\s+(\d+)\s*$", re.ASCII)


@dataclass(frozen=True)
class AttributedGraph:
    """Undirected graph with optional per-node attribute vectors.

    Nodes are dense 0-based indices. The adjacency is kept in CSR form
    (``indptr``/``indices``, neighbor lists sorted ascending), so iteration
    is O(degree). Instances are immutable after construction; all arrays
    should be treated as read-only.
    """

    n: int
    edges: np.ndarray  # (m, 2) int64, i < j, lexicographically sorted
    indptr: np.ndarray
    indices: np.ndarray
    attributes: np.ndarray  # (n, attr_dim) float64; attr_dim == 0 when absent

    @classmethod
    def build(cls, n: int, edges, attributes: np.ndarray | None = None) -> "AttributedGraph":
        """Construct from an edge collection, collapsing duplicates and self-loops."""
        if n < 0:
            raise ValueError("node count must be non-negative")
        arr = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        if arr.size and (arr.min() < 0 or arr.max() >= n):
            raise ValueError("edge endpoint out of range")
        arr = arr[arr[:, 0] != arr[:, 1]]
        lo = np.minimum(arr[:, 0], arr[:, 1])
        hi = np.maximum(arr[:, 0], arr[:, 1])
        canon = np.unique(np.column_stack([lo, hi]), axis=0) if arr.size else arr.reshape(0, 2)

        src = np.concatenate([canon[:, 0], canon[:, 1]])
        dst = np.concatenate([canon[:, 1], canon[:, 0]])
        order = np.lexsort((dst, src))
        src, dst = src[order], dst[order]
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])

        if attributes is None:
            attributes = np.zeros((n, 0))
        attributes = np.asarray(attributes, dtype=np.float64)
        if attributes.shape[0] != n:
            raise ValueError("attribute matrix must have one row per node")

        return cls(
            n=n,
            edges=canon,
            indptr=indptr,
            indices=dst,
            attributes=attributes,
        )

    @property
    def m_edges(self) -> int:
        return int(self.edges.shape[0])

    @property
    def attr_dim(self) -> int:
        return int(self.attributes.shape[1])

    @property
    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def neighbors(self, v: int) -> np.ndarray:
        """Sorted neighbor ids of ``v`` (deterministic iteration order)."""
        if not 0 <= v < self.n:
            raise IndexError(f"node {v} out of range for graph with {self.n} nodes")
        return self.indices[self.indptr[v]:self.indptr[v + 1]]

    def adjacency_matrix(self) -> sp.csr_matrix:
        """Binary adjacency as a scipy CSR matrix (float64)."""
        data = np.ones(len(self.indices), dtype=np.float64)
        return sp.csr_matrix((data, self.indices, self.indptr), shape=(self.n, self.n))

    def with_attributes(self, attributes: np.ndarray) -> "AttributedGraph":
        attributes = np.asarray(attributes, dtype=np.float64)
        if attributes.shape[0] != self.n:
            raise ValueError("attribute matrix must have one row per node")
        return replace(self, attributes=attributes)


def nonedge_mask(n: int, *edge_sets) -> np.ndarray:
    """n x n bool array, True at each pair i < j in none of the (m, 2) edge sets.

    Edge pairs may come in either order. ``np.nonzero`` of the mask lists
    the non-edges in row-major (i, j) order.
    """
    mask = np.triu(np.ones((n, n), dtype=bool), 1)
    for edges in edge_sets:
        lo, hi = np.sort(np.asarray(edges, dtype=np.int64).reshape(-1, 2), axis=1).T
        mask[lo, hi] = False
    return mask


def per_component(graph: AttributedGraph, solve, label: str) -> np.ndarray:
    """n x n array holding ``solve(block)`` on each connected component.

    ``block`` is the CSR adjacency of a component of two or more nodes, in
    the graph's ascending node order; ``solve`` returns its dense result,
    which is scattered into an n x n zero array. A component of one node is
    skipped, so every pair in no common component, and the diagonal of an
    isolated node, stays 0. Logs the component sizes under ``label``.
    """
    adjacency = graph.adjacency_matrix()
    count, labels = csgraph.connected_components(adjacency, directed=False)
    sizes = np.bincount(labels, minlength=count)
    logger.info("%s: %d components, largest %d of %d nodes (%d isolated)", label, count,
                sizes.max(initial=0), graph.n, np.count_nonzero(sizes == 1))
    values = np.zeros((graph.n, graph.n))
    # a stable sort keeps each component's nodes ascending
    for nodes in np.split(np.argsort(labels, kind="stable"), np.cumsum(sizes)[:-1]):
        if nodes.size > 1:
            values[np.ix_(nodes, nodes)] = solve(adjacency[nodes][:, nodes])
    return values


def _ascii_tokens(line: str, path, lineno: int) -> list:
    # int() and float() also read '_' digit separators and non-ASCII digits
    if not line.isascii() or "_" in line:
        raise ParseError(f"{path}:{lineno}: numbers must be plain ASCII, got {line!r}")
    return line.split()


def _parse_node_id(token: str, indexing: str, path, lineno: int) -> int:
    try:
        raw = int(token)
    except ValueError:
        raise ParseError(f"{path}:{lineno}: invalid node id {token!r}") from None
    if raw >= 2 ** 63:
        raise ParseError(f"{path}:{lineno}: node id {token!r} does not fit in a 64-bit integer")
    if indexing == "one":
        raw -= 1
    if raw < 0:
        raise ParseError(f"{path}:{lineno}: node id {token!r} out of range for {indexing}-based indexing")
    return raw


def _check_indexing(indexing: str) -> str:
    key = indexing.removesuffix("-based") if isinstance(indexing, str) else indexing
    if key not in ("zero", "one"):
        raise ConfigError(f"indexing must be 'zero' or 'one', got {indexing!r}")
    return key


def _read_lines(path, error):
    """Yield (line number, stripped line) for each non-blank line of a UTF-8
    text file read with universal newlines; a leading byte-order mark is
    skipped. A line holding a byte that is not UTF-8, which surrogateescape
    decodes to U+DC80..U+DCFF, raises ``error`` naming path:line."""
    with open(path, "r", encoding="utf-8-sig", errors="surrogateescape") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line.isascii() and re.search("[\udc80-\udcff]", line):
                raise error(f"{path}:{lineno}: not UTF-8 text")
            if line:
                yield lineno, line


def load_edge_list(path, indexing: str = "zero") -> AttributedGraph:
    """Load an undirected graph from an edge-list text file.

    Duplicate edges collapse to one; self-loops are dropped (logged with a
    count). Node ids are normalized to 0-based indices; with gaps in the id
    range the skipped ids become isolated nodes. A node count that numpy or
    the machine's memory cannot hold is a ``ParseError`` naming the line
    that set it: the ``#nodes`` directive or the line with the largest id.
    """
    indexing = _check_indexing(indexing)
    pairs = []
    n, n_line = 0, 0  # the node count so far and the line that set it
    for lineno, line in _read_lines(path, ParseError):
        if line.startswith("#"):
            m = _NODES_DIRECTIVE.match(line)
            if m:
                count = m.group(1)
                if not (count.isascii() and count.isdigit()) or int(count) >= 2 ** 63:
                    raise ParseError(f"{path}:{lineno}: invalid node count {count!r}")
                if int(count) > n:
                    n, n_line = int(count), lineno
            continue
        tokens = _ascii_tokens(line, path, lineno)
        if len(tokens) != 2:
            raise ParseError(f"{path}:{lineno}: expected two node ids, got {line!r}")
        u = _parse_node_id(tokens[0], indexing, path, lineno)
        v = _parse_node_id(tokens[1], indexing, path, lineno)
        if u >= n or v >= n:
            n, n_line = max(u, v) + 1, lineno
        pairs.append((u, v))
    ids = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    self_loops = int(np.count_nonzero(ids[:, 0] == ids[:, 1]))
    if self_loops:
        logger.warning("%s: dropped %d self-loop(s)", path, self_loops)
    try:
        return AttributedGraph.build(n, ids)
    except (ValueError, MemoryError) as exc:
        # n-length arrays past numpy's size limit or the machine's memory
        raise ParseError(f"{path}:{n_line}: cannot hold {n} nodes: {exc}") from None


def save_edge_list(graph: AttributedGraph, path) -> None:
    """Write the edge list with a ``#nodes`` directive for exact round trips."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"#nodes {graph.n}\n")
        for u, v in graph.edges.tolist():
            handle.write(f"{u} {v}\n")


def _sparse_entry(tok: str, offset: int, path, lineno: int) -> tuple:
    # (index, index text, value text, what a bad value is called)
    idx_str, _, val_str = tok.partition(":")
    if not val_str:
        raise ParseError(f"{path}:{lineno}: expected 'index:value', got {tok!r}")
    try:
        return int(idx_str) - offset, idx_str, val_str, f"sparse entry {tok!r}"
    except ValueError:
        raise ParseError(f"{path}:{lineno}: invalid sparse entry {tok!r}") from None


def load_attributes(path, graph: AttributedGraph, indexing: str = "zero") -> AttributedGraph:
    """Load per-node attribute vectors; returns a new graph with them attached.

    The ``indexing`` convention applies to node ids and, for sparse lines,
    to the coordinate indices as well. Negative values are accepted but
    logged, since downstream similarity treats them as zero affinity;
    ``nan`` and ``inf`` are rejected with a ``ParseError``.
    """
    indexing = _check_indexing(indexing)
    values: np.ndarray | None = None
    nodes = []
    negatives = 0
    for lineno, line in _read_lines(path, ParseError):
        if line.startswith("#"):
            m = _ATTR_HEADER.match(line)
            if m and values is not None:
                raise ParseError(f"{path}:{lineno}: second attribute header {line!r}, "
                                 f"after '#{fmt} {attr_dim}'")
            if m:
                fmt = m.group(1)
                attr_dim = int(m.group(2))
                values = np.zeros((graph.n, attr_dim))
            continue
        if values is None:
            raise ParseError(f"{path}:{lineno}: data before '#dense m' / '#sparse m' header")
        tokens = _ascii_tokens(line, path, lineno)
        node = _parse_node_id(tokens[0], indexing, path, lineno)
        if node >= graph.n:
            raise ParseError(f"{path}:{lineno}: node id {tokens[0]} >= node count {graph.n}")
        nodes.append(node)
        if fmt == "dense":
            if len(tokens) - 1 != attr_dim:
                raise ParseError(
                    f"{path}:{lineno}: expected {attr_dim} values, got {len(tokens) - 1}"
                )
            entries = ((k, k, text, "attribute value") for k, text in enumerate(tokens[1:]))
        else:
            entries = (_sparse_entry(tok, indexing == "one", path, lineno) for tok in tokens[1:])
        values[node] = 0.0
        filled = set()
        for idx, idx_str, text, what in entries:
            try:
                value = float(text)
            except ValueError:
                raise ParseError(f"{path}:{lineno}: invalid {what}") from None
            if not 0 <= idx < attr_dim:
                raise ParseError(
                    f"{path}:{lineno}: attribute index {idx_str} out of range for {attr_dim} attributes"
                )
            if idx in filled:
                raise ParseError(f"{path}:{lineno}: attribute index {idx_str} repeated")
            filled.add(idx)
            values[node, idx] = value
        if not np.isfinite(values[node]).all():
            raise ParseError(f"{path}:{lineno}: non-finite attribute value")
        negatives += int(np.count_nonzero(values[node] < 0))
    if values is None:
        raise ParseError(f"{path}: missing '#dense m' / '#sparse m' header")
    duplicates = len(nodes) - len(set(nodes))
    if duplicates:
        logger.warning("%s: %d duplicate node line(s), later lines win", path, duplicates)
    if negatives:
        logger.warning(
            "%s: %d negative attribute value(s); similarity clamps negative affinity to 0",
            path, negatives,
        )
    return graph.with_attributes(values)


def save_attributes(graph: AttributedGraph, path) -> None:
    """Write attributes in the dense text format, one line per node."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"#dense {graph.attr_dim}\n")
        for node in range(graph.n):
            row = " ".join(format(v, ".17g") for v in graph.attributes[node])
            handle.write(f"{node} {row}\n" if graph.attr_dim else f"{node}\n")
