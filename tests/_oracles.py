"""Independent brute-force reference implementations.

Everything here is deliberately naive (pure-Python loops, set algebra,
textbook formulas) and shares no code with the package, so the tests pit
two routes against each other.
"""

from __future__ import annotations

import math

import numpy as np


def oracle_cosine(u, v) -> float:
    dot = sum(a * b for a, b in zip(u, v))
    nu = math.sqrt(sum(a * a for a in u))
    nv = math.sqrt(sum(b * b for b in v))
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return dot / (nu * nv)


def oracle_sim_matrix(attributes) -> list:
    n = len(attributes)
    return [[oracle_cosine(attributes[i], attributes[j]) for j in range(n)] for i in range(n)]


def oracle_simrank_step(scores, adj: list, c: float) -> list:
    """One unweighted Jacobi sweep: pinned diagonal, empty neighborhoods score 0."""
    n = len(adj)
    nxt = [[0.0] * n for _ in range(n)]
    for a in range(n):
        nxt[a][a] = 1.0
        for b in range(n):
            if a == b or not adj[a] or not adj[b]:
                continue
            total = 0.0
            for x in adj[a]:
                for y in adj[b]:
                    total += scores[x][y]
            nxt[a][b] = c * total / (len(adj[a]) * len(adj[b]))
    return nxt


def oracle_simrank(adj: list, c: float, iterations: int) -> np.ndarray:
    n = len(adj)
    scores = [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)]
    for _ in range(iterations):
        scores = oracle_simrank_step(scores, adj, c)
    return np.array(scores)


def oracle_randwalk_step(scores, adj: list, sim, c: float) -> np.ndarray:
    """One weighted sweep straight from the per-pair double sum."""
    n = len(adj)
    weight = [[max(sim[i][j], 0.0) if j in adj[i] else 0.0 for j in range(n)] for i in range(n)]
    node_sum = [sum(weight[i][j] for j in adj[i]) for i in range(n)]
    nxt = [[0.0] * n for _ in range(n)]
    for a in range(n):
        nxt[a][a] = 1.0
        for b in range(n):
            if a == b:
                continue
            denom = len(adj[b]) * node_sum[a] + len(adj[a]) * node_sum[b]
            if denom <= 0.0:
                continue
            total = 0.0
            for x in adj[a]:
                for y in adj[b]:
                    total += (weight[x][a] + weight[y][b]) * scores[x][y]
            nxt[a][b] = c * total / denom
    return np.array(nxt)


def oracle_dense_sweep(scores: np.ndarray, adjacency: np.ndarray, prob: np.ndarray,
                       c: float) -> np.ndarray:
    """One weighted sweep in dense matrix algebra: c (P S A + A S P) / D.

    D[a, b] = deg(b) W(a) + deg(a) W(b) with W the row sums of P; pairs with
    D = 0 score 0 and the diagonal is 1. With P = A this is the classic
    unweighted sweep.
    """
    deg = adjacency.sum(axis=1)
    node_sum = prob.sum(axis=1)
    denom = np.outer(node_sum, deg) + np.outer(deg, node_sum)
    numerator = prob @ scores @ adjacency + adjacency @ scores @ prob
    out = np.zeros_like(numerator)
    positive = denom > 0
    out[positive] = c * numerator[positive] / denom[positive]
    np.fill_diagonal(out, 1.0)
    return out


def oracle_full_solve(step, start: np.ndarray, tolerance: float, max_iterations: int):
    """Jacobi iteration of ``step`` on the full n x n matrix, every pair swept.

    ``step`` maps one iterate to the next. Sweep k's delta is the sup-norm
    of its change, and the loop stops after the first sweep whose delta is
    below ``tolerance``. Returns (values, deltas, iterations, converged).
    """
    current = start
    deltas = []
    for _ in range(max_iterations):
        nxt = step(current)
        deltas.append(float(np.abs(nxt - current).max(initial=0.0)))
        current = nxt
        if deltas[-1] < tolerance:
            return current, deltas, len(deltas), True
    return current, deltas, len(deltas), False


def oracle_fixed_point(adjacency: np.ndarray, weights: np.ndarray, c: float) -> np.ndarray:
    """The exact fixed point of the weighted sweep, by one dense linear solve.

    ``adjacency`` is the dense 0/1 matrix A and ``weights`` the dense
    per-edge weights w (A itself for the unweighted recursion). Each
    off-diagonal pair (a, b) gives one equation, straight from the per-pair
    formula

        s(a, b) = c * sum_{x in N(a), y in N(b)} (w(x,a) + w(y,b)) * s(x, y) / D(a, b)

    with D(a, b) = deg(b) W(a) + deg(a) W(b), s(a, b) = 0 where D = 0, and
    s(x, x) = 1 moved to the right-hand side. The fixed point is symmetric,
    so the unknowns are the unordered pairs a < b.
    """
    n = len(adjacency)
    deg = adjacency.sum(axis=1)
    node_sum = weights.sum(axis=1)
    rows, cols = np.triu_indices(n, 1)
    unknown = np.zeros((n, n), dtype=np.int64)
    unknown[rows, cols] = unknown[cols, rows] = np.arange(rows.size)
    system = np.eye(rows.size)
    rhs = np.zeros(rows.size)
    for eq, (a, b) in enumerate(zip(rows.tolist(), cols.tolist())):
        denom = deg[b] * node_sum[a] + deg[a] * node_sum[b]
        if denom <= 0.0:
            continue
        xs, ys = np.flatnonzero(adjacency[a]), np.flatnonzero(adjacency[b])
        coef = c * (weights[xs, a][:, None] + weights[ys, b][None, :]) / denom
        x, y = np.meshgrid(xs, ys, indexing="ij")
        same = x == y
        rhs[eq] = coef[same].sum()
        np.subtract.at(system[eq], unknown[x[~same], y[~same]], coef[~same])
    solution = np.linalg.solve(system, rhs)
    out = np.eye(n)
    out[rows, cols] = out[cols, rows] = solution
    return out


def oracle_ranked_nonedges(graph, values: np.ndarray, k: int):
    """The k best non-edges by descending score, ties by (i, j), ranked on
    (i, j) pairs as the CLI ranked them before flat indexing."""
    mask = np.triu(np.ones((graph.n, graph.n), dtype=bool), 1)
    mask[graph.edges[:, 0], graph.edges[:, 1]] = False
    ii, jj = np.nonzero(mask)
    neg = -values[ii, jj]
    k = min(k, len(neg))
    if 0 < k < len(neg):
        cut = np.partition(neg, k - 1)[k - 1]
        top = ~(neg > cut)
        ii, jj, neg = ii[top], jj[top], neg[top]
    order = np.lexsort((jj, ii, neg))[:k]
    return ii[order], jj[order], -neg[order]


def oracle_local_score(kind: str, adj: list, x: int, y: int) -> float:
    kx, ky = len(adj[x]), len(adj[y])
    z = len(adj[x] & adj[y])
    if kind == "cn":
        return float(z)
    if kind == "pa":
        return float(kx * ky)
    if kind == "salton":
        return z / math.sqrt(kx * ky) if kx and ky else 0.0
    if kind == "jaccard":
        union = len(adj[x] | adj[y])
        return z / union if union else 0.0
    if kind == "sorensen":
        return 2.0 * z / (kx + ky) if kx + ky else 0.0
    if kind == "hpi":
        return z / min(kx, ky) if min(kx, ky) else 0.0
    if kind == "hdi":
        return z / max(kx, ky) if max(kx, ky) else 0.0
    if kind == "lhn-i":
        return z / (kx * ky) if kx and ky else 0.0
    raise AssertionError(kind)


def oracle_local_matrix(kind: str, adj: list) -> np.ndarray:
    n = len(adj)
    out = np.zeros((n, n))
    for x in range(n):
        for y in range(n):
            if x != y:
                out[x, y] = oracle_local_score(kind, adj, x, y)
    return out


def oracle_lp_matrix(adj: list, eps: float) -> np.ndarray:
    """2-hop counts via set intersections, 3-hop via one-step expansion."""
    n = len(adj)
    out = np.zeros((n, n))
    for x in range(n):
        for y in range(n):
            if x == y:
                continue
            two = len(adj[x] & adj[y])
            three = sum(len(adj[a] & adj[y]) for a in adj[x])
            out[x, y] = two + eps * three
    return out


def oracle_katz_series(dense_adj: np.ndarray, beta: float, terms: int = 50) -> np.ndarray:
    n = dense_adj.shape[0]
    scaled = beta * dense_adj
    power = np.eye(n)
    total = np.zeros((n, n))
    for _ in range(terms):
        power = power @ scaled  # beta^l A^l after l steps
        total = total + power
    out = total.copy()
    np.fill_diagonal(out, 0.0)
    return out


def oracle_auc(probe_scores, nonedge_scores, tie_tol: float = 1e-12):
    """All-pairs double loop; same per-pair predicate as the library."""
    higher = 0
    equal = 0
    for p in probe_scores:
        for q in nonedge_scores:
            diff = p - q
            if diff > tie_tol:
                higher += 1
            elif abs(diff) <= tie_tol:
                equal += 1
    total = len(probe_scores) * len(nonedge_scores)
    return (higher + 0.5 * equal) / total, higher, equal, total


def oracle_auc_chunked(probe_scores, nonedge_scores, tie_tol: float = 1e-12):
    """Every (probe, non-edge) difference, in blocks of about 10^6 pairs.

    The per-pair predicate of ``oracle_auc``, vectorised so that instances
    with 10^8 pairs stay within seconds.
    """
    probe_scores = np.asarray(probe_scores, dtype=np.float64)
    nonedge_scores = np.asarray(nonedge_scores, dtype=np.float64)
    higher = 0
    equal = 0
    chunk = max(1, 1_000_000 // max(len(probe_scores), 1))
    for start in range(0, len(nonedge_scores), chunk):
        diff = probe_scores[:, None] - nonedge_scores[None, start:start + chunk]
        higher += int(np.count_nonzero(diff > tie_tol))
        equal += int(np.count_nonzero(np.abs(diff) <= tie_tol))
    total = len(probe_scores) * len(nonedge_scores)
    return (higher + 0.5 * equal) / total, higher, equal, total


def oracle_auc_sampled(values: np.ndarray, probe, excluded, n: int, seed: int,
                       tie_tol: float = 1e-12):
    """Sampled AUC as the library computed it before flat indexing.

    Draws, from one ``default_rng(seed)``, n probe indices, then batches of
    (a, b) node pairs; a pair is kept, in draw order, when a != b and its
    sorted form is in no edge set of ``excluded`` (train and probe edges).
    Returns (auc, n_comparisons, n_higher, n_equal).
    """
    probe = np.asarray(probe, dtype=np.int64).reshape(-1, 2)
    size = len(values)
    mask = np.triu(np.ones((size, size), dtype=bool), 1)
    for edges in excluded:
        for i, j in np.asarray(edges, dtype=np.int64).reshape(-1, 2).tolist():
            mask[min(i, j), max(i, j)] = False
    rng = np.random.default_rng(seed)
    pick = rng.integers(0, len(probe), size=n)
    picked = np.empty((0, 2), dtype=np.int64)
    while len(picked) < n:
        batch = max(2 * (n - len(picked)), 16)
        a = rng.integers(0, size, size=batch)
        b = rng.integers(0, size, size=batch)
        keep = a != b
        pairs = np.sort(np.column_stack([a[keep], b[keep]]), axis=1)
        picked = np.concatenate([picked, pairs[mask[pairs[:, 0], pairs[:, 1]]]])[:n]
    diff = values[probe[pick, 0], probe[pick, 1]] - values[picked[:, 0], picked[:, 1]]
    higher = int(np.count_nonzero(diff > tie_tol))
    equal = int(np.count_nonzero(np.abs(diff) <= tie_tol))
    return (higher + 0.5 * equal) / n, n, higher, equal


def oracle_bfs_distances(adj: list, source: int) -> list:
    dist = [-1] * len(adj)
    dist[source] = 0
    frontier = [source]
    while frontier:
        nxt = []
        for u in frontier:
            for v in adj[u]:
                if dist[v] < 0:
                    dist[v] = dist[u] + 1
                    nxt.append(v)
        frontier = nxt
    return dist


def oracle_efficiency(adj: list) -> float:
    n = len(adj)
    total = 0.0
    for s in range(n):
        dist = oracle_bfs_distances(adj, s)
        for t in range(n):
            if t != s and dist[t] > 0:
                total += 1.0 / dist[t]
    return total / (n * (n - 1))


def oracle_clustering(adj: list) -> float:
    n = len(adj)
    total = 0.0
    for v in range(n):
        k = len(adj[v])
        if k < 2:
            continue
        nbrs = sorted(adj[v])
        links = sum(1 for i, u in enumerate(nbrs) for w in nbrs[i + 1:] if w in adj[u])
        total += links / (k * (k - 1) / 2)
    return total / n if n else 0.0


def oracle_assortativity(edges, degrees) -> float:
    xs = []
    ys = []
    for u, v in edges:
        xs.extend([degrees[u], degrees[v]])
        ys.extend([degrees[v], degrees[u]])
    mx = sum(xs) / len(xs)
    my = sum(ys) / len(ys)
    cov = sum((a - mx) * (b - my) for a, b in zip(xs, ys))
    vx = sum((a - mx) ** 2 for a in xs)
    vy = sum((b - my) ** 2 for b in ys)
    if vx == 0.0 or vy == 0.0:
        return math.nan
    return cov / math.sqrt(vx * vy)


def oracle_components(adj: list):
    n = len(adj)
    seen = [False] * n
    sizes = []
    for start in range(n):
        if seen[start]:
            continue
        size = 0
        stack = [start]
        seen[start] = True
        while stack:
            u = stack.pop()
            size += 1
            for v in adj[u]:
                if not seen[v]:
                    seen[v] = True
                    stack.append(v)
        sizes.append(size)
    return (max(sizes), len(sizes)) if sizes else (0, 0)
