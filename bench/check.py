"""Independent correctness checks on the program's outputs.

Nothing here calls linkpred's scoring, ranking or AUC code: every expected
value is recomputed from the input edges, the attributes and the score
matrix the program returned. Tolerances are stated next to each check.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

TIE_TOLERANCE = 1e-12  # AUC tie rule of the paper: |difference| <= 1e-12 is half a win

# |library exact AUC - independent count|. Counts can differ only for
# pairs within one ulp of the tie boundary; each such pair moves the AUC
# of a paper-scale split by under 4e-9.
EXACT_AUC_TOL = 1e-6
# |sampled AUC - exact AUC|: over 5 standard deviations of a 200 000-sample
# estimate, whose deviation is at most 0.5 / sqrt(200 000) = 1.12e-3.
SAMPLED_AUC_TOL = 0.006
# |exact AUC now - committed reference|. Baseline scores are closed-form;
# the walk's fixed point is unique but each solver stops within
# c/(1-c)*tol of it, which may reorder near-tied pairs.
REFERENCE_AUC_TOL = {"randwalk": 1e-3}
REFERENCE_AUC_TOL_DEFAULT = 1e-6
# Predict: top-k scores may move by the solver's stopping error, at most
# c/(1-c)*tol = 4e-6 for c = 0.8, tol = 1e-6; pairs may swap only where
# reference scores lie that close to the k-th one.
TOPK_SCORE_TOL = 1e-5
# Fixed-point residual max|F(S) - S| of a converged solve: below c*tol.
RESIDUAL_TOL = 1e-6


class CheckFailed(AssertionError):
    """An output disagrees with its independently computed expectation."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def nonedge_pairs(n: int, edges: np.ndarray, probe: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row and column of every pair i < j that is neither a train nor a probe edge."""
    taken = np.zeros((n, n), dtype=bool)
    for pairs in (edges, probe):
        pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        taken[pairs.min(axis=1), pairs.max(axis=1)] = True
    upper_i, upper_j = np.triu_indices(n, 1)
    keep = ~taken[upper_i, upper_j]
    return upper_i[keep], upper_j[keep]


def exact_auc_sorted(probe_scores: np.ndarray, nonedge_scores: np.ndarray) -> float:
    """Exact AUC from rank counts over the sorted non-edge scores."""
    ranked = np.sort(nonedge_scores)
    below = np.searchsorted(ranked, probe_scores - TIE_TOLERANCE, side="left")
    tied_or_below = np.searchsorted(ranked, probe_scores + TIE_TOLERANCE, side="right")
    wins = float(below.sum())
    ties = float((tied_or_below - below).sum())
    return (wins + 0.5 * ties) / (len(probe_scores) * len(ranked))


def exact_auc_bruteforce(probe_scores: np.ndarray, nonedge_scores: np.ndarray) -> float:
    """Exact AUC by comparing every (probe, non-edge) pair, as the definition reads."""
    wins = 0
    ties = 0
    for p in probe_scores:
        diff = p - nonedge_scores
        wins += int(np.count_nonzero(diff > TIE_TOLERANCE))
        ties += int(np.count_nonzero(np.abs(diff) <= TIE_TOLERANCE))
    return (wins + 0.5 * ties) / (len(probe_scores) * len(nonedge_scores))


def check_score_invariants(values: np.ndarray, converged: bool) -> None:
    """Solver contract: unit diagonal, entries in [0, 1], bitwise symmetry, converged."""
    require(bool(converged), "solve did not converge")
    require(bool(np.all(np.diag(values) == 1.0)), "diagonal is not exactly 1")
    require(bool(np.all((values >= 0.0) & (values <= 1.0))), "score outside [0, 1]")
    require(bool(np.array_equal(values, values.T)), "score matrix is not bitwise symmetric")


def weighted_residual(values: np.ndarray, n: int, edges: np.ndarray, attrs: np.ndarray,
                      c: float, block: int = 256) -> float:
    """max |F(S) - S| off the diagonal for the attribute-weighted sweep F.

    F(S)(a, b) = c * sum_{x in N(a), y in N(b)} (w(x,a) + w(y,b)) S(x, y) / D(a, b)
    with w the clamped cosine similarity of an edge's endpoints, W(v) the
    sum of w over v's edges, D(a, b) = deg(b) W(a) + deg(a) W(b), and
    F(S)(a, b) = 0 where D = 0. Evaluated in row blocks to stay small.
    """
    norms = np.linalg.norm(attrs, axis=1)
    unit = np.divide(attrs, norms[:, None], out=np.zeros_like(attrs), where=norms[:, None] > 0)
    u, v = edges[:, 0], edges[:, 1]
    w = np.clip(np.einsum("ij,ij->i", unit[u], unit[v]), 0.0, 1.0)
    rows = np.concatenate([u, v])
    cols = np.concatenate([v, u])
    adj = sp.csr_matrix((np.ones(rows.size), (rows, cols)), shape=(n, n))
    weight = sp.csr_matrix((np.concatenate([w, w]), (rows, cols)), shape=(n, n))
    deg = np.asarray(adj.sum(axis=1)).ravel()
    wsum = np.asarray(weight.sum(axis=1)).ravel()
    worst = 0.0
    for lo in range(0, n, block):
        hi = min(n, lo + block)
        numer = (weight[lo:hi] @ values) @ adj + (adj[lo:hi] @ values) @ weight
        denom = np.multiply.outer(wsum[lo:hi], deg) + np.multiply.outer(deg[lo:hi], wsum)
        nxt = np.divide(c * numer, denom, out=np.zeros_like(numer), where=denom > 0)
        gap = np.abs(nxt - values[lo:hi])
        gap[np.arange(hi - lo), np.arange(lo, hi)] = 0.0
        worst = max(worst, float(gap.max()))
    return worst


def top_nonedges(values: np.ndarray, n: int, edges: np.ndarray, k: int) -> list[tuple]:
    """The k highest-scoring pairs i < j off the edge set, ties by (i, j)."""
    i, j = nonedge_pairs(n, edges, np.zeros((0, 2), dtype=np.int64))
    scores = values[i, j]
    k = min(k, len(scores))
    if k == 0:
        return []
    kth = np.partition(scores, len(scores) - k)[len(scores) - k]
    keep = scores >= kth
    i, j, scores = i[keep], j[keep], scores[keep]
    order = np.lexsort((j, i, -scores))[:k]
    return [(int(i[t]), int(j[t]), float(scores[t])) for t in order]


def check_topk_csv(text: str, values: np.ndarray, n: int, edges: np.ndarray, k: int) -> list:
    """The CLI's CSV must list exactly the top-k non-edges of ``values``, scores as %.12g."""
    lines = text.splitlines()
    require(lines[:1] == ["i,j,score"], "missing 'i,j,score' header")
    expected = top_nonedges(values, n, edges, k)
    got = lines[1:]
    require(len(got) == len(expected), f"{len(got)} rows, expected {len(expected)}")
    for row, (i, j, score) in zip(got, expected):
        require(row == f"{i},{j},{format(score, '.12g')}",
                f"row {row!r} differs from expected {i},{j},{format(score, '.12g')}")
    return expected


def check_topk_reference(top: list, reference: list) -> None:
    """Top-k against a committed reference, within the solver's stopping error."""
    require(len(top) == len(reference), "top-k length differs from reference")
    ours = np.array([s for _, _, s in top])
    theirs = np.array([s for _, _, s in reference])
    worst = float(np.abs(ours - theirs).max()) if len(ours) else 0.0
    require(worst <= TOPK_SCORE_TOL, f"top-k scores off the reference by {worst:.3g}")
    if not len(ours):
        return
    boundary = theirs[-1] + 2 * TOPK_SCORE_TOL
    firm = {(i, j) for i, j, s in reference if s > boundary}
    require(firm <= {(i, j) for i, j, _ in top}, "a top-k pair clear of the cut-off is missing")
