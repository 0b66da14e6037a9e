"""Probe splitting, AUC scoring, and the repeated-split experiment runner.

AUC here is the probability that a removed (probe) edge outscores a
non-edge, ties counted half: (n_higher + 0.5 * n_equal) / n_comparisons.
Two routes are provided: Monte-Carlo sampling of (probe, non-edge) pairs,
and the exact count over all of them, which ranks probe scores among the
sorted non-edge scores (Mann-Whitney U) and has no size cap. Both share
one tie predicate (|difference| <= 1e-12) so the exact value is the
sampling limit.

All randomness derives from integer seeds via numpy Generators; repeated
runs with the same master seed are bit-identical.
"""

from __future__ import annotations

import logging
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .baselines import (LOCAL_INDEX_KINDS, BaselineConfig, canonical_name, katz_index,
                        local_index, lp_index)
from .errors import ConfigError, EvaluationError
from .graph import AttributedGraph, nonedge_mask
from .propagation import PropagationConfig, ScoreMatrix, randwalk_solve

logger = logging.getLogger(__name__)

TIE_TOLERANCE = 1e-12

# method -> scorer(graph, cfg). Each lambda looks its scorer up on this module
# when called, so a caller that replaces linkpred.evaluation.<scorer> (a
# tracer, a test) sees every call.
_SCORERS = {
    "randwalk": lambda graph, cfg: randwalk_solve(graph, cfg.propagation),
    **{kind: (lambda graph, cfg, kind=kind: local_index(kind, graph))
       for kind in LOCAL_INDEX_KINDS},
    "lp": lambda graph, cfg: lp_index(graph, cfg.baselines),
    "katz": lambda graph, cfg: katz_index(graph, cfg.baselines),
}
METHOD_NAMES = tuple(_SCORERS)


@dataclass(frozen=True)
class ProbeSplit:
    """A train/probe partition of a graph's edges (attributes untouched)."""

    train_graph: AttributedGraph
    probe_edges: np.ndarray  # (k, 2) canonical pairs
    seed: int


@dataclass(frozen=True)
class AucResult:
    auc: float
    n_comparisons: int
    n_higher: int
    n_equal: int
    mode: str


@dataclass
class MethodResult:
    """Per-method aggregate over the experiment's repetitions."""

    method: str
    aucs: list
    auc_mean: float
    auc_std: float
    seconds: float
    converged: bool = True


@dataclass
class EvalReport:
    dataset: str
    results: list
    config: dict
    repetitions: int
    seeds: list = field(default_factory=list)

    @property
    def all_converged(self) -> bool:
        return all(r.converged for r in self.results)


@dataclass
class ExperimentConfig:
    """Everything an evaluation run needs besides the graph and methods."""

    propagation: PropagationConfig = field(default_factory=PropagationConfig)
    baselines: BaselineConfig = field(default_factory=BaselineConfig)
    split_fraction: float = 0.1
    master_seed: int = 12345
    auc_mode: str = "exact"
    auc_samples: int = 200_000

    def __post_init__(self) -> None:
        if not 0.0 < self.split_fraction < 1.0:
            raise ConfigError(f"split fraction must be in (0, 1), got {self.split_fraction}")
        if self.auc_mode not in ("sampled", "exact"):
            raise ConfigError(f"auc mode must be 'sampled' or 'exact', got {self.auc_mode!r}")
        if self.auc_samples < 1:
            raise ConfigError(f"auc_samples must be >= 1, got {self.auc_samples}")
        if self.master_seed < 0:
            raise ConfigError(f"master seed must be >= 0, got {self.master_seed}")


def canonical_method(name: str) -> str:
    key = canonical_name(name)
    if key not in _SCORERS:
        raise ConfigError(f"unknown method {name!r}; valid: {', '.join(METHOD_NAMES)}")
    return key


def score_method(name: str, graph: AttributedGraph, cfg: ExperimentConfig) -> ScoreMatrix:
    """Run one scoring method by name on a graph."""
    return _SCORERS[canonical_method(name)](graph, cfg)


def split_probe(graph: AttributedGraph, fraction: float, seed: int) -> ProbeSplit:
    """Remove a uniform random fraction of edges as the probe set.

    The probe size is round(fraction * m); a size of 0 or m is rejected.
    Deterministic for a given seed.
    """
    m = graph.m_edges
    if m < 1:
        raise ConfigError("cannot split a graph with no edges")
    k = round(fraction * m)
    if k <= 0 or k >= m:
        raise ConfigError(
            f"probe fraction {fraction} keeps {m - k} of {m} edges; need at least one on each side"
        )
    rng = np.random.default_rng(seed)
    chosen = np.sort(rng.choice(m, size=k, replace=False))
    mask = np.zeros(m, dtype=bool)
    mask[chosen] = True
    probe = graph.edges[mask]
    train = AttributedGraph.build(graph.n, graph.edges[~mask], attributes=graph.attributes)
    return ProbeSplit(train_graph=train, probe_edges=probe, seed=seed)


def _nonedge_pool(scores: ScoreMatrix, train_graph: AttributedGraph,
                  probe: np.ndarray) -> np.ndarray:
    # the pairs a probe edge is compared against: neither train nor probe edges
    n = train_graph.n
    if scores.values.shape != (n, n):
        raise EvaluationError(f"scores are {scores.values.shape}, train graph has {n} nodes")
    if len(probe) == 0:
        raise EvaluationError("probe set is empty")
    mask = nonedge_mask(train_graph.n, train_graph.edges, probe)
    if not mask.any():
        raise EvaluationError("no non-edges left to compare against")
    return mask


def _sample_nonedges(rng, mask: np.ndarray, count: int) -> np.ndarray:
    # rejection sampling over unordered pairs i < j, hits kept in draw order as
    # flat indices i * n + j; the mask is False on the diagonal, so a = b misses
    n = len(mask)
    flat_mask = mask.ravel()
    picked = np.empty(0, dtype=np.int64)
    while len(picked) < count:
        batch = max(2 * (count - len(picked)), 16)
        a = rng.integers(0, n, size=batch)
        b = rng.integers(0, n, size=batch)
        index = np.minimum(a, b) * n + np.maximum(a, b)
        picked = np.concatenate([picked, index[flat_mask[index]]])[:count]
    return picked


def auc_sampled(scores: ScoreMatrix, probe: np.ndarray, train_graph: AttributedGraph,
                n: int, seed: int) -> AucResult:
    """AUC from n independent (probe edge, non-edge) comparisons."""
    probe = np.asarray(probe, dtype=np.int64).reshape(-1, 2)
    mask = _nonedge_pool(scores, train_graph, probe)
    rng = np.random.default_rng(seed)
    pick = rng.integers(0, len(probe), size=n)
    nonedges = _sample_nonedges(rng, mask, n)
    # take with no axis indexes the row-major flattening, i * n + j
    probe_scores = scores.values.take(probe[:, 0] * len(mask) + probe[:, 1]).take(pick)
    nonedge_scores = scores.values.take(nonedges)
    diff = probe_scores - nonedge_scores
    n_higher = int(np.count_nonzero(diff > TIE_TOLERANCE))
    n_equal = int(np.count_nonzero(np.abs(diff) <= TIE_TOLERANCE))
    return AucResult(auc=(n_higher + 0.5 * n_equal) / n, n_comparisons=n,
                     n_higher=n_higher, n_equal=n_equal, mode="sampled")


def _count_below(ascending: np.ndarray, probe_scores: np.ndarray, threshold: float) -> int:
    # Sum over probe scores p of #{r in ascending: p - r > threshold}. Rounded
    # subtraction is monotone, so those r are a prefix (NaN sorts last); bisect
    # on the predicate itself, since ranking p - threshold can be an ulp off.
    lo = np.zeros(len(probe_scores), dtype=np.int64)
    hi = np.full(len(probe_scores), len(ascending), dtype=np.int64)
    for _ in range(len(ascending).bit_length()):
        mid = (lo + hi) // 2
        inside = probe_scores - ascending.take(mid, mode="clip") > threshold
        open_ = lo < hi
        lo = np.where(open_ & inside, mid + 1, lo)
        hi = np.where(open_ & ~inside, mid, hi)
    return int(lo.sum())


def auc_exact(scores: ScoreMatrix, probe: np.ndarray, train_graph: AttributedGraph) -> AucResult:
    """AUC over every (probe edge, non-edge) pair, ties counted half.

    The normalised Mann-Whitney U statistic: non-edge scores are sorted once
    and each probe score is ranked among them by bisection, so the cost is
    O(N log N) in the N non-edges and there is no cap on the pair count.
    """
    probe = np.asarray(probe, dtype=np.int64).reshape(-1, 2)
    nonedge_scores = np.sort(scores.values[_nonedge_pool(scores, train_graph, probe)])
    probe_scores = scores.values[probe[:, 0], probe[:, 1]]
    total = len(probe) * len(nonedge_scores)
    # |p - r| <= tol  <=>  p - r > -tol - ulp  and not  p - r > tol
    n_higher = _count_below(nonedge_scores, probe_scores, TIE_TOLERANCE)
    n_equal = _count_below(nonedge_scores, probe_scores,
                           np.nextafter(-TIE_TOLERANCE, -np.inf)) - n_higher
    return AucResult(auc=(n_higher + 0.5 * n_equal) / total, n_comparisons=total,
                     n_higher=n_higher, n_equal=n_equal, mode="exact")


def _check_dataset_label(dataset: str) -> None:
    if any(char in dataset for char in ',"\r\n'):
        raise ConfigError(f"dataset label {dataset!r} has a comma, double quote, CR or LF, "
                          "which the report's CSV records cannot hold; choose another label")


def run_experiment(graph: AttributedGraph, methods: list, cfg: ExperimentConfig,
                   repetitions: int = 10, dataset: str = "dataset") -> EvalReport:
    """Repeated random-split evaluation of several methods on one graph.

    Every repetition draws a fresh probe split from a seed spawned off the
    master seed, scores each method on the train graph only (the weighted
    walk keeps the full attribute matrix: attributes are node properties,
    not links), and computes AUC on probe vs non-edges. Reports mean and
    population standard deviation per method plus cumulative wall-clock.
    """
    if not methods:
        raise ConfigError("need at least one method to evaluate")
    if repetitions < 1:
        raise ConfigError(f"repetitions must be >= 1, got {repetitions}")
    _check_dataset_label(dataset)
    names = []
    for name in methods:
        key = canonical_method(name)
        if key not in names:
            names.append(key)
    if "randwalk" in names and graph.attr_dim == 0:
        raise ConfigError("method 'randwalk' requires node attributes")

    children = np.random.SeedSequence(cfg.master_seed).spawn(repetitions)
    rep_seeds = [tuple(int(s) for s in child.generate_state(2)) for child in children]

    aucs: dict[str, list] = {name: [] for name in names}
    seconds = {name: 0.0 for name in names}
    converged = {name: True for name in names}
    for rep, (split_seed, auc_seed) in enumerate(rep_seeds):
        split = split_probe(graph, cfg.split_fraction, split_seed)
        for name in names:
            start = time.perf_counter()
            score = score_method(name, split.train_graph, cfg)
            if cfg.auc_mode == "sampled":
                result = auc_sampled(score, split.probe_edges, split.train_graph,
                                     cfg.auc_samples, auc_seed)
            else:
                result = auc_exact(score, split.probe_edges, split.train_graph)
            seconds[name] += time.perf_counter() - start
            aucs[name].append(result.auc)
            converged[name] = converged[name] and score.converged
            logger.info("rep %d method %s: auc=%.4f", rep, name, result.auc)

    results = [
        MethodResult(
            method=name,
            aucs=aucs[name],
            auc_mean=float(np.mean(aucs[name])),
            auc_std=float(np.std(aucs[name])),
            seconds=seconds[name],
            converged=converged[name],
        )
        for name in names
    ]
    flat = asdict(cfg)
    echo = {**flat.pop("propagation"), **flat.pop("baselines"), **flat}
    return EvalReport(dataset=dataset, results=results, config=echo,
                      repetitions=repetitions, seeds=[s for s, _ in rep_seeds])


def format_report(report: EvalReport, timing: bool = False) -> str:
    """Render a report as a comment block plus CSV records.

    The aligned table and the CSV both carry dataset, method, auc_mean,
    auc_std, seconds. Measured wall-clock is volatile, so the seconds
    column is written as 0.000 unless ``timing`` is set; this keeps
    re-runs with one master seed byte-identical.
    """
    lines = [f"# dataset: {report.dataset}", f"# repetitions: {report.repetitions}"]
    cfg_items = "  ".join(f"{k}: {v}" for k, v in report.config.items())
    lines.append(f"# {cfg_items}")
    if report.seeds:
        lines.append(f"# split_seeds: {' '.join(str(s) for s in report.seeds)}")
    rows = []
    for res in report.results:
        secs = res.seconds if timing else 0.0
        rows.append((res.method, f"{res.auc_mean:.4f}", f"{res.auc_std:.4f}", f"{secs:.3f}"))
    name_w = max(len("method"), max(len(r[0]) for r in rows))
    lines.append(f"# {'method'.ljust(name_w)}  auc_mean  auc_std  seconds")
    for method, mean, std, secs in rows:
        lines.append(f"# {method.ljust(name_w)}  {mean.ljust(8)}  {std.ljust(7)}  {secs}")
    lines.append("dataset,method,auc_mean,auc_std,seconds")
    for res, (method, _, _, secs) in zip(report.results, rows):
        lines.append(
            f"{report.dataset},{method},{format(res.auc_mean, '.12g')},"
            f"{format(res.auc_std, '.12g')},{secs}"
        )
    return "\n".join(lines) + "\n"
