"""Per-op evaluate runner: the steps of ``run_experiment``, one op at a time.

``run_experiment`` stops at the first error, so a refused AUC call would end
a whole evaluation. The benchmark runs the same steps itself: repetition r
splits with the seeds of the r-th child of ``SeedSequence(master_seed)``,
then every method is one op (score on the train graph, then AUC). An op
that raises counts as failed and the run goes on, so fixing a refusal
never reads as a slowdown.

Every call goes through the ``linkpred.evaluation`` module attributes that
``run_experiment`` itself looks up, so the tracer's wrappers see them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from linkpred import evaluation


@dataclass
class Op:
    """Outcome of one (repetition, method) op; ``error`` is set when it raised."""

    rep: int
    method: str
    seconds: float  # CPU seconds of the process, score plus AUC
    scores: object = None
    auc: object = None
    error: str | None = None


def rep_seeds(master_seed: int, rep: int) -> tuple[int, int]:
    """Split and AUC seeds of repetition ``rep``, as ``run_experiment`` spawns them."""
    child = np.random.SeedSequence(master_seed, spawn_key=(rep,))
    split_seed, auc_seed = (int(s) for s in child.generate_state(2))
    return split_seed, auc_seed


def split_repetition(graph, cfg, rep: int):
    """(probe split, AUC seed, CPU seconds of the split) for repetition ``rep``."""
    split_seed, auc_seed = rep_seeds(cfg.master_seed, rep)
    start = time.process_time()
    split = evaluation.split_probe(graph, cfg.split_fraction, split_seed)
    return split, auc_seed, time.process_time() - start


def run_op(split, method: str, cfg, auc_seed: int, rep: int) -> Op:
    """Score one method on the train graph and compute its AUC."""
    start = time.process_time()
    scores = auc = error = None
    try:
        scores = evaluation.score_method(method, split.train_graph, cfg)
        if cfg.auc_mode == "sampled":
            auc = evaluation.auc_sampled(scores, split.probe_edges, split.train_graph,
                                         cfg.auc_samples, auc_seed)
        else:
            auc = evaluation.auc_exact(scores, split.probe_edges, split.train_graph)
    except ValueError as exc:  # LinkpredError and the ValueErrors the CLI maps to exit 2
        error = f"{type(exc).__name__}: {exc}"
    return Op(rep=rep, method=method, seconds=time.process_time() - start,
              scores=scores, auc=auc, error=error)
