"""Tests of the benchmark's per-op evaluate runner, failure accounting, tracer and checks.

Run from the repository root with ``python3 -m pytest bench/tests``.
"""

from __future__ import annotations

import argparse

import numpy as np
import pytest

import check
import evaluate_ops
import inputs
from linkpred import (AttributedGraph, ExperimentConfig, PropagationConfig, evaluation,
                      randwalk_solve, run_experiment)
from linkpred.errors import EvaluationError
from tracer import Tracer
from worker import EvaluateRun, layer_metrics

# Acceptance criterion A9's instance: small enough for exact AUC.
A9 = dict(n=120, groups=4, p_in=0.2, p_out=0.02, noise=0.1, seed=11)
UNREFERENCED_SEED = 10**9


@pytest.fixture(scope="module")
def a9_graph():
    edges, attrs = inputs.planted_graph(**A9)
    return AttributedGraph.build(A9["n"], edges, attributes=attrs)


@pytest.mark.parametrize("auc_mode", ["exact", "sampled"])
def test_per_op_runner_reproduces_run_experiment(a9_graph, auc_mode):
    cfg = ExperimentConfig(master_seed=2718, auc_mode=auc_mode, auc_samples=5000)
    methods = list(evaluation.METHOD_NAMES)
    report = run_experiment(a9_graph, methods, cfg, repetitions=3)
    expected = {res.method: res.aucs for res in report.results}
    for rep in range(3):
        split, auc_seed, _ = evaluate_ops.split_repetition(a9_graph, cfg, rep)
        for method in methods:
            op = evaluate_ops.run_op(split, method, cfg, auc_seed, rep)
            assert op.error is None
            assert op.auc.auc == expected[method][rep]


def evaluate_run(graph):
    args = argparse.Namespace(workload="evaluate-paper", seed=UNREFERENCED_SEED)
    return EvaluateRun(args, graph, Tracer())


def test_refused_auc_exact_is_one_failed_op(a9_graph, monkeypatch):
    run = evaluate_run(a9_graph)
    original = evaluation.auc_exact
    calls = []

    def refuse_second(*args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            raise EvaluationError("refused")
        return original(*args, **kwargs)

    monkeypatch.setattr(evaluation, "auc_exact", refuse_second)
    run.run_pass(0, traced=False)
    assert run.attempted == len(evaluation.METHOD_NAMES)
    assert run.failed == 1
    assert run.mismatches == 0
    assert "refused" in run.errors[0]


def test_wrong_auc_is_a_failed_mismatch(a9_graph, monkeypatch):
    run = evaluate_run(a9_graph)
    original = evaluation.auc_exact

    def skewed(*args, **kwargs):
        result = original(*args, **kwargs)
        return evaluation.AucResult(result.auc + 0.01, result.n_comparisons,
                                    result.n_higher, result.n_equal, result.mode)

    monkeypatch.setattr(evaluation, "auc_exact", skewed)
    run.run_pass(0, traced=False)
    assert run.failed == run.attempted == run.mismatches


def test_traced_pass_attributes_time_to_layers(a9_graph):
    run = evaluate_run(a9_graph)
    tracer = run.tracer
    tracer.install()
    try:
        with tracer.span("pass") as root:
            run.run_pass(0, traced=True)
    finally:
        tracer.uninstall()
    assert not hasattr(evaluation.auc_exact, "__wrapped__")
    layers = layer_metrics(tracer, [root], [])
    split, _, _ = evaluate_ops.split_repetition(a9_graph, run.cfg, 0)
    solved = randwalk_solve(split.train_graph, run.cfg.propagation)
    assert layers["propagation.sweeps"] == solved.iterations
    assert layers["evaluation.auc_calls"] == len(evaluation.METHOD_NAMES)
    assert layers["evaluation.auc_failed"] == 0
    assert 0 < layers["propagation.self_s"] < layers["propagation.solve_s"]
    assert layers["cli.self_s"] == 0.0


def test_sorted_auc_count_matches_bruteforce():
    rng = np.random.default_rng(5)
    probe = np.round(rng.random(40) * 8) / 8  # many exact ties
    nonedges = np.round(rng.random(3000) * 8) / 8
    assert check.exact_auc_sorted(probe, nonedges) == check.exact_auc_bruteforce(probe, nonedges)


def test_residual_accepts_fixed_point_and_rejects_perturbation(a9_graph):
    solved = randwalk_solve(a9_graph, PropagationConfig(tolerance=1e-10))
    args = (a9_graph.n, a9_graph.edges, a9_graph.attributes, 0.8)
    assert check.weighted_residual(solved.values, *args, block=7) < 1e-9
    perturbed = solved.values.copy()
    perturbed[3, 5] = perturbed[5, 3] = perturbed[3, 5] + 1e-3
    assert check.weighted_residual(perturbed, *args) > 1e-4
