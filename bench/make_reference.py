"""Writes the committed reference outputs under bench/reference/.

    PYTHONPATH=src python3 bench/make_reference.py --kind predict --seeds 0-11
    PYTHONPATH=src python3 bench/make_reference.py --kind evaluate --seeds 0-11

predict/seed-N.json holds the top-100 non-edges of ``linkpred predict
--method randwalk`` on the predict-n3000 inputs of seed N, after the same
checks a benchmark run makes. evaluate/seed-N.json holds, for the first
repetitions of the evaluate workloads, the exact AUC of every method's
scores, counted over every (probe, non-edge) pair by brute force: the
library refuses these instances in exact mode. The walk is solved for the
first PAPER_REPS repetitions only, since evaluate-paper runs fewer of them.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile

import check
import evaluate_ops
import inputs
from tracer import Tracer
from worker import PredictRun, load_graph

PAPER_REPS = 6
BASELINE_REPS = 14
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(BENCH_DIR, "reference")
WORK_ROOT = os.path.join(os.path.dirname(BENCH_DIR), ".bench_run")


def predict_reference(seed: int, workdir: str) -> dict:
    from linkpred import cli

    inputs.write_inputs("predict-n3000", seed, workdir)
    graph = load_graph(workdir)
    args = argparse.Namespace(workload="predict-n3000", seed=seed, inputs=workdir)
    score_method = cli.score_method
    try:
        run = PredictRun(args, graph, Tracer())
        run.reference = None
        run.run_pass(0, traced=False)
    finally:
        cli.score_method = score_method
    code, out, saved, converged, sweeps = run.pending[0]
    check.require(code == 0, f"predict exited {code}")
    top = run.check_pass(out, saved, converged)
    return {"n": graph.n, "m": graph.m_edges, "sweeps": sweeps,
            "top": [list(t) for t in top]}


def evaluate_reference(seed: int, workdir: str) -> dict:
    from linkpred.evaluation import METHOD_NAMES, ExperimentConfig, score_method

    inputs.write_inputs("evaluate-paper", seed, workdir)
    graph = load_graph(workdir)
    cfg = ExperimentConfig()
    aucs = []
    for rep in range(BASELINE_REPS):
        split, _, _ = evaluate_ops.split_repetition(graph, cfg, rep)
        i, j = check.nonedge_pairs(graph.n, split.train_graph.edges, split.probe_edges)
        probe = split.probe_edges
        row = []
        for method in METHOD_NAMES:
            if method == "randwalk" and rep >= PAPER_REPS:
                row.append(None)
                continue
            values = score_method(method, split.train_graph, cfg).values
            row.append(check.exact_auc_bruteforce(values[probe[:, 0], probe[:, 1]],
                                                  values[i, j]))
        aucs.append(row)
        print(f"seed {seed} rep {rep}: {row}", flush=True)
    return {"n": graph.n, "m": graph.m_edges, "master_seed": cfg.master_seed,
            "tie_tolerance": check.TIE_TOLERANCE, "methods": list(METHOD_NAMES), "aucs": aucs}


def write_json(data: dict, path: str) -> None:
    """JSON with one line per list row, so the files diff row by row."""
    items = []
    for key, value in data.items():
        if isinstance(value, list):
            rows = ",\n  ".join(json.dumps(row) for row in value)
            items.append(f" {json.dumps(key)}: [\n  {rows}\n ]")
        else:
            items.append(f" {json.dumps(key)}: {json.dumps(value)}")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("{\n" + ",\n".join(items) + "\n}\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--kind", choices=("predict", "evaluate"), required=True)
    parser.add_argument("--seeds", required=True, help="first-last, e.g. 0-11")
    args = parser.parse_args(argv)
    first, _, last = args.seeds.partition("-")
    make = predict_reference if args.kind == "predict" else evaluate_reference
    os.makedirs(os.path.join(REFERENCE_DIR, args.kind), exist_ok=True)
    os.makedirs(WORK_ROOT, exist_ok=True)
    for seed in range(int(first), int(last or first) + 1):
        workdir = tempfile.mkdtemp(prefix="reference-", dir=WORK_ROOT)
        try:
            data = make(seed, workdir)
        finally:
            shutil.rmtree(workdir)
        path = os.path.join(REFERENCE_DIR, args.kind, f"seed-{seed}.json")
        write_json(data, path)
        print(f"wrote {path}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
