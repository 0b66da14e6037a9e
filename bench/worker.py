"""Runs one workload in a fresh process and writes its measurements as JSON.

Started by bench/run.py:

    worker.py --workload W --seed N --inputs DIR --seconds S --trace 0|1 --out FILE

Loads the graph files in DIR, runs passes of the workload in a closed loop
(one client, one op at a time) until S seconds of passes are measured,
checks every output and writes the result to FILE. A pass is one
``predict`` CLI call, or one evaluate repetition (a probe split plus one op
per method). Checks run outside the timed region.

Passes are timed in CPU seconds of this process (``time.process_time``,
user plus system). On a shared virtual machine a pass's wall-clock time
also counts the moments its virtual CPU waits for the host; CPU time
leaves them out. Each pass's wall-clock time is recorded next to it.
Before the first pass and after each one, the reference computation of
calibrate.py is timed in a helper process, and each pass is also given
relative to the mean of the samples either side of it.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import numpy as np
import scipy

import check
import evaluate_ops
from check import CheckFailed, require
from linkpred import cli, graph as graph_mod
from linkpred.evaluation import METHOD_NAMES, ExperimentConfig
from tracer import Tracer

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(BENCH_DIR, "reference")


def load_graph(inputs: str):
    loaded = graph_mod.load_edge_list(os.path.join(inputs, "edges.txt"))
    return graph_mod.load_attributes(os.path.join(inputs, "attrs.txt"), loaded)


def blas_threads():
    """OpenBLAS's own thread count, or None when the library does not report it."""
    pattern = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(pattern):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            func = getattr(lib, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                return int(func())
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "malloc_mmap_threshold": os.environ.get("MALLOC_MMAP_THRESHOLD_"),
        "malloc_trim_threshold": os.environ.get("MALLOC_TRIM_THRESHOLD_"),
    }


# The reference computation shaped like each workload's dominant layers: the
# randwalk solve is most of predict-n3000 and evaluate-paper, the AUC sampler
# and Katz most of evaluate-baselines.
CALIBRATION_KIND = {"predict-n3000": "sweep", "evaluate-paper": "sweep",
                    "evaluate-baselines": "loop"}


class Calibration:
    """The calibrate.py process, asked for one sample of host speed at a time."""

    def __init__(self, kind: str, graph) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(BENCH_DIR, "calibrate.py"), kind,
             str(graph.n), str(graph.m_edges)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def sample(self) -> float:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"calibrate.py exited {self.proc.wait()}")
        return float(line)

    def close(self) -> None:
        """End the process (closing its input ends its loop) and wait for it."""
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=30)
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()


class Run:
    """Counters, reference and tracer shared by the passes of one run."""

    def __init__(self, args, graph, tracer: Tracer) -> None:
        self.args = args
        self.graph = graph
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.mismatches = 0
        self.errors: list[str] = []
        kind = args.workload.split("-")[0]
        path = os.path.join(REFERENCE_DIR, kind, f"seed-{args.seed}.json")
        self.reference = None
        if os.path.exists(path):
            with open(path, encoding="utf-8") as handle:
                self.reference = json.load(handle)
            if (self.reference["n"], self.reference["m"]) != (graph.n, graph.m_edges):
                self.mismatch(f"inputs differ from the reference's n={self.reference['n']} "
                              f"m={self.reference['m']}")
                self.reference = None

    def note(self, message: str) -> None:
        if len(self.errors) < 5:
            self.errors.append(message)

    def mismatch(self, message: str) -> None:
        self.mismatches += 1
        self.note(f"check failed: {message}")

    def finish(self) -> None:
        """Checks deferred until after the timed passes."""


class PredictRun(Run):
    """``linkpred predict --method randwalk --top-k 100`` through ``cli.main``."""

    TOP_K = 100

    def __init__(self, args, graph, tracer: Tracer) -> None:
        super().__init__(args, graph, tracer)
        self.pending: list[tuple] = []
        # Keep the score matrix the CLI computed, for the output check. The
        # capture is in place for traced and untraced passes alike.
        self.captured: list = []
        score_method = cli.score_method

        def capture(*call_args, **call_kwargs):
            self.captured.append(score_method(*call_args, **call_kwargs))
            return self.captured[-1]

        cli.score_method = capture

    def run_pass(self, index: int, traced: bool) -> float:
        workdir = self.args.inputs
        out = os.path.join(workdir, f"top-{index}.csv")
        argv = ["predict", "--edges", os.path.join(workdir, "edges.txt"),
                "--attrs", os.path.join(workdir, "attrs.txt"), "--method", "randwalk",
                "--top-k", str(self.TOP_K), "--out", out]
        span = self.tracer.span("cli.main") if traced else contextlib.nullcontext()
        start = time.process_time()
        with span:
            code = cli.main(argv)
        seconds = time.process_time() - start
        self.attempted += 1
        saved = converged = sweeps = None
        if self.captured:
            scores = self.captured.pop()
            converged, sweeps = scores.converged, scores.iterations
            # Checked after the timed passes, so that the check's memory never
            # shows in peak_rss_mb.
            saved = os.path.join(workdir, f"scores-{index}.npy")
            np.save(saved, scores.values)
            del scores
        self.captured.clear()
        self.pending.append((code, out, saved, converged, sweeps))
        return seconds

    def check_pass(self, out: str, saved: str, converged: bool) -> list:
        """Check one pass's CSV and score matrix; returns the top-k rows."""
        values = np.load(saved)
        check.check_score_invariants(values, converged)
        residual = check.weighted_residual(values, self.graph.n, self.graph.edges,
                                           self.graph.attributes, cli.DEFAULTS["c"])
        require(residual <= check.RESIDUAL_TOL,
                f"fixed-point residual {residual:.3g} > {check.RESIDUAL_TOL}")
        with open(out, encoding="utf-8") as handle:
            top = check.check_topk_csv(handle.read(), values, self.graph.n, self.graph.edges,
                                       self.TOP_K)
        if self.reference is not None:
            check.check_topk_reference(top, [tuple(r) for r in self.reference["top"]])
        return top

    def finish(self) -> None:
        for code, out, saved, converged, _ in self.pending:
            if code != 0 or saved is None:
                self.failed += 1
                self.note(f"predict exited with code {code}")
                continue
            try:
                self.check_pass(out, saved, converged)
            except CheckFailed as exc:
                self.failed += 1
                self.mismatch(str(exc))
            finally:
                os.remove(saved)


class EvaluateRun(Run):
    """One repetition of ``evaluate`` per pass, run op by op (see evaluate_ops.py)."""

    def __init__(self, args, graph, tracer: Tracer) -> None:
        super().__init__(args, graph, tracer)
        if args.workload == "evaluate-paper":
            self.methods = list(METHOD_NAMES)
            self.cfg = ExperimentConfig(auc_mode="exact")
        else:
            self.methods = [m for m in METHOD_NAMES if m != "randwalk"]
            self.cfg = ExperimentConfig(auc_mode="sampled", auc_samples=200_000)

    def run_pass(self, rep: int, traced: bool) -> float:
        split, auc_seed, seconds = evaluate_ops.split_repetition(self.graph, self.cfg, rep)
        self.check_split(split)
        pairs = check.nonedge_pairs(self.graph.n, split.train_graph.edges, split.probe_edges)
        refs = {}
        if self.reference is not None and rep < len(self.reference["aucs"]):
            refs = dict(zip(self.reference["methods"], self.reference["aucs"][rep]))
        for method in self.methods:
            op = evaluate_ops.run_op(split, method, self.cfg, auc_seed, rep)
            seconds += op.seconds
            self.attempted += 1
            self.check_op(op, split.probe_edges, pairs, refs.get(method))
        return seconds

    def check_split(self, split) -> None:
        both = np.concatenate([split.train_graph.edges, split.probe_edges])
        both = both[np.lexsort((both[:, 1], both[:, 0]))]
        try:
            require(len(split.probe_edges) == round(self.cfg.split_fraction * self.graph.m_edges),
                    "probe size is not round(split * m)")
            require(np.array_equal(both, self.graph.edges), "train + probe != graph edges")
        except CheckFailed as exc:
            self.mismatch(str(exc))

    def check_op(self, op, probe, pairs, reference) -> None:
        if op.error is not None:
            self.failed += 1
            self.note(f"rep {op.rep} {op.method}: {op.error[:200]}")
        if op.scores is None:
            return
        values = op.scores.values
        try:
            if op.method == "randwalk":
                check.check_score_invariants(values, op.scores.converged)
            expected = check.exact_auc_sorted(values[probe[:, 0], probe[:, 1]], values[pairs])
            if reference is not None:
                tol = check.REFERENCE_AUC_TOL.get(op.method, check.REFERENCE_AUC_TOL_DEFAULT)
                require(abs(expected - reference) <= tol,
                        f"rep {op.rep} {op.method}: AUC {expected!r} vs reference {reference!r}")
            if op.auc is not None:
                tol = check.SAMPLED_AUC_TOL if op.auc.mode == "sampled" else check.EXACT_AUC_TOL
                require(abs(op.auc.auc - expected) <= tol,
                        f"rep {op.rep} {op.method}: {op.auc.mode} AUC {op.auc.auc!r} "
                        f"vs independent exact {expected!r}")
        except CheckFailed as exc:
            if op.error is None:
                self.failed += 1
            self.mismatch(str(exc))


def layer_metrics(tracer: Tracer, passes: list[int], setup_spans: list[int]) -> dict:
    """Per-layer figures of each traced pass, as the median over traced passes."""
    rows = []
    for root in passes:
        total: dict[str, float] = {}
        for i in tracer.descendants(root):
            name, _, _, _, failed, sweeps = tracer.spans[i]
            for key, value in ((name, tracer.duration(i)), (name + ":self", tracer.self_time(i)),
                               (name + ":calls", 1), (name + ":failed", int(failed)),
                               (name + ":sweeps", sweeps)):
                total[key] = total.get(key, 0.0) + value

        def get(key: str) -> float:
            return total.get(key, 0.0)

        sweeps = get("propagation.randwalk_solve:sweeps")
        self_s = get("propagation.randwalk_solve:self")
        rows.append({
            "propagation.solve_s": get("propagation.randwalk_solve"),
            "propagation.self_s": self_s,
            "propagation.sweeps": sweeps,
            "propagation.sweep_s": self_s / sweeps if sweeps else 0.0,
            "similarity.matrix_s": get("similarity.similarity_matrix"),
            "similarity.weights_s": get("similarity.transmission_weights"),
            "baselines.local_s": get("baselines.local_index"),
            "baselines.lp_s": get("baselines.lp_index"),
            "baselines.katz_s": get("baselines.katz_index"),
            "evaluation.split_s": get("evaluation.split_probe"),
            "evaluation.auc_exact_s": get("evaluation.auc_exact"),
            "evaluation.auc_sampled_s": get("evaluation.auc_sampled"),
            "evaluation.auc_calls": get("evaluation.auc_exact:calls")
            + get("evaluation.auc_sampled:calls"),
            "evaluation.auc_failed": get("evaluation.auc_exact:failed")
            + get("evaluation.auc_sampled:failed"),
            "cli.self_s": get("cli.main:self"),
        })
    metrics = {key: statistics.median(row[key] for row in rows) for key in rows[0]}
    metrics["graph.load_s"] = sum(tracer.duration(i) for i in setup_spans)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    tracer = Tracer()
    if args.trace:
        tracer.install()
    graph = load_graph(args.inputs)
    setup_spans = list(range(len(tracer.spans)))
    tracer.uninstall()

    run = (PredictRun if args.workload == "predict-n3000" else EvaluateRun)(args, graph, tracer)
    env = environment()
    calibration = Calibration(CALIBRATION_KIND[args.workload], graph)
    try:
        result, traced_roots = run_passes(args, run, tracer, calibration)
    finally:
        calibration.close()
    result["env"] = env
    if args.trace:
        layers = layer_metrics(tracer, traced_roots, setup_spans)
        layers["trace.overhead_s"] = (statistics.median(result["traced_passes"])
                                      - statistics.median(result["passes"]))
        layers["fail_ratio"] = run.failed / run.attempted
        result["layers"] = layers
        tracer.write(os.path.join(args.inputs, "spans.json"))
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


def run_passes(args, run: Run, tracer: Tracer, calibration: Calibration) -> tuple[dict, list]:
    """Measurements of the passes, and the root spans of the traced ones."""
    # Closed loop: the next pass starts when the previous one ends. A traced
    # run alternates untraced and traced passes so both see the same load.
    passes: list[tuple[float, bool]] = []
    walls: list[float] = []  # wall-clock per pass; evaluate checks included, like faults
    traced_roots: list[int] = []
    samples = [calibration.sample()]
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        start = time.perf_counter()
        if traced:
            tracer.install()
            with tracer.span("pass") as root:
                seconds = run.run_pass(len(passes), traced)
            tracer.uninstall()
            traced_roots.append(root)
        else:
            seconds = run.run_pass(len(passes), traced)
        walls.append(time.perf_counter() - start)
        samples.append(calibration.sample())
        passes.append((seconds, traced))
        if sum(s for s, _ in passes) >= args.seconds and (traced_roots or not args.trace):
            break
    usage = resource.getrusage(resource.RUSAGE_SELF)
    run.finish()
    relative = [seconds / ((samples[i] + samples[i + 1]) / 2)
                for i, (seconds, traced) in enumerate(passes) if not traced]
    return {
        "passes": [s for s, t in passes if not t],
        "traced_passes": [s for s, t in passes if t],
        "passes_rel": relative,
        "calibration": samples,
        "passes_wall": walls,
        "minor_faults": usage.ru_minflt - faults,
        "attempted": run.attempted,
        "failed": run.failed,
        "correct": run.mismatches == 0,
        "errors": run.errors,
        "reference": run.reference is not None,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
    }, traced_roots


if __name__ == "__main__":
    sys.exit(main())
