"""linkpred benchmark: one workload, one seed, one result line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``. Workloads:

    predict-n3000       linkpred predict --method randwalk --top-k 100, n = 3000
    evaluate-paper      every method, exact AUC, split 0.1, N = 1465
    evaluate-baselines  the ten baselines, sampled AUC (200 000), same graph

Steps, each in its own process: generate the inputs from the seed
(inputs.py), time the program's set-up (import plus loading the graph
files) in fresh processes (setup_probe.py), then run the workload in a
fresh process (worker.py). Times are CPU seconds of the measured process
(see worker.py for why); wall-clock figures are recorded alongside.
The last line of standard output is the result as JSON; the line before
it records the realized graph size, the per-pass times and the
environment. With ``--trace 0`` the metrics are the end-to-end ones, with
``--trace 1`` the per-layer ones from a run that times every layer from
outside the package. Exits non-zero, printing no result, when the program
is missing, a step fails or a step runs out of time.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORK_ROOT = os.path.join(ROOT, ".bench_run")
WORKLOADS = ("predict-n3000", "evaluate-paper", "evaluate-baselines")
SETUP_SAMPLES = 9
RUN_DEADLINE_S = 170  # every step of a run ends within this

# glibc returns every freed block above its mmap threshold (at most 32 MB by
# default) to the kernel, so each n x n array of a solve at n = 3000 (72 MB)
# is page-faulted in afresh. That fault time moves by more than 100% with
# the host's memory load. Keeping freed memory in the heap takes it out.
MALLOC_ENV = {"MALLOC_MMAP_THRESHOLD_": str(2**32), "MALLOC_TRIM_THRESHOLD_": str(2**34)}

END_TO_END_UNITS = {"setup_s": "s", "run_rel": "ratio", "peak_rss_mb": "MB"}
LAYER_UNITS = {
    "propagation.solve_s": "s", "propagation.self_s": "s", "propagation.sweeps": "count",
    "propagation.sweep_s": "s", "similarity.matrix_s": "s", "similarity.weights_s": "s",
    "baselines.local_s": "s", "baselines.lp_s": "s", "baselines.katz_s": "s",
    "evaluation.split_s": "s", "evaluation.auc_exact_s": "s", "evaluation.auc_sampled_s": "s",
    "evaluation.auc_calls": "count", "evaluation.auc_failed": "count", "cli.self_s": "s",
    "graph.load_s": "s", "trace.overhead_s": "s", "fail_ratio": "ratio",
}


class StepFailed(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    # One BLAS thread: every other operation of the program is single-threaded,
    # and a second thread that spins while it waits for a core would count as
    # CPU time.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.update(MALLOC_ENV)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def step(args: list, deadline: float) -> str:
    """Run one child process to completion and return its standard output."""
    # A session of its own, so that a step out of time is killed together with
    # the calibration process the worker starts.
    proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=child_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise StepFailed(f"{os.path.basename(args[0])} ran out of time") from None
    if proc.returncode != 0:
        raise StepFailed(f"{os.path.basename(args[0])} exited {proc.returncode}:\n{err[-2000:]}")
    return out


def setup_seconds(workdir: str, deadline: float) -> tuple[float, float]:
    """(CPU, wall-clock) seconds from the start of a fresh process to its graph loaded."""
    started = time.monotonic()
    out = step([os.path.join(BENCH_DIR, "setup_probe.py"), workdir], deadline)
    loaded, cpu = (float(x) for x in out.strip().splitlines()[-1].split())
    return cpu, loaded - started


def run(args) -> dict:
    if not os.path.isfile(os.path.join(ROOT, "src", "linkpred", "__init__.py")):
        raise StepFailed(f"no linkpred sources under {os.path.join(ROOT, 'src')}")
    deadline = time.monotonic() + RUN_DEADLINE_S
    workdir = os.path.join(WORK_ROOT, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        inputs = json.loads(step([os.path.join(BENCH_DIR, "inputs.py"), "--workload",
                                  args.workload, "--seed", str(args.seed), "--out", workdir],
                                 deadline).strip().splitlines()[-1])
        setups = []
        if not args.trace:
            setups = [setup_seconds(workdir, deadline) for _ in range(SETUP_SAMPLES)]
        result_path = os.path.join(workdir, "result.json")
        step([os.path.join(BENCH_DIR, "worker.py"), "--workload", args.workload,
              "--seed", str(args.seed), "--inputs", workdir, "--seconds", str(args.seconds),
              "--trace", str(args.trace), "--out", result_path], deadline)
        with open(result_path, encoding="utf-8") as handle:
            result = json.load(handle)
        if args.trace:
            shutil.move(os.path.join(workdir, "spans.json"),
                        os.path.join(WORK_ROOT, f"spans-{args.workload}-{args.seed}.json"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["inputs"] = {k: inputs[k] for k in ("n", "m", "p_in", "p_out", "noise")}
    result["setup_samples"] = [cpu for cpu, _ in setups]
    result["setup_samples_wall"] = [wall for _, wall in setups]
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="linkpred benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    try:
        result = run(args)
    except StepFailed as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    if args.trace:
        units = LAYER_UNITS
        values = result["layers"]
    else:
        units = END_TO_END_UNITS
        values = {
            "setup_s": statistics.median(result["setup_samples"]),
            "run_rel": statistics.median(result["passes_rel"]),
            "peak_rss_mb": result["peak_rss_mb"],
        }
    record = {key: result[key] for key in (
        "inputs", "passes", "passes_rel", "calibration", "traced_passes", "passes_wall",
        "minor_faults", "setup_samples", "setup_samples_wall", "reference", "errors", "env")}
    record.update(workload=args.workload, seed=args.seed, trace=args.trace)
    print(json.dumps({"bench": record}))
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
