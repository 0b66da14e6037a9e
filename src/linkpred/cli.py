"""Batch command-line interface: predict, evaluate, stats, generate.

Option precedence: command-line flags override the optional ``--config``
file (plain ``key=value`` lines, ``#`` comments), which overrides built-in
defaults. All randomness flows from one master seed (default 12345), so
re-runs produce byte-identical outputs.

Exit codes: 0 success, 1 configuration error, 2 data error,
3 non-convergence warning (results still written).
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from pathlib import Path

import numpy as np

from .baselines import BaselineConfig
from .errors import ConfigError, DataError
from .evaluation import (METHOD_NAMES, ExperimentConfig, canonical_method,
                         format_report, run_experiment, score_method)
from .graph import (load_attributes, load_edge_list, nonedge_mask, save_attributes,
                    save_edge_list, write_id_map)
from .netstats import format_stats, generate_planted_attribute_graph, stats_report
from .propagation import PropagationConfig
from .similarity import similarity_matrix

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DATA = 2
EXIT_NONCONVERGED = 3

DEFAULT_SEED = 12345

DEFAULTS = {
    "edges": None,
    "attrs": None,
    "out": None,
    "method": "randwalk",
    "c": 0.8,
    "tol": 1e-6,
    "max_iter": 100,
    "init": "attrsim",
    "split": 0.1,
    "reps": 10,
    "seed": DEFAULT_SEED,
    "top_k": 100,
    "auc": "exact",
    "auc_samples": 200_000,
    "lp_epsilon": 0.001,
    "katz_beta": 0.001,
    "one_based": False,
    "timing": False,
    "dump_sim": None,
    "dump_scores": None,
    "id_map": None,
    "dataset": None,
    "n": 200,
    "groups": 4,
    "p_in": 0.15,
    "p_out": 0.01,
    "attr_noise": 0.1,
    "out_edges": None,
    "out_attrs": None,
}

_BOOL_STRINGS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def _parse_bool(text: str) -> bool:
    try:
        return _BOOL_STRINGS[text.strip().lower()]
    except KeyError:
        raise ConfigError(f"expected a boolean, got {text!r}") from None


_CONVERTERS = {
    "c": float, "tol": float, "max_iter": int, "split": float, "reps": int,
    "seed": int, "top_k": int, "auc_samples": int, "lp_epsilon": float,
    "katz_beta": float, "one_based": _parse_bool, "timing": _parse_bool,
    "n": int, "groups": int, "p_in": float, "p_out": float, "attr_noise": float,
}

_COMMAND_KEYS = {
    "predict": ("edges", "attrs", "out", "method", "c", "tol", "max_iter", "init",
                "top_k", "dump_sim", "dump_scores", "id_map", "one_based",
                "lp_epsilon", "katz_beta"),
    "evaluate": ("edges", "attrs", "out", "method", "c", "tol", "max_iter", "init",
                 "split", "reps", "seed", "auc", "auc_samples", "timing", "dataset",
                 "id_map", "one_based", "lp_epsilon", "katz_beta"),
    "stats": ("edges", "attrs", "out", "id_map", "one_based"),
    "generate": ("n", "groups", "p_in", "p_out", "attr_noise", "seed",
                 "out_edges", "out_attrs"),
}


class _Parser(argparse.ArgumentParser):
    # bad usage is a configuration error (exit 1), not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="linkpred",
                     description="Link prediction on attributed graphs: similarity "
                                 "propagation, classical baselines, AUC evaluation.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    S = argparse.SUPPRESS

    def common(p):
        p.add_argument("--config", default=S, help="key=value config file (flags win)")
        p.add_argument("-v", "--verbose", action="count", default=S,
                       help="-v progress, -vv per-sweep detail")

    p = sub.add_parser("predict", help="rank non-edges of a graph by link score")
    p.add_argument("--edges", default=S, help="edge-list file")
    p.add_argument("--attrs", default=S, help="attribute file")
    p.add_argument("--method", default=S, help=f"one of: {', '.join(METHOD_NAMES)}")
    p.add_argument("--c", type=float, default=S, help="attenuation coefficient (default 0.8)")
    p.add_argument("--tol", type=float, default=S, help="convergence threshold (default 1e-6)")
    p.add_argument("--max-iter", type=int, default=S, help="sweep cap (default 100)")
    p.add_argument("--init", choices=("identity", "attrsim"), default=S)
    p.add_argument("--top-k", type=int, default=S, help="non-edges to emit (default 100)")
    p.add_argument("--lp-epsilon", type=float, default=S)
    p.add_argument("--katz-beta", type=float, default=S)
    p.add_argument("--dump-sim", default=S, help="write the similarity matrix as CSV")
    p.add_argument("--dump-scores", default=S, help="write the full score matrix as CSV")
    p.add_argument("--id-map", default=S, help="write original_id,dense_index CSV")
    p.add_argument("--one-based", action="store_true", default=S)
    p.add_argument("--out", default=S, help="output CSV (default stdout)")
    common(p)

    p = sub.add_parser("evaluate", help="repeated-split AUC comparison of methods")
    p.add_argument("--edges", default=S)
    p.add_argument("--attrs", default=S)
    p.add_argument("--method", default=S, help="comma-separated method list")
    p.add_argument("--c", type=float, default=S)
    p.add_argument("--tol", type=float, default=S)
    p.add_argument("--max-iter", type=int, default=S)
    p.add_argument("--init", choices=("identity", "attrsim"), default=S)
    p.add_argument("--split", type=float, default=S, help="probe fraction (default 0.1)")
    p.add_argument("--reps", type=int, default=S, help="repetitions (default 10)")
    p.add_argument("--seed", type=int, default=S, help=f"master seed (default {DEFAULT_SEED})")
    p.add_argument("--auc", choices=("sampled", "exact"), default=S)
    p.add_argument("--auc-samples", type=int, default=S)
    p.add_argument("--timing", action="store_true", default=S,
                   help="record measured wall-clock in the report (not reproducible)")
    p.add_argument("--dataset", default=S, help="dataset label (default: edges file stem)")
    p.add_argument("--id-map", default=S)
    p.add_argument("--one-based", action="store_true", default=S)
    p.add_argument("--out", default=S, help="report file (also printed to stdout)")
    common(p)

    p = sub.add_parser("stats", help="print the network-statistics row")
    p.add_argument("--edges", default=S)
    p.add_argument("--attrs", default=S)
    p.add_argument("--id-map", default=S)
    p.add_argument("--one-based", action="store_true", default=S)
    p.add_argument("--out", default=S)
    common(p)

    p = sub.add_parser("generate", help="write a synthetic attributed graph")
    p.add_argument("--n", type=int, default=S)
    p.add_argument("--groups", type=int, default=S)
    p.add_argument("--p-in", type=float, default=S)
    p.add_argument("--p-out", type=float, default=S)
    p.add_argument("--attr-noise", type=float, default=S)
    p.add_argument("--seed", type=int, default=S)
    p.add_argument("--out-edges", default=S)
    p.add_argument("--out-attrs", default=S)
    common(p)

    return parser


def _read_config_file(path) -> dict:
    if not os.path.isfile(path):
        raise ConfigError(f"config file not found: {path}")
    values = {}
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
            values[key.strip().replace("-", "_")] = value.strip()
    return values


def _resolve(args: argparse.Namespace, command: str) -> dict:
    keys = _COMMAND_KEYS[command]
    opts = {key: DEFAULTS[key] for key in keys}
    config_path = getattr(args, "config", None)
    if config_path:
        for key, raw in _read_config_file(config_path).items():
            if key not in DEFAULTS:
                raise ConfigError(f"unknown config key {key!r}")
            if key in keys:
                opts[key] = _CONVERTERS.get(key, str)(raw)
    for key in keys:
        if hasattr(args, key):
            opts[key] = getattr(args, key)
    return opts


def _require_file(path, flag: str):
    if not path:
        raise ConfigError(f"missing required option {flag}")
    if not os.path.isfile(path):
        raise ConfigError(f"{flag} file not found: {path}")
    return path


def _load_graph(opts: dict):
    indexing = "one" if opts.get("one_based") else "zero"
    graph = load_edge_list(_require_file(opts.get("edges"), "--edges"), indexing=indexing)
    if opts.get("attrs"):
        graph = load_attributes(_require_file(opts["attrs"], "--attrs"), graph,
                                indexing=indexing)
    if opts.get("id_map"):
        write_id_map(opts["id_map"], graph.n, indexing)
    return graph


def _experiment_config(opts: dict) -> ExperimentConfig:
    return ExperimentConfig(
        propagation=PropagationConfig(c=opts["c"], tolerance=opts["tol"],
                                      max_iterations=opts["max_iter"],
                                      init_mode=opts["init"]),
        baselines=BaselineConfig(lp_epsilon=opts["lp_epsilon"],
                                 katz_beta=opts["katz_beta"]),
        split_fraction=opts.get("split", DEFAULTS["split"]),
        master_seed=opts.get("seed", DEFAULT_SEED),
        auc_mode=opts.get("auc", DEFAULTS["auc"]),
        auc_samples=opts.get("auc_samples", DEFAULTS["auc_samples"]),
    )


def _method_list(raw: str) -> list:
    names = [token.strip() for token in raw.split(",") if token.strip()]
    if not names:
        raise ConfigError("empty method list")
    return names


def _write_text(path, text: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def _ranked_nonedges(graph, values: np.ndarray, k: int):
    # the k best non-edges by descending score, ties by (i, j)
    ii, jj = np.nonzero(nonedge_mask(graph.n, graph.edges))
    neg = -values[ii, jj]
    k = min(k, len(neg))
    if 0 < k < len(neg):
        # keep every pair scoring at or above the k-th best, so ties at the
        # cut are ordered by (i, j) like the rest; NaN sorts last in both
        # partition and lexsort, and compares false here, so it stays
        cut = np.partition(neg, k - 1)[k - 1]
        top = ~(neg > cut)
        ii, jj, neg = ii[top], jj[top], neg[top]
    order = np.lexsort((jj, ii, neg))[:k]
    return ii[order], jj[order], -neg[order]


def cmd_predict(opts: dict) -> int:
    if opts["top_k"] < 1:
        raise ConfigError(f"--top-k must be >= 1, got {opts['top_k']}")
    graph = _load_graph(opts)
    names = _method_list(opts["method"])
    if len(names) != 1:
        raise ConfigError("predict takes exactly one method; evaluate accepts a list")
    method = canonical_method(names[0])
    scores = score_method(method, graph, _experiment_config(opts))
    if opts.get("dump_sim"):
        sim = similarity_matrix(graph)
        np.savetxt(opts["dump_sim"], sim.values, delimiter=",", fmt="%.12g")
    if opts.get("dump_scores"):
        np.savetxt(opts["dump_scores"], scores.values, delimiter=",", fmt="%.12g")
    ii, jj, ss = _ranked_nonedges(graph, scores.values, opts["top_k"])
    lines = ["i,j,score"]
    lines.extend(f"{i},{j},{format(s, '.12g')}" for i, j, s in zip(ii, jj, ss))
    text = "\n".join(lines) + "\n"
    if opts.get("out"):
        _write_text(opts["out"], text)
    else:
        sys.stdout.write(text)
    if not scores.converged:
        logging.getLogger(__name__).warning(
            "solver hit the sweep cap before reaching tolerance (delta=%.3e)",
            scores.final_delta)
        return EXIT_NONCONVERGED
    return EXIT_OK


def cmd_evaluate(opts: dict) -> int:
    graph = _load_graph(opts)
    methods = _method_list(opts["method"])
    dataset = opts.get("dataset") or Path(opts["edges"]).stem
    report = run_experiment(graph, methods, _experiment_config(opts),
                            repetitions=opts["reps"], dataset=dataset)
    text = format_report(report, timing=opts.get("timing", False))
    sys.stdout.write(text)
    if opts.get("out"):
        _write_text(opts["out"], text)
    if not report.all_converged:
        logging.getLogger(__name__).warning(
            "one or more propagation solves hit the sweep cap; AUCs use the last iterate")
        return EXIT_NONCONVERGED
    return EXIT_OK


def cmd_stats(opts: dict) -> int:
    graph = _load_graph(opts)
    text = format_stats(stats_report(graph)) + "\n"
    sys.stdout.write(text)
    if opts.get("out"):
        _write_text(opts["out"], text)
    return EXIT_OK


def cmd_generate(opts: dict) -> int:
    if not opts.get("out_edges") or not opts.get("out_attrs"):
        raise ConfigError("generate requires --out-edges and --out-attrs")
    graph = generate_planted_attribute_graph(opts["n"], opts["groups"], opts["p_in"],
                                             opts["p_out"], opts["attr_noise"],
                                             opts["seed"])
    save_edge_list(graph, opts["out_edges"])
    save_attributes(graph, opts["out_attrs"])
    sys.stdout.write(f"generated n={graph.n} m={graph.m_edges} "
                     f"attrs={graph.attr_dim} seed={opts['seed']}\n")
    return EXIT_OK


_DISPATCH = {
    "predict": cmd_predict,
    "evaluate": cmd_evaluate,
    "stats": cmd_stats,
    "generate": cmd_generate,
}


def _setup_logging(verbosity: int) -> None:
    level = logging.WARNING
    if verbosity == 1:
        level = logging.INFO
    elif verbosity >= 2:
        level = logging.DEBUG
    logging.basicConfig(stream=sys.stderr, level=level,
                        format="%(levelname)s %(name)s: %(message)s")
    logging.getLogger("linkpred").setLevel(level)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    _setup_logging(getattr(args, "verbose", 0))
    try:
        opts = _resolve(args, args.command)
        return _DISPATCH[args.command](opts)
    except ConfigError as exc:
        print(f"linkpred: configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"linkpred: data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as exc:
        print(f"linkpred: data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"linkpred: i/o error: {exc}", file=sys.stderr)
        return EXIT_DATA


def run() -> None:
    raise SystemExit(main())
