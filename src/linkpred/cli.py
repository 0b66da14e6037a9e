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
from .errors import ConfigError
from .evaluation import (METHOD_NAMES, ExperimentConfig, _check_dataset_label,
                         canonical_method, format_report, run_experiment, score_method)
from .graph import (_read_lines, load_attributes, load_edge_list, nonedge_mask,
                    save_attributes, save_edge_list, write_id_map)
from .netstats import format_stats, generate_planted_attribute_graph, stats_report
from .propagation import INIT_MODES, PropagationConfig, similarity_matrix

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DATA = 2
EXIT_NONCONVERGED = 3

_BOOL_STRINGS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def _parse_bool(text: str) -> bool:
    try:
        return _BOOL_STRINGS[text.strip().lower()]
    except KeyError:
        raise ConfigError(f"expected a boolean, got {text!r}") from None


# Every option once: name -> (default, type, help). The type converts both the
# flag and the --config value; a _parse_bool option is a store_true flag.
OPTIONS = {
    "edges": (None, str, "edge-list file"),
    "attrs": (None, str, "attribute file"),
    "out": (None, str, "output file (predict: CSV, stdout if unset; "
                       "evaluate and stats also print to stdout)"),
    "method": ("randwalk", str, f"one of: {', '.join(METHOD_NAMES)}; "
                                "evaluate takes a comma-separated list"),
    "c": (0.8, float, "attenuation coefficient"),
    "tol": (1e-6, float, "convergence threshold"),
    "max_iter": (100, int, "sweep cap"),
    "init": ("attrsim", str, f"score initialisation, one of: {', '.join(INIT_MODES)}"),
    "split": (0.1, float, "probe fraction"),
    "reps": (10, int, "repetitions"),
    "seed": (12345, int, "master seed"),
    "top_k": (100, int, "non-edges to emit"),
    "auc": ("exact", str, "AUC mode, exact or sampled"),
    "auc_samples": (200_000, int, "comparisons per sampled AUC"),
    "lp_epsilon": (0.001, float, "weight of 3-hop paths in lp"),
    "katz_beta": (0.001, float, "path damping in katz"),
    "one_based": (False, _parse_bool, "input node ids start at 1"),
    "timing": (False, _parse_bool, "record measured wall-clock in the report (not reproducible)"),
    "dump_sim": (None, str, "write the similarity matrix as CSV"),
    "dump_scores": (None, str, "write the full score matrix as CSV"),
    "id_map": (None, str, "write original_id,dense_index CSV"),
    "dataset": (None, str, "dataset label (edges file stem if unset)"),
    "n": (200, int, "node count"),
    "groups": (4, int, "planted groups, one attribute each"),
    "p_in": (0.15, float, "edge probability inside a group"),
    "p_out": (0.01, float, "edge probability across groups"),
    "attr_noise": (0.1, float, "attribute mass spread off the group's coordinate"),
    "out_edges": (None, str, "edge-list file to write"),
    "out_attrs": (None, str, "attribute file to write"),
}

DEFAULTS = {key: default for key, (default, _, _) in OPTIONS.items()}


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
    for command, (_, summary, keys) in _COMMANDS.items():
        p = sub.add_parser(command, help=summary)
        for key in keys:
            default, kind, text = OPTIONS[key]
            flag = "--" + key.replace("_", "-")
            if kind is _parse_bool:
                p.add_argument(flag, action="store_true", default=S, help=text)
            else:
                if default is not None:
                    text += f" (default {default})"
                p.add_argument(flag, type=kind, default=S, help=text)
        p.add_argument("--config", default=S, help="key=value config file (flags win)")
        p.add_argument("-v", "--verbose", action="count", default=S,
                       help="-v progress, -vv per-sweep detail")
    return parser


def _read_config_file(path) -> dict:
    values = {}
    for lineno, line in _read_lines(_require_file(path, "config"), ConfigError):
        if line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        values[key.strip().replace("-", "_")] = value.strip()
    return values


def _resolve(args: argparse.Namespace, command: str) -> dict:
    keys = _COMMANDS[command][2]
    opts = dict(DEFAULTS)
    config_path = getattr(args, "config", None)
    if config_path:
        for key, raw in _read_config_file(config_path).items():
            if key not in OPTIONS:
                raise ConfigError(f"unknown config key {key!r}")
            if key in keys:
                try:
                    opts[key] = OPTIONS[key][1](raw)
                except ValueError as exc:
                    raise ConfigError(f"{config_path}: bad value for {key}: {exc}") from None
    opts.update((key, getattr(args, key)) for key in keys if hasattr(args, key))
    return opts


def _require_file(path, flag: str):
    if not path:
        raise ConfigError(f"missing required option {flag}")
    if not os.path.isfile(path):
        raise ConfigError(f"{flag} file not found: {path}")
    return path


def _indexing(opts: dict) -> str:
    return "one" if opts.get("one_based") else "zero"


def _load_graph(opts: dict):
    indexing = _indexing(opts)
    graph = load_edge_list(_require_file(opts.get("edges"), "--edges"), indexing=indexing)
    if opts.get("attrs"):
        graph = load_attributes(_require_file(opts["attrs"], "--attrs"), graph,
                                indexing=indexing)
    return graph


def _write_id_map(opts: dict, graph) -> None:
    # written with a command's other outputs, so a failing command writes none
    if opts.get("id_map"):
        write_id_map(opts["id_map"], graph.n, _indexing(opts))


def _experiment_config(opts: dict) -> ExperimentConfig:
    return ExperimentConfig(
        propagation=PropagationConfig(c=opts["c"], tolerance=opts["tol"],
                                      max_iterations=opts["max_iter"],
                                      init_mode=opts["init"]),
        baselines=BaselineConfig(lp_epsilon=opts["lp_epsilon"],
                                 katz_beta=opts["katz_beta"]),
        split_fraction=opts["split"],
        master_seed=opts["seed"],
        auc_mode=opts["auc"],
        auc_samples=opts["auc_samples"],
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
    names = _method_list(opts["method"])
    if len(names) != 1:
        raise ConfigError("predict takes exactly one method; evaluate accepts a list")
    method = canonical_method(names[0])
    cfg = _experiment_config(opts)
    graph = _load_graph(opts)
    if opts.get("dump_sim") and graph.attr_dim == 0:
        raise ConfigError("--dump-sim: graph has no attributes loaded")
    scores = score_method(method, graph, cfg)
    _write_id_map(opts, graph)
    if opts.get("dump_sim"):
        np.savetxt(opts["dump_sim"], similarity_matrix(graph), delimiter=",", fmt="%.12g")
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
    if opts["reps"] < 1:
        raise ConfigError(f"--reps must be >= 1, got {opts['reps']}")
    methods = [canonical_method(name) for name in _method_list(opts["method"])]
    cfg = _experiment_config(opts)
    dataset = opts["dataset"] or Path(_require_file(opts.get("edges"), "--edges")).stem
    _check_dataset_label(dataset)
    graph = _load_graph(opts)
    report = run_experiment(graph, methods, cfg, repetitions=opts["reps"], dataset=dataset)
    _write_id_map(opts, graph)
    text = format_report(report, timing=opts["timing"])
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
    _write_id_map(opts, graph)
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


# command -> (handler, help, option keys in help order)
_COMMANDS = {
    "predict": (cmd_predict, "rank non-edges of a graph by link score",
                ("edges", "attrs", "out", "method", "c", "tol", "max_iter", "init",
                 "top_k", "dump_sim", "dump_scores", "id_map", "one_based",
                 "lp_epsilon", "katz_beta")),
    "evaluate": (cmd_evaluate, "repeated-split AUC comparison of methods",
                 ("edges", "attrs", "out", "method", "c", "tol", "max_iter", "init",
                  "split", "reps", "seed", "auc", "auc_samples", "timing", "dataset",
                  "id_map", "one_based", "lp_epsilon", "katz_beta")),
    "stats": (cmd_stats, "print the network-statistics row",
              ("edges", "attrs", "out", "id_map", "one_based")),
    "generate": (cmd_generate, "write a synthetic attributed graph",
                 ("n", "groups", "p_in", "p_out", "attr_noise", "seed",
                  "out_edges", "out_attrs")),
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
        return _COMMANDS[args.command][0](opts)
    except ConfigError as exc:
        print(f"linkpred: configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ValueError as exc:  # DataError and its subclasses included
        print(f"linkpred: data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"linkpred: i/o error: {exc}", file=sys.stderr)
        return EXIT_DATA


def run() -> None:
    raise SystemExit(main())
