"""The public API is pinned: adding or removing a name needs an edit here."""

from __future__ import annotations

import contextlib
import io
import re
from pathlib import Path

import numpy as np
import scipy.sparse as sp

import linkpred

PUBLIC_NAMES = (
    "AttributedGraph", "AucResult", "BaselineConfig", "ConfigError", "DataError",
    "EvalReport", "EvaluationError", "ExperimentConfig",
    "LOCAL_INDEX_KINDS", "LinkpredError", "METHOD_NAMES", "MethodResult", "NetStatsRow",
    "ParseError", "ProbeSplit", "PropagationConfig", "ScoreMatrix",
    "TIE_TOLERANCE", "assortativity", "auc_exact", "auc_sampled",
    "avg_degree", "canonical_method", "clustering_coefficient", "components",
    "efficiency", "format_report", "format_stats", "generate_planted_attribute_graph",
    "katz_index", "load_attributes", "load_edge_list", "local_index", "lp_index",
    "matrix_form_step", "randwalk_solve", "run_experiment",
    "save_attributes", "save_edge_list", "score_method", "similarity_matrix",
    "split_probe", "stats_report", "transmission_weights",
)


def test_all_is_pinned():
    assert PUBLIC_NAMES == tuple(sorted(PUBLIC_NAMES))
    assert tuple(linkpred.__all__) == PUBLIC_NAMES


def test_every_public_name_resolves():
    for name in linkpred.__all__:
        assert getattr(linkpred, name) is not None, name


def test_readme_library_example_runs():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = text[text.index("## Library"):]
    code = re.search(r"```python\n(.*?)```", section, flags=re.DOTALL).group(1)
    namespace = {}
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(compile(code, "README.md", "exec"), namespace)
    assert printed.getvalue().splitlines()[-1] == "True"
    assert type(namespace["sim"]) is np.ndarray
    assert isinstance(namespace["edge_prob"], sp.csr_matrix)
    assert type(namespace["swept"]) is np.ndarray
