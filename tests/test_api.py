"""The public API is pinned: adding or removing a name needs an edit here."""

from __future__ import annotations

import linkpred

PUBLIC_NAMES = (
    "AttributedGraph", "AucResult", "BaselineConfig", "ConfigError", "DataError",
    "EvalReport", "EvaluationError", "ExperimentConfig", "INIT_MODES",
    "LOCAL_INDEX_KINDS", "LinkpredError", "METHOD_NAMES", "MethodResult", "NetStatsRow",
    "ParseError", "ProbeSplit", "PropagationConfig", "ScoreMatrix", "SimilarityMatrix",
    "TIE_TOLERANCE", "TransmissionWeights", "assortativity", "auc_exact", "auc_sampled",
    "avg_degree", "canonical_method", "clustering_coefficient", "components",
    "efficiency", "format_report", "format_stats", "generate_planted_attribute_graph",
    "katz_index", "load_attributes", "load_edge_list", "local_index", "lp_index",
    "matrix_form_step", "randwalk_init", "randwalk_solve", "run_experiment",
    "save_attributes", "save_edge_list", "score_method", "similarity_matrix",
    "simrank_classic", "split_probe", "stats_report", "transmission_weights",
    "write_id_map",
)


def test_all_is_pinned():
    assert PUBLIC_NAMES == tuple(sorted(PUBLIC_NAMES))
    assert tuple(linkpred.__all__) == PUBLIC_NAMES


def test_every_public_name_resolves():
    for name in linkpred.__all__:
        assert getattr(linkpred, name) is not None, name
