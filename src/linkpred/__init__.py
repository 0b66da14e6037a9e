"""Link prediction on attributed graphs.

Similarity propagation weighted by node-attribute affinity, ten
topological baseline indices, an AUC evaluation harness with probe
splitting, and network statistics. See the CLI (``python -m linkpred``)
for batch usage.
"""

from .baselines import LOCAL_INDEX_KINDS, BaselineConfig, katz_index, local_index, lp_index
from .errors import ConfigError, DataError, EvaluationError, LinkpredError, ParseError
from .evaluation import (METHOD_NAMES, TIE_TOLERANCE, AucResult, EvalReport,
                         ExperimentConfig, MethodResult, ProbeSplit, auc_exact,
                         auc_sampled, canonical_method, format_report, run_experiment,
                         score_method, split_probe)
from .graph import (AttributedGraph, load_attributes, load_edge_list, save_attributes,
                    save_edge_list)
from .netstats import (NetStatsRow, assortativity, avg_degree, clustering_coefficient,
                       components, efficiency, format_stats,
                       generate_planted_attribute_graph, stats_report)
from .propagation import (PropagationConfig, ScoreMatrix, matrix_form_step, randwalk_solve,
                          similarity_matrix, transmission_weights)

__version__ = "0.1.0"

__all__ = [
    "AttributedGraph", "AucResult", "BaselineConfig", "ConfigError", "DataError",
    "EvalReport", "EvaluationError", "ExperimentConfig", "LOCAL_INDEX_KINDS",
    "LinkpredError", "METHOD_NAMES", "MethodResult", "NetStatsRow", "ParseError",
    "ProbeSplit", "PropagationConfig", "ScoreMatrix", "TIE_TOLERANCE", "assortativity",
    "auc_exact", "auc_sampled", "avg_degree", "canonical_method", "clustering_coefficient",
    "components", "efficiency", "format_report", "format_stats",
    "generate_planted_attribute_graph", "katz_index", "load_attributes", "load_edge_list",
    "local_index", "lp_index", "matrix_form_step", "randwalk_solve", "run_experiment",
    "save_attributes", "save_edge_list", "score_method", "similarity_matrix",
    "split_probe", "stats_report", "transmission_weights",
]
