from __future__ import annotations

import numpy as np
import pytest

from linkpred import (LOCAL_INDEX_KINDS, METHOD_NAMES, AttributedGraph, ConfigError,
                      EvaluationError, ExperimentConfig, ScoreMatrix, auc_exact,
                      auc_sampled, canonical_method,
                      format_report, generate_planted_attribute_graph, local_index,
                      run_experiment, split_probe)
from linkpred import evaluation
from linkpred.baselines import ALIASES
from _helpers import adjacency_sets, make_gnp
from _oracles import oracle_auc, oracle_auc_chunked, oracle_auc_sampled


def _score_matrix(n, fill=None, seed=None):
    if seed is not None:
        rng = np.random.default_rng(seed)
        values = rng.random((n, n))
        values = (values + values.T) / 2
    else:
        values = np.full((n, n), fill, dtype=float)
    np.fill_diagonal(values, 1.0)
    return ScoreMatrix(values=values)


def _nonedge_pairs(split):
    train = adjacency_sets(split.train_graph)
    probe = {tuple(sorted(e)) for e in split.probe_edges.tolist()}
    pairs = []
    for i in range(len(train)):
        for j in range(i + 1, len(train)):
            if j not in train[i] and (i, j) not in probe:
                pairs.append((i, j))
    return pairs


def _dense_nonedge_scores(split, values):
    # non-edges from a dense adjacency of train plus probe edges
    taken = split.train_graph.adjacency_matrix().toarray() > 0
    taken[split.probe_edges[:, 0], split.probe_edges[:, 1]] = True
    taken[split.probe_edges[:, 1], split.probe_edges[:, 0]] = True
    ii, jj = np.triu_indices(split.train_graph.n, 1)
    keep = ~taken[ii, jj]
    return values[ii[keep], jj[keep]]


def _planted_cn_split():
    g = generate_planted_attribute_graph(300, 4, 0.1, 0.005, 0.1, seed=21)
    split = split_probe(g, 0.1, seed=22)
    return split, local_index("cn", split.train_graph)


class TestSplitProbe:
    def test_fraction_counts(self):
        g = make_gnp(30, 0.2, 0)
        split = split_probe(g, 0.1, seed=1)
        assert len(split.probe_edges) == round(0.1 * g.m_edges)
        assert split.train_graph.m_edges + len(split.probe_edges) == g.m_edges

    def test_ten_edges_fraction_tenth(self):
        g = AttributedGraph.build(11, [(i, i + 1) for i in range(10)])
        split = split_probe(g, 0.1, seed=0)
        assert len(split.probe_edges) == 1

    def test_fraction_point_nine(self):
        g = AttributedGraph.build(11, [(i, i + 1) for i in range(10)])
        split = split_probe(g, 0.9, seed=0)
        assert len(split.probe_edges) == 9
        assert split.train_graph.m_edges == 1

    def test_same_seed_identical(self):
        g = make_gnp(25, 0.2, 3)
        a = split_probe(g, 0.2, seed=42)
        b = split_probe(g, 0.2, seed=42)
        assert np.array_equal(a.probe_edges, b.probe_edges)
        assert np.array_equal(a.train_graph.edges, b.train_graph.edges)

    def test_probe_and_train_partition_edges(self):
        g = make_gnp(25, 0.2, 4)
        split = split_probe(g, 0.25, seed=9)
        probe = {tuple(e) for e in split.probe_edges.tolist()}
        train = {tuple(e) for e in split.train_graph.edges.tolist()}
        assert not probe & train
        assert probe | train == {tuple(e) for e in g.edges.tolist()}

    def test_attributes_survive_split(self):
        g = make_gnp(15, 0.3, 5, attrs="random")
        split = split_probe(g, 0.2, seed=2)
        assert np.array_equal(split.train_graph.attributes, g.attributes)

    @pytest.mark.parametrize("fraction", [0.001, 0.999])
    def test_degenerate_fraction_rejected(self, fraction):
        g = AttributedGraph.build(11, [(i, i + 1) for i in range(10)])
        with pytest.raises(ConfigError):
            split_probe(g, fraction, seed=0)

    def test_edgeless_rejected(self):
        with pytest.raises(ConfigError):
            split_probe(AttributedGraph.build(3, []), 0.5, seed=0)


class TestAucExact:
    def test_perfect_separation(self):
        g = make_gnp(12, 0.3, 0)
        split = split_probe(g, 0.2, seed=1)
        values = np.zeros((g.n, g.n))
        for i, j in split.probe_edges.tolist():
            values[i, j] = values[j, i] = 1.0
        result = auc_exact(ScoreMatrix(values=values), split.probe_edges, split.train_graph)
        assert result.auc == 1.0

    def test_constant_scores_half(self):
        g = make_gnp(12, 0.3, 1)
        split = split_probe(g, 0.2, seed=2)
        result = auc_exact(_score_matrix(g.n, fill=0.4), split.probe_edges, split.train_graph)
        assert result.auc == 0.5
        assert result.n_equal == result.n_comparisons

    def test_tie_arithmetic(self):
        # 1 probe scored 0.5 vs 10 non-edges: 8 lower, 1 equal, 1 higher
        g = AttributedGraph.build(6, [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)])
        split = split_probe(g, 0.2, seed=0)
        assert len(split.probe_edges) == 1
        pairs = _nonedge_pairs(split)
        assert len(pairs) == 10
        values = np.zeros((6, 6))
        pi, pj = split.probe_edges[0]
        values[pi, pj] = values[pj, pi] = 0.5
        for idx, (i, j) in enumerate(pairs):
            score = 0.1 if idx < 8 else (0.5 if idx == 8 else 0.9)
            values[i, j] = values[j, i] = score
        result = auc_exact(ScoreMatrix(values=values), split.probe_edges, split.train_graph)
        assert result.n_higher == 8
        assert result.n_equal == 1
        assert result.auc == (8 + 0.5 * 1) / 10 == 0.85

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_double_loop_oracle(self, seed):
        g = make_gnp(14, 0.25, seed)
        split = split_probe(g, 0.2, seed=seed + 10)
        scores = _score_matrix(g.n, seed=seed)
        result = auc_exact(scores, split.probe_edges, split.train_graph)
        probe_scores = [scores.values[i, j] for i, j in split.probe_edges.tolist()]
        nonedge_scores = [scores.values[i, j] for i, j in _nonedge_pairs(split)]
        auc, higher, equal, total = oracle_auc(probe_scores, nonedge_scores)
        assert (result.auc, result.n_higher, result.n_equal, result.n_comparisons) == \
            (auc, higher, equal, total)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_swapping_roles_complements(self, seed):
        g = make_gnp(14, 0.25, seed)
        split = split_probe(g, 0.2, seed=seed)
        scores = _score_matrix(g.n, seed=seed + 5)
        forward = auc_exact(scores, split.probe_edges, split.train_graph)
        pairs = np.array(_nonedge_pairs(split))
        # rebuild the graph so the old probe edges are the only excluded pairs
        swapped_train = AttributedGraph.build(g.n, split.train_graph.edges)
        probe_as_nonedge = auc_exact(scores, pairs, swapped_train)
        assert probe_as_nonedge.auc == pytest.approx(1.0 - forward.auc, abs=1e-12)

    def test_monotone_transform_invariance(self):
        g = make_gnp(14, 0.25, 2)
        split = split_probe(g, 0.2, seed=3)
        scores = _score_matrix(g.n, seed=6)
        base = auc_exact(scores, split.probe_edges, split.train_graph)
        transformed = ScoreMatrix(values=np.exp(3.0 * scores.values))
        again = auc_exact(transformed, split.probe_edges, split.train_graph)
        assert again.auc == base.auc

    def test_empty_probe_rejected(self):
        g = make_gnp(10, 0.3, 0)
        with pytest.raises(EvaluationError, match="probe"):
            auc_exact(_score_matrix(10, fill=0.5), np.empty((0, 2), dtype=np.int64), g)

    def test_no_nonedges_rejected(self):
        n = 5
        complete = AttributedGraph.build(n, [(i, j) for i in range(n) for j in range(i + 1, n)])
        split = split_probe(complete, 0.2, seed=0)
        with pytest.raises(EvaluationError, match="non-edges"):
            auc_exact(_score_matrix(n, fill=0.5), split.probe_edges, split.train_graph)

    def test_large_instance_matches_chunked_oracle(self):
        # about 200 probe edges x 5e5 non-edges, far past the 10^7 pairs
        # that pairwise enumeration could afford; rounding makes many ties
        g = make_gnp(1000, 0.004, 13)
        split = split_probe(g, 0.1, seed=14)
        values = np.round(_score_matrix(g.n, seed=15).values, 2)
        result = auc_exact(ScoreMatrix(values=values), split.probe_edges, split.train_graph)
        assert result.n_comparisons > 10_000_000
        probe_scores = values[split.probe_edges[:, 0], split.probe_edges[:, 1]]
        expected = oracle_auc_chunked(probe_scores, _dense_nonedge_scores(split, values))
        assert (result.auc, result.n_higher, result.n_equal, result.n_comparisons) == expected

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    @pytest.mark.parametrize("seed", range(6))
    def test_near_ties_and_nan_match_oracle(self, seed):
        # differences within a few ulp of +-1e-12, where ranking at p -+ tol
        # and the pairwise predicate can disagree, plus NaN and infinities
        rng = np.random.default_rng(seed)
        g = make_gnp(24, 0.2, seed)
        split = split_probe(g, 0.2, seed=seed + 20)
        scale = [1.0, 1e-3, 1e3][seed % 3]
        values = rng.choice([0.0, 0.25, 0.5, 1.0], size=(g.n, g.n)) * scale
        values += rng.choice([0.0, 1e-12, -1e-12, 5e-13, -5e-13, 2e-12, -2e-12],
                             size=values.shape)
        values += rng.integers(-2, 3, size=values.shape) * np.spacing(values)
        values[rng.random(values.shape) < 0.03] = np.nan
        values[rng.random(values.shape) < 0.01] = np.inf
        values[rng.random(values.shape) < 0.01] = -np.inf
        values = np.triu(values, 1)
        values = values + values.T
        result = auc_exact(ScoreMatrix(values=values), split.probe_edges, split.train_graph)
        probe_scores = [values[i, j] for i, j in split.probe_edges.tolist()]
        nonedge_scores = [values[i, j] for i, j in _nonedge_pairs(split)]
        _, higher, equal, total = oracle_auc(probe_scores, nonedge_scores)
        assert (result.n_higher, result.n_equal, result.n_comparisons) == (higher, equal, total)

    def test_counts_pinned(self):
        split, scores = _planted_cn_split()
        result = auc_exact(scores, split.probe_edges, split.train_graph)
        assert (result.n_higher, result.n_equal, result.n_comparisons) == \
            (1962970, 3000979, 5492718)


class TestAucSampled:
    def test_perfect_separation(self):
        g = make_gnp(12, 0.3, 3)
        split = split_probe(g, 0.2, seed=4)
        values = np.zeros((g.n, g.n))
        for i, j in split.probe_edges.tolist():
            values[i, j] = values[j, i] = 1.0
        result = auc_sampled(ScoreMatrix(values=values), split.probe_edges,
                             split.train_graph, n=5000, seed=0)
        assert result.auc == 1.0

    def test_constant_scores_half(self):
        g = make_gnp(12, 0.3, 4)
        split = split_probe(g, 0.2, seed=5)
        result = auc_sampled(_score_matrix(g.n, fill=0.3), split.probe_edges,
                             split.train_graph, n=2000, seed=1)
        assert result.auc == 0.5
        assert result.n_equal == 2000

    def test_deterministic_per_seed(self):
        g = make_gnp(15, 0.25, 5)
        split = split_probe(g, 0.2, seed=6)
        scores = _score_matrix(g.n, seed=7)
        a = auc_sampled(scores, split.probe_edges, split.train_graph, n=10_000, seed=3)
        b = auc_sampled(scores, split.probe_edges, split.train_graph, n=10_000, seed=3)
        assert (a.n_higher, a.n_equal) == (b.n_higher, b.n_equal)

    def test_counts_pinned(self):
        split, scores = _planted_cn_split()
        result = auc_sampled(scores, split.probe_edges, split.train_graph, n=200_000, seed=23)
        assert (result.n_higher, result.n_equal) == (71525, 109159)

    @pytest.mark.parametrize("n", [1, 17, 200_000])
    @pytest.mark.parametrize("graph,seed", [
        pytest.param((60, 0.1, 3), 0, id="sparse-0"),
        pytest.param((60, 0.1, 3), 1, id="sparse-1"),
        pytest.param((150, 0.02, 4), 2, id="isolated-nodes"),
        # 8 non-edges among 190 pairs: the rejection loop takes several batches
        pytest.param((20, 0.95, 5), 3, id="dense"),
    ])
    def test_draws_match_oracle(self, graph, seed, n):
        g = make_gnp(*graph)
        split = split_probe(g, 0.2, seed=seed + 30)
        scores = _score_matrix(g.n, seed=seed + 40)
        scores.values[:] = np.round(scores.values, 2)  # ties as well as strict wins
        result = auc_sampled(scores, split.probe_edges, split.train_graph, n=n, seed=seed)
        expected = oracle_auc_sampled(scores.values, split.probe_edges,
                                      (split.train_graph.edges, split.probe_edges), n, seed)
        assert (result.auc, result.n_comparisons, result.n_higher, result.n_equal) == expected
        assert result.mode == "sampled"

    @pytest.mark.parametrize("auc", [auc_exact, auc_sampled], ids=["exact", "sampled"])
    def test_scores_of_another_size_rejected(self, auc):
        # sampled pairs index the scores as i * n + j, so n must be the graph's
        g = make_gnp(12, 0.3, 0)
        split = split_probe(g, 0.2, seed=1)
        args = (10, 0) if auc is auc_sampled else ()
        with pytest.raises(EvaluationError, match=r"scores are \(13, 13\), train graph has 12"):
            auc(_score_matrix(13, fill=0.5), split.probe_edges, split.train_graph, *args)

    def test_close_to_exact(self):
        g = make_gnp(20, 0.25, 6)
        split = split_probe(g, 0.2, seed=7)
        scores = _score_matrix(g.n, seed=8)
        exact = auc_exact(scores, split.probe_edges, split.train_graph)
        sampled = auc_sampled(scores, split.probe_edges, split.train_graph,
                              n=100_000, seed=9)
        assert abs(sampled.auc - exact.auc) < 0.02


class TestRunExperiment:
    def test_shape_contract(self):
        g = make_gnp(20, 0.25, 0)
        report = run_experiment(g, ["cn"], ExperimentConfig(master_seed=7),
                                repetitions=1, dataset="toy")
        assert len(report.results) == 1
        assert report.results[0].method == "cn"
        assert len(report.results[0].aucs) == 1
        assert report.dataset == "toy"

    def test_distinct_rep_seeds_and_reproducibility(self):
        g = make_gnp(25, 0.25, 1)
        cfg = ExperimentConfig(master_seed=99)
        a = run_experiment(g, ["cn", "pa"], cfg, repetitions=5)
        b = run_experiment(g, ["cn", "pa"], cfg, repetitions=5)
        assert len(set(a.seeds)) == 5
        assert a.seeds == b.seeds
        for ra, rb in zip(a.results, b.results):
            assert ra.aucs == rb.aucs

    def test_randwalk_beats_cn_on_planted_graph(self):
        g = generate_planted_attribute_graph(80, 4, 0.3, 0.02, 0.05, seed=11)
        report = run_experiment(g, ["randwalk", "cn"], ExperimentConfig(master_seed=5),
                                repetitions=3, dataset="planted")
        by_name = {r.method: r for r in report.results}
        assert by_name["randwalk"].auc_mean >= by_name["cn"].auc_mean - 0.01

    def test_unknown_method_lists_valid_names(self):
        g = make_gnp(10, 0.3, 2)
        with pytest.raises(ConfigError, match="randwalk.*katz"):
            run_experiment(g, ["pagerank"], ExperimentConfig(), repetitions=1)

    def test_randwalk_needs_attributes(self):
        g = make_gnp(10, 0.3, 3)
        with pytest.raises(ConfigError, match="attributes"):
            run_experiment(g, ["randwalk"], ExperimentConfig(), repetitions=1)

    def test_empty_method_list(self):
        g = make_gnp(10, 0.3, 4)
        with pytest.raises(ConfigError, match="at least one"):
            run_experiment(g, [], ExperimentConfig(), repetitions=1)

    def test_aliases(self):
        assert canonical_method("Kaze") == "katz"
        assert canonical_method("LHN-I") == "lhn-i"
        assert canonical_method("RandWalk") == "randwalk"
        for alias, name in ALIASES.items():
            assert name in METHOD_NAMES
            for spelling in (alias, alias.upper(), f" {alias} "):
                assert canonical_method(spelling) == canonical_method(name) == name

    def test_method_names_pinned(self):
        # order fixes the report rows and the benchmark references
        assert METHOD_NAMES == ("randwalk", "cn", "salton", "jaccard", "sorensen", "hpi",
                                "hdi", "lhn-i", "pa", "lp", "katz")

    @pytest.mark.parametrize("scorer,methods", [
        ("randwalk_solve", ["randwalk"]),
        ("local_index", list(LOCAL_INDEX_KINDS)),
        ("lp_index", ["lp"]),
        ("katz_index", ["katz", "kaze"]),
    ])
    def test_score_method_calls_module_attribute(self, monkeypatch, scorer, methods):
        # wrappers installed on linkpred.evaluation (the benchmark tracer does
        # this) must see every call
        calls = []
        sentinel = ScoreMatrix(values=np.zeros((1, 1)))
        monkeypatch.setattr(evaluation, scorer, lambda *args: calls.append(args) or sentinel)
        g = make_gnp(10, 0.3, 1, attrs="random")
        for method in methods:
            assert evaluation.score_method(method, g, ExperimentConfig()) is sentinel
        assert len(calls) == len(methods)

    @pytest.mark.parametrize("label", ["a,b\nx", "a,b", 'say "a"', "a\rb"])
    def test_dataset_label_that_breaks_csv_fails_before_the_first_split(self, monkeypatch,
                                                                        label):
        # format_report writes the label unquoted into every CSV record
        monkeypatch.setattr(evaluation, "split_probe", lambda *args: pytest.fail("split"))
        g = make_gnp(10, 0.3, 6)
        with pytest.raises(ConfigError, match="dataset label"):
            run_experiment(g, ["cn"], ExperimentConfig(), repetitions=1, dataset=label)

    @pytest.mark.parametrize("kwargs", [
        {"split_fraction": 0.0}, {"split_fraction": 1.0},
        {"auc_mode": "approximate"}, {"auc_samples": 0}, {"master_seed": -1},
    ])
    def test_experiment_config_validation(self, kwargs):
        with pytest.raises(ConfigError):
            ExperimentConfig(**kwargs)


class TestFormatReport:
    def test_records_have_exact_fields(self):
        g = make_gnp(20, 0.25, 5)
        report = run_experiment(g, ["cn"], ExperimentConfig(master_seed=3),
                                repetitions=2, dataset="toy")
        text = format_report(report)
        lines = [l for l in text.splitlines() if not l.startswith("#")]
        assert lines[0] == "dataset,method,auc_mean,auc_std,seconds"
        fields = lines[1].split(",")
        assert fields[0] == "toy"
        assert fields[1] == "cn"
        assert fields[4] == "0.000"

    def test_timing_flag_exposes_measured_seconds(self):
        g = make_gnp(20, 0.25, 6)
        report = run_experiment(g, ["cn"], ExperimentConfig(master_seed=3),
                                repetitions=2, dataset="toy")
        assert report.results[0].seconds > 0.0
        timed = format_report(report, timing=True)
        last = timed.splitlines()[-1]
        assert float(last.split(",")[4]) == pytest.approx(report.results[0].seconds, abs=5e-4)
