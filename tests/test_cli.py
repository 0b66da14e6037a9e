from __future__ import annotations

import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from linkpred import (METHOD_NAMES, ExperimentConfig, cli, load_attributes, load_edge_list,
                      save_attributes, save_edge_list)
from linkpred.baselines import ALIASES
from linkpred.cli import main
from _helpers import graph_from_edges, make_gnp
from _oracles import oracle_ranked_nonedges


@pytest.fixture()
def triangle_minus_edge(tmp_path):
    # nodes 0,1,2 with edges (0,1),(1,2): the missing edge (0,2) closes a triangle
    edges = tmp_path / "edges.txt"
    edges.write_text("0 1\n1 2\n")
    attrs = tmp_path / "attrs.txt"
    attrs.write_text("#dense 2\n0 1 1\n1 1 1\n2 1 1\n")
    return edges, attrs


@pytest.fixture()
def planted_files(tmp_path):
    out_edges = tmp_path / "gen_edges.txt"
    out_attrs = tmp_path / "gen_attrs.txt"
    rc = main(["generate", "--n", "60", "--groups", "3", "--p-in", "0.3",
               "--p-out", "0.02", "--attr-noise", "0.1", "--seed", "5",
               "--out-edges", str(out_edges), "--out-attrs", str(out_attrs)])
    assert rc == 0
    return out_edges, out_attrs


class TestPredict:
    def test_missing_triangle_edge_ranks_first(self, triangle_minus_edge, tmp_path):
        edges, _ = triangle_minus_edge
        out = tmp_path / "pred.csv"
        rc = main(["predict", "--edges", str(edges), "--method", "cn",
                   "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "i,j,score"
        assert lines[1].startswith("0,2,")

    def test_randwalk_planted_top_k_within_groups(self, tmp_path):
        out_edges = tmp_path / "e.txt"
        out_attrs = tmp_path / "a.txt"
        assert main(["generate", "--n", "45", "--groups", "3", "--p-in", "0.4",
                     "--p-out", "0.0001", "--attr-noise", "0", "--seed", "3",
                     "--out-edges", str(out_edges), "--out-attrs", str(out_attrs)]) == 0
        graph = load_attributes(out_attrs, load_edge_list(out_edges))
        # regenerate with p_out=0 semantics: drop any cross edges for the check
        group = np.argmax(graph.attributes, axis=1)
        out = tmp_path / "pred.csv"
        rc = main(["predict", "--edges", str(out_edges), "--attrs", str(out_attrs),
                   "--method", "randwalk", "--top-k", "20", "--out", str(out)])
        assert rc == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        scored = [(int(i), int(j), float(s)) for i, j, s in rows]
        positive = [(i, j) for i, j, s in scored if s > 0]
        assert positive, "expected some nonzero predictions"
        for i, j in positive:
            assert group[i] == group[j]

    def test_top_k_larger_than_pool(self, triangle_minus_edge, tmp_path):
        edges, _ = triangle_minus_edge
        out = tmp_path / "pred.csv"
        rc = main(["predict", "--edges", str(edges), "--method", "cn",
                   "--top-k", "999", "--out", str(out)])
        assert rc == 0
        assert len(out.read_text().splitlines()) == 2  # header + single non-edge

    @pytest.mark.parametrize("k", ["0", "-4"])
    def test_top_k_below_one_is_config_error(self, triangle_minus_edge, tmp_path, k):
        edges, _ = triangle_minus_edge
        out = tmp_path / "pred.csv"
        rc = main(["predict", "--edges", str(edges), "--method", "cn",
                   "--top-k", k, "--out", str(out)])
        assert rc == 1
        assert not out.exists()

    def test_non_finite_attribute_is_data_error(self, triangle_minus_edge, tmp_path):
        edges, _ = triangle_minus_edge
        attrs = tmp_path / "nan_attrs.txt"
        attrs.write_text("#dense 2\n0 1 1\n1 nan 1\n2 1 1\n")
        assert main(["predict", "--edges", str(edges), "--attrs", str(attrs)]) == 2

    def test_randwalk_without_attrs_is_config_error(self, triangle_minus_edge):
        edges, _ = triangle_minus_edge
        assert main(["predict", "--edges", str(edges), "--method", "randwalk"]) == 1

    def test_unknown_method_lists_names(self, triangle_minus_edge, capsys):
        edges, _ = triangle_minus_edge
        assert main(["predict", "--edges", str(edges), "--method", "nope"]) == 1
        err = capsys.readouterr().err
        assert "randwalk" in err and "katz" in err

    def test_multiple_methods_rejected(self, triangle_minus_edge):
        edges, _ = triangle_minus_edge
        assert main(["predict", "--edges", str(edges), "--method", "cn,pa"]) == 1

    def test_missing_edges_file(self, tmp_path):
        assert main(["predict", "--edges", str(tmp_path / "nope.txt"),
                     "--method", "cn"]) == 1

    def test_parse_error_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("0 1\nbroken\n")
        assert main(["predict", "--edges", str(bad), "--method", "cn"]) == 2

    def test_underscore_id_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("0 1\n1_0 2\n")
        assert main(["predict", "--edges", str(bad), "--method", "cn"]) == 2
        assert "bad.txt:2:" in capsys.readouterr().err

    def test_nonconvergence_exit_code_still_writes(self, planted_files, tmp_path):
        edges, attrs = planted_files
        out = tmp_path / "pred.csv"
        rc = main(["predict", "--edges", str(edges), "--attrs", str(attrs),
                   "--method", "randwalk", "--tol", "1e-14", "--max-iter", "2",
                   "--out", str(out)])
        assert rc == 3
        assert out.exists()

    def test_dump_files(self, triangle_minus_edge, tmp_path):
        edges, attrs = triangle_minus_edge
        sim_path = tmp_path / "sim.csv"
        score_path = tmp_path / "scores.csv"
        rc = main(["predict", "--edges", str(edges), "--attrs", str(attrs),
                   "--method", "randwalk", "--dump-sim", str(sim_path),
                   "--dump-scores", str(score_path), "--out", str(tmp_path / "p.csv")])
        assert rc == 0
        sim = np.loadtxt(sim_path, delimiter=",")
        assert sim.shape == (3, 3)
        assert np.allclose(sim, 1.0)
        scores = np.loadtxt(score_path, delimiter=",")
        assert scores.shape == (3, 3)
        assert (np.diag(scores) == 1.0).all()

    @pytest.mark.parametrize("k", [1, 7, 40, 300, 420, 434, 435, 500])
    def test_ranking_by_flat_index_matches_pair_ranking(self, k):
        # 5 score levels over 435 non-edges: every cut falls inside a tie;
        # 15 to 22 NaN scores rank last, and k >= 434 reaches them
        g = make_gnp(30, 0.0, 0)
        rng = np.random.default_rng(k)
        values = rng.integers(0, 5, size=(30, 30)) / 4.0
        values[np.unravel_index(rng.choice(900, 40, replace=False), values.shape)] = np.nan
        assert np.isnan(values[np.triu_indices(30, 1)]).sum() >= 15
        got = cli._ranked_nonedges(g, values, k)
        expected = oracle_ranked_nonedges(g, values, k)
        for a, b in zip(got, expected):
            assert a.dtype == b.dtype
            assert np.array_equal(a, b, equal_nan=True)


class TestEvaluate:
    def test_report_written_and_deterministic(self, planted_files, tmp_path):
        edges, attrs = planted_files
        out_a = tmp_path / "report_a.txt"
        out_b = tmp_path / "report_b.txt"
        args = ["evaluate", "--edges", str(edges), "--attrs", str(attrs),
                "--method", "randwalk,cn", "--reps", "3", "--seed", "77"]
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_report_contains_all_methods(self, planted_files, tmp_path):
        edges, attrs = planted_files
        out = tmp_path / "report.txt"
        rc = main(["evaluate", "--edges", str(edges), "--attrs", str(attrs),
                   "--method", "cn,pa,lp", "--reps", "2", "--out", str(out)])
        assert rc == 0
        body = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        methods = [line.split(",")[1] for line in body[1:]]
        assert methods == ["cn", "pa", "lp"]

    def test_full_eleven_method_roster(self, planted_files, tmp_path):
        edges, attrs = planted_files
        out = tmp_path / "report.txt"
        roster = "randwalk,cn,salton,jaccard,sorensen,hpi,hdi,lhn-i,pa,lp,katz"
        rc = main(["evaluate", "--edges", str(edges), "--attrs", str(attrs),
                   "--method", roster, "--reps", "2", "--out", str(out)])
        assert rc == 0
        body = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert [line.split(",")[1] for line in body[1:]] == roster.split(",")

    def test_default_exact_auc_at_paper_scale(self, tmp_path, capsys):
        # about 200 probe edges x 5e5 non-edges = 10^8 pairs, scored exactly
        edges = tmp_path / "big.txt"
        save_edge_list(make_gnp(1000, 0.004, 13), edges)
        rc = main(["evaluate", "--edges", str(edges), "--method", "cn", "--reps", "1"])
        assert rc == 0
        assert "auc_mode: exact" in capsys.readouterr().out

    def test_edges_stem_that_breaks_csv_is_config_error(self, triangle_minus_edge, tmp_path,
                                                         capsys):
        # the default label is the edges file's stem, here "a,b"
        edges = tmp_path / "a,b.txt"
        edges.write_bytes(triangle_minus_edge[0].read_bytes())
        out = tmp_path / "report.txt"
        argv = ["evaluate", "--edges", str(edges), "--method", "cn", "--reps", "1",
                "--split", "0.5", "--out", str(out)]
        assert main(argv) == 1
        assert "dataset label 'a,b'" in capsys.readouterr().err
        assert not out.exists()
        assert main(argv + ["--dataset", "a b"]) == 0
        assert out.read_text().splitlines()[-1].startswith("a b,cn,")

    def test_unknown_method(self, planted_files):
        edges, attrs = planted_files
        assert main(["evaluate", "--edges", str(edges), "--attrs", str(attrs),
                     "--method", "cn,bogus"]) == 1

    def test_sampled_mode(self, planted_files, tmp_path):
        edges, attrs = planted_files
        out = tmp_path / "report.txt"
        rc = main(["evaluate", "--edges", str(edges), "--method", "cn",
                   "--reps", "2", "--auc", "sampled", "--auc-samples", "5000",
                   "--out", str(out)])
        assert rc == 0
        assert out.exists()

    def test_config_file_precedence(self, planted_files, tmp_path, capsys):
        edges, attrs = planted_files
        cfg = tmp_path / "run.cfg"
        cfg.write_text("method=cn\nreps=2\nseed=123\nsplit=0.2\n")
        out = tmp_path / "report.txt"
        rc = main(["evaluate", "--edges", str(edges), "--config", str(cfg),
                   "--seed", "999", "--out", str(out)])
        assert rc == 0
        text = out.read_text()
        assert "master_seed: 999" in text  # flag beats file
        assert "split_fraction: 0.2" in text  # file beats default

    def test_config_file_unknown_key(self, planted_files, tmp_path):
        edges, _ = planted_files
        cfg = tmp_path / "run.cfg"
        cfg.write_text("mystery=1\n")
        assert main(["evaluate", "--edges", str(edges), "--method", "cn",
                     "--config", str(cfg)]) == 1

    def test_init_is_an_unknown_config_key(self, planted_files, tmp_path, capsys):
        # the solver has one start, so there is no init option to set
        edges, attrs = planted_files
        cfg = tmp_path / "run.cfg"
        cfg.write_text("init=identity\n")
        assert main(["evaluate", "--edges", str(edges), "--attrs", str(attrs),
                     "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == ("linkpred: configuration error: "
                                           "unknown config key 'init'\n")


    def test_lp_epsilon_and_katz_beta_flags(self, planted_files, capsys):
        edges, _ = planted_files
        rc = main(["evaluate", "--edges", str(edges), "--method", "lp,katz", "--reps", "1",
                   "--lp-epsilon", "0.01", "--katz-beta", "0.02"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "lp_epsilon: 0.01  katz_beta: 0.02" in out

    @pytest.mark.parametrize("line", ["top_k=abc", "one_based=maybe"])
    def test_config_value_checked_like_flag(self, triangle_minus_edge, tmp_path, capsys, line):
        edges, _ = triangle_minus_edge
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        assert main(["predict", "--edges", str(edges), "--method", "cn",
                     "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert str(cfg) in err and line.split("=")[0] in err


class TestStats:
    def test_row_printed(self, capsys, tmp_path):
        edges = tmp_path / "e.txt"
        edges.write_text("0 1\n1 2\n0 2\n")
        assert main(["stats", "--edges", str(edges)]) == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert lines[0].split() == ["N", "M", "Att", "NUM_C", "e", "C", "r", "K"]
        assert lines[1].split() == ["3", "3", "0", "3/1", "1.0000", "1.0000", "n/a", "2.0000"]

    def test_single_node_is_data_error(self, tmp_path):
        edges = tmp_path / "e.txt"
        edges.write_text("#nodes 1\n")
        assert main(["stats", "--edges", str(edges)]) == 2

    @pytest.mark.parametrize("edges_text,attrs_text,bad", [
        pytest.param("#nodes 1_0\n0 1\n", None, "e.txt:1:", id="nodes-count"),
        pytest.param("#nodes 99999999999999999999\n0 1\n", None,
                     "e.txt:1: invalid node count '99999999999999999999'",
                     id="nodes-beyond-int64"),
        pytest.param("0 1\n#nodes 9223372036854775807\n", None,
                     "e.txt:2: cannot hold 9223372036854775807 nodes", id="nodes-2^63-1"),
        pytest.param("0 1\n", "#dense 2\n#sparse 3\n0 1 1\n", "a.txt:2:", id="second-header"),
    ])
    def test_malformed_directive_is_data_error(self, tmp_path, capsys, edges_text, attrs_text,
                                               bad):
        edges = tmp_path / "e.txt"
        edges.write_text(edges_text)
        argv = ["stats", "--edges", str(edges)]
        if attrs_text is not None:
            attrs = tmp_path / "a.txt"
            attrs.write_text(attrs_text)
            argv += ["--attrs", str(attrs)]
        assert main(argv) == 2
        assert bad in capsys.readouterr().err

    @pytest.mark.parametrize("flag,data,code,kind", [
        pytest.param("--edges", b"0 1\n1 \xff2\n", 2, "data error", id="edges"),
        pytest.param("--attrs", b"#dense 2\n# \x80\n0 1 1\n", 2, "data error", id="attrs"),
        pytest.param("--config", b"c=0.8\n# \xff\n", 1, "configuration error", id="config"),
    ])
    def test_byte_not_utf8_names_file_and_line(self, triangle_minus_edge, tmp_path, capsys,
                                               flag, data, code, kind):
        edges, attrs = triangle_minus_edge
        files = {"--edges": edges, "--attrs": attrs, "--config": tmp_path / "run.cfg"}
        files["--config"].write_text("c=0.8\n")
        files[flag].write_bytes(data)
        argv = ["stats"] + [arg for item in files.items() for arg in map(str, item)]
        assert main(argv) == code
        assert capsys.readouterr().err == f"linkpred: {kind}: {files[flag]}:2: not UTF-8 text\n"

    def test_node_id_beyond_int64_is_data_error(self, tmp_path, capsys):
        edges = tmp_path / "e.txt"
        edges.write_text("0 1\n99999999999999999999 1\n")
        assert main(["stats", "--edges", str(edges)]) == 2
        assert capsys.readouterr().err == (f"linkpred: data error: {edges}:2: node id "
                                           "'99999999999999999999' does not fit in a 64-bit "
                                           "integer\n")

    @pytest.mark.parametrize("flag,text", [
        pytest.param("--edges", "0 1\n1 2\n", id="edges"),
        pytest.param("--attrs", "#dense 2\n0 1 1\n1 1 1\n2 1 1\n", id="dense"),
        pytest.param("--attrs", "#sparse 2\n0 0:1 1:1\n1 0:1 1:1\n2 0:1 1:1\n", id="sparse"),
        pytest.param("--config", "top_k=1\n", id="config"),
    ])
    def test_byte_order_mark_skipped(self, triangle_minus_edge, tmp_path, capsys, flag, text):
        edges, attrs = triangle_minus_edge
        files = {"--edges": edges, "--attrs": attrs, "--config": tmp_path / "run.cfg"}
        files["--config"].write_text("top_k=1\n")
        argv = ["predict", "--method", "randwalk"]
        argv += [arg for item in files.items() for arg in map(str, item)]
        assert main(argv) == 0
        expected = capsys.readouterr().out
        assert len(expected.splitlines()) == 2  # the header and top_k=1 row
        files[flag].write_text("\ufeff" + text, encoding="utf-8")
        assert main(argv) == 0
        assert capsys.readouterr().out == expected


class TestGenerate:
    def test_roundtrip_statistics(self, tmp_path, capsys):
        out_edges = tmp_path / "e.txt"
        out_attrs = tmp_path / "a.txt"
        rc = main(["generate", "--n", "100", "--groups", "4", "--p-in", "0.25",
                   "--p-out", "0.02", "--attr-noise", "0.1", "--seed", "21",
                   "--out-edges", str(out_edges), "--out-attrs", str(out_attrs)])
        assert rc == 0
        graph = load_attributes(out_attrs, load_edge_list(out_edges))
        assert graph.n == 100
        assert graph.attr_dim == 4
        summary = capsys.readouterr().out
        assert f"m={graph.m_edges}" in summary

    def test_generated_files_reload_identically(self, tmp_path):
        out_edges = tmp_path / "e.txt"
        out_attrs = tmp_path / "a.txt"
        assert main(["generate", "--n", "40", "--groups", "2", "--p-in", "0.3",
                     "--p-out", "0.05", "--attr-noise", "0.2", "--seed", "8",
                     "--out-edges", str(out_edges), "--out-attrs", str(out_attrs)]) == 0
        g1 = load_attributes(out_attrs, load_edge_list(out_edges))
        save_edge_list(g1, tmp_path / "e2.txt")
        save_attributes(g1, tmp_path / "a2.txt")
        g2 = load_attributes(tmp_path / "a2.txt", load_edge_list(tmp_path / "e2.txt"))
        assert np.array_equal(g1.edges, g2.edges)
        assert np.array_equal(g1.attributes, g2.attributes)

    def test_missing_outputs_rejected(self):
        assert main(["generate", "--n", "10", "--groups", "2"]) == 1

    def test_bad_probabilities(self, tmp_path):
        assert main(["generate", "--n", "10", "--groups", "2", "--p-in", "0.1",
                     "--p-out", "0.5", "--out-edges", str(tmp_path / "e"),
                     "--out-attrs", str(tmp_path / "a")]) == 1


class TestDeterminism:
    def test_predict_reruns_byte_identical(self, planted_files, tmp_path):
        edges, attrs = planted_files
        outputs = []
        for tag in ("a", "b"):
            out = tmp_path / f"pred_{tag}.csv"
            assert main(["predict", "--edges", str(edges), "--attrs", str(attrs),
                         "--method", "randwalk", "--top-k", "50",
                         "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_stats_reruns_byte_identical(self, planted_files, tmp_path):
        edges, attrs = planted_files
        outputs = []
        for tag in ("a", "b"):
            out = tmp_path / f"stats_{tag}.txt"
            assert main(["stats", "--edges", str(edges), "--attrs", str(attrs),
                         "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_generate_reruns_byte_identical(self, tmp_path):
        files = []
        for tag in ("a", "b"):
            e = tmp_path / f"e_{tag}.txt"
            a = tmp_path / f"a_{tag}.txt"
            assert main(["generate", "--n", "50", "--groups", "2", "--p-in", "0.3",
                         "--p-out", "0.03", "--attr-noise", "0.15", "--seed", "99",
                         "--out-edges", str(e), "--out-attrs", str(a)]) == 0
            files.append((e.read_bytes(), a.read_bytes()))
        assert files[0] == files[1]


class TestOptions:
    SAMPLES = {float: "0.5", int: "7", str: "x.txt"}  # none is a default

    @pytest.mark.parametrize("command,key", [
        (command, key) for command, (_, _, keys) in cli._COMMANDS.items() for key in keys])
    def test_flag_and_config_key_agree(self, tmp_path, command, key):
        default, kind, _ = cli.OPTIONS[key]
        flag = "--" + key.replace("_", "-")
        if kind is cli._parse_bool:
            raw, argv = "true", [flag]
        else:
            raw = self.SAMPLES[kind]
            argv = [flag, raw]
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key}={raw}\n")
        parser = cli._build_parser()
        from_flag = cli._resolve(parser.parse_args([command] + argv), command)
        from_file = cli._resolve(parser.parse_args([command, "--config", str(cfg)]), command)
        assert from_flag == from_file
        assert from_flag[key] != default

    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    def test_help_names_every_flag(self, capsys, command):
        flags = _help_flags(command, capsys)
        for key in cli._COMMANDS[command][2]:
            assert "--" + key.replace("_", "-") in flags

    def test_readme_documents_exactly_the_parser_flags(self, capsys):
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        flag = r"(?<![\w-])--[a-z][a-z-]*"
        start = text.index("## Command line")
        section = text[start:text.index("\n## ", start)]
        documented = set(re.findall(flag, section))
        if re.search(r"(?<![\w-])-v\b", section):
            documented.add("--verbose")
        parsed = set().union(*(_help_flags(command, capsys) for command in cli._COMMANDS))
        assert parsed - documented == set()
        # a flag named in this section or any later one, file formats included
        assert set(re.findall(flag, text[start:])) - parsed == set()

    # "@name" stands for tmp_path / name; the fixture holds edges.txt and attrs.txt.
    # Each case pairs its argv with the stderr text that names its own fault.
    BAD_VALUES = [
        (["predict", "--method", "randwalk", "--c", "5", "--attrs", "@attrs.txt"],
         "attenuation coefficient c must be in (0, 1)"),
        (["evaluate", "--auc", "bogus", "--attrs", "@attrs.txt"], "auc mode must be"),
        (["evaluate", "--config", "@init.cfg", "--attrs", "@attrs.txt"],
         "unknown config key 'init'"),
        (["evaluate", "--split", "1.5", "--attrs", "@attrs.txt"],
         "split fraction must be in (0, 1)"),
        (["predict", "--method", "randwalk"], "error: graph has no attributes loaded"),
        (["evaluate", "--method", "cn", "--reps", "0"], "--reps must be >= 1"),
        (["evaluate", "--method", "cn,pagerank"], "unknown method 'pagerank'"),
        (["predict", "--method", "cn", "--dump-sim", "@s.csv", "--out", "@p.csv"],
         "--dump-sim: graph has no attributes loaded"),
        (["evaluate", "--method", "cn", "--seed", "-1", "--attrs", "@attrs.txt"],
         "master seed must be >= 0"),
        (["generate", "--seed", "-1", "--out-edges", "@g_edges.txt",
          "--out-attrs", "@g_attrs.txt"], "error: seed must be >= 0"),
        *[(["evaluate", "--method", "cn", "--reps", "1", "--split", "0.5", "--out", "@r.txt",
            "--dataset", label], f"dataset label {label!r}")
          for label in ("a,b\nx", "a,b", 'say "a"', "a\rb")],
    ]

    # short ids: the expected texts hold spaces, quotes and line breaks
    @pytest.mark.parametrize("argv,reason", BAD_VALUES,
                             ids=[f"argv{i}" for i in range(len(BAD_VALUES))])
    def test_bad_value_fails_before_any_file_is_written(self, triangle_minus_edge, tmp_path,
                                                         capsys, argv, reason):
        (tmp_path / "init.cfg").write_text("init=identity\n")  # a key that is gone
        if argv[0] != "generate":
            argv = argv + ["--edges", "@edges.txt"]
        argv = [str(tmp_path / arg[1:]) if arg.startswith("@") else arg for arg in argv]
        assert main(argv) == 1
        assert reason in capsys.readouterr().err
        assert sorted(path.name for path in tmp_path.iterdir()) == ["attrs.txt", "edges.txt",
                                                                   "init.cfg"]

    # no id map: node i is input id i, or i + 1 with --one-based, so a map only restates that
    @pytest.mark.parametrize("command", ["predict", "evaluate", "stats"])
    @pytest.mark.parametrize("extra,reason", [
        pytest.param(["--id-map", "@m.csv"], "unrecognized arguments: --id-map", id="flag"),
        pytest.param(["--config", "@underscore.cfg"], "unknown config key 'id_map'",
                     id="config-key"),
        pytest.param(["--config", "@dash.cfg"], "unknown config key 'id_map'",
                     id="config-key-dashed"),
    ])
    def test_id_map_is_rejected(self, triangle_minus_edge, tmp_path, capsys, command, extra,
                                reason):
        (tmp_path / "underscore.cfg").write_text("id_map=m.csv\n")
        (tmp_path / "dash.cfg").write_text("id-map=m.csv\n")
        before = sorted(tmp_path.iterdir())
        argv = [command, "--edges", "@edges.txt", "--attrs", "@attrs.txt", "--out", "@o.txt",
                *extra]
        argv = [str(tmp_path / arg[1:]) if arg.startswith("@") else arg for arg in argv]
        try:
            code = main(argv)
        except SystemExit as exc:  # the parser's exit for an unknown flag
            code = exc.code
        assert code == 1
        assert reason in capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == before

    def test_readme_tour_runs_and_prints_its_stats_row(self, tmp_path, monkeypatch, capsys):
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        start = text.index("```\n", text.index("## Command line")) + 4
        tour = text[start:text.index("```", start)].replace("\\\n", " ")
        commands, printed = [], {}
        for line in tour.splitlines():
            if line.startswith("linkpred "):
                commands.append(shlex.split(line, comments=True)[1:])
            elif line.startswith("# "):  # sample output of the command above
                printed.setdefault(len(commands) - 1, []).append(line[2:])
        assert [argv[0] for argv in commands] == ["generate", "stats", "predict", "evaluate"]
        assert printed[1][1] == "200  804  4    200/1  0.3739  0.0846  0.0123  8.0400"
        monkeypatch.chdir(tmp_path)
        for i, argv in enumerate(commands):
            assert main(argv) == 0, argv
            out = capsys.readouterr().out
            if i in printed:
                assert [row.rstrip() for row in out.splitlines()] == printed[i]

    def test_defaults_match_the_library(self):
        assert cli._experiment_config(cli.DEFAULTS) == ExperimentConfig()

    def test_readme_methods_table_names_exactly_the_methods(self):
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        start = text.index("## Methods")
        section = text[start:text.index("\n## ", start)]
        rows = re.findall(r"^\| ([^|]+?) \|", section, flags=re.MULTILINE)
        assert tuple(rows[1:]) == METHOD_NAMES  # rows[0] is the header
        for alias in ALIASES:
            assert f"`{alias}`" in section

    @pytest.mark.parametrize("argv", [
        ["predict", "--method", "randwalk", "--tol"],
        ["evaluate", "--method", "lp", "--lp-epsilon"],
        ["evaluate", "--method", "katz", "--katz-beta"],
        ["generate", "--attr-noise"],
    ])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_parameter_is_config_error(self, planted_files, tmp_path, argv, value):
        edges, attrs = planted_files
        out_edges = tmp_path / "out_edges.txt"
        files = (["--out-edges", str(out_edges), "--out-attrs", str(tmp_path / "out_attrs.txt")]
                 if argv[0] == "generate" else ["--edges", str(edges), "--attrs", str(attrs)])
        assert main(argv + [value] + files) == 1
        assert not out_edges.exists()


def _help_flags(command, capsys) -> set:
    with pytest.raises(SystemExit) as excinfo:
        main([command, "--help"])
    assert excinfo.value.code == 0
    return set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))


def test_bad_usage_exits_one():
    with pytest.raises(SystemExit) as excinfo:
        main(["predict", "--no-such-flag"])
    assert excinfo.value.code == 1


def test_graph_helpers_roundtrip(tmp_path):
    g = graph_from_edges(4, [(0, 1), (2, 3)], attributes=np.eye(4))
    save_edge_list(g, tmp_path / "e.txt")
    save_attributes(g, tmp_path / "a.txt")
    reloaded = load_attributes(tmp_path / "a.txt", load_edge_list(tmp_path / "e.txt"))
    assert np.array_equal(reloaded.attributes, g.attributes)
