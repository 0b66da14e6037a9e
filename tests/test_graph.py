from __future__ import annotations

import re

import numpy as np
import pytest

from linkpred import (AttributedGraph, ConfigError, ParseError, load_attributes,
                      load_edge_list, save_attributes, save_edge_list)
from _helpers import make_gnp


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadEdgeList:
    def test_path_graph(self, tmp_path):
        g = load_edge_list(_write(tmp_path, "e.txt", "0 1\n1 2\n"))
        assert g.n == 3
        assert g.m_edges == 2

    def test_duplicates_and_self_loops(self, tmp_path, caplog):
        with caplog.at_level("WARNING"):
            g = load_edge_list(_write(tmp_path, "e.txt", "0 1\n1 0\n0 0\n"))
        assert g.n == 2
        assert g.m_edges == 1
        assert "1 self-loop" in caplog.text

    def test_empty_file(self, tmp_path):
        g = load_edge_list(_write(tmp_path, "e.txt", ""))
        assert g.n == 0
        assert g.m_edges == 0

    def test_comments_skipped(self, tmp_path):
        g = load_edge_list(_write(tmp_path, "e.txt", "# a comment\n0 1\n"))
        assert g.m_edges == 1

    def test_malformed_line_reports_lineno(self, tmp_path):
        path = _write(tmp_path, "e.txt", "0 1\n2\n")
        with pytest.raises(ParseError, match=r":2:"):
            load_edge_list(path)

    def test_non_integer_token(self, tmp_path):
        with pytest.raises(ParseError, match="invalid node id"):
            load_edge_list(_write(tmp_path, "e.txt", "0 x\n"))

    @pytest.mark.parametrize("line", [
        pytest.param("1_0 2", id="underscore"),
        pytest.param("0 \u0661", id="arabic-indic-digit"),
        pytest.param("\uff11 0", id="fullwidth-digit"),
        pytest.param("0\u00a01", id="no-break-space"),
    ])
    def test_ids_must_be_plain_ascii(self, tmp_path, line):
        path = _write(tmp_path, "e.txt", f"0 1\n{line}\n")
        with pytest.raises(ParseError, match=r"e\.txt:2: numbers must be plain ASCII"):
            load_edge_list(path)

    @pytest.mark.parametrize("count", [
        pytest.param("1_0", id="underscore"),
        pytest.param("x", id="word"),
        pytest.param("-3", id="negative"),
        pytest.param("\u0661\u0660", id="arabic-indic-digits"),
        pytest.param("9223372036854775808", id="2^63"),
        pytest.param("99999999999999999999", id="beyond-int64"),
    ])
    def test_malformed_nodes_directive(self, tmp_path, count):
        path = _write(tmp_path, "e.txt", f"# graph\n#nodes {count}\n0 1\n")
        with pytest.raises(ParseError, match=r"e\.txt:2: invalid node count"):
            load_edge_list(path)

    @pytest.mark.parametrize("comment", ["#nodes", "# nodes are authors", "#nodesx 7"])
    def test_other_nodes_comments_skipped(self, tmp_path, comment):
        g = load_edge_list(_write(tmp_path, "e.txt", f"{comment}\n0 1\n"))
        assert g.n == 2

    def test_negative_id(self, tmp_path):
        with pytest.raises(ParseError, match="out of range"):
            load_edge_list(_write(tmp_path, "e.txt", "-1 2\n"))

    @pytest.mark.parametrize("token", ["9223372036854775808", "99999999999999999999"])
    @pytest.mark.parametrize("indexing", ["zero", "one"])
    def test_id_beyond_int64(self, tmp_path, token, indexing):
        path = _write(tmp_path, "e.txt", f"1 2\n{token} 1\n")
        with pytest.raises(ParseError, match=rf"e\.txt:2: node id '{token}' does not fit "
                                             "in a 64-bit integer$"):
            load_edge_list(path, indexing=indexing)

    def test_one_based(self, tmp_path):
        g = load_edge_list(_write(tmp_path, "e.txt", "1 2\n2 3\n"), indexing="one")
        assert g.n == 3
        assert g.edges.tolist() == [[0, 1], [1, 2]]

    def test_one_based_rejects_zero(self, tmp_path):
        with pytest.raises(ParseError, match="out of range"):
            load_edge_list(_write(tmp_path, "e.txt", "0 1\n"), indexing="one")

    def test_indexing_spelled_out(self, tmp_path):
        g = load_edge_list(_write(tmp_path, "e.txt", "1 2\n"), indexing="one-based")
        assert g.edges.tolist() == [[0, 1]]

    def test_indexing_rejected(self, tmp_path):
        from linkpred import ConfigError
        with pytest.raises(ConfigError, match="indexing"):
            load_edge_list(_write(tmp_path, "e.txt", "0 1\n"), indexing="two")

    def test_gap_ids_become_isolated_nodes(self, tmp_path):
        g = load_edge_list(_write(tmp_path, "e.txt", "0 1\n4 5\n"))
        assert g.n == 6
        assert g.degrees.tolist() == [1, 1, 0, 0, 1, 1]

    def test_nodes_directive(self, tmp_path):
        g = load_edge_list(_write(tmp_path, "e.txt", "#nodes 7\n0 1\n"))
        assert g.n == 7

    def test_node_count_beyond_numpy_names_its_line(self, tmp_path):
        # 2^63 - 1 passes the parser but no numpy array can have that many
        # entries, so the build fails before allocating
        path = _write(tmp_path, "e.txt", "0 1\n#nodes 9223372036854775807\n1 2\n")
        with pytest.raises(ParseError, match=r"e\.txt:2: cannot hold 9223372036854775807 "
                                             "nodes: Maximum allowed dimension exceeded"):
            load_edge_list(path)

    @pytest.mark.parametrize("text,line,n", [
        pytest.param("#nodes 3\n0 1\n7 2\n1 5\n", 3, 8, id="largest-id"),
        pytest.param("0 1\n#nodes 12\n7 2\n", 2, 12, id="directive"),
    ])
    def test_out_of_memory_names_the_line_that_set_n(self, tmp_path, monkeypatch, text, line,
                                                     n):
        def build(count, edges, attributes=None):
            raise MemoryError(f"Unable to allocate {count + 1} entries")

        monkeypatch.setattr(AttributedGraph, "build", staticmethod(build))
        path = _write(tmp_path, "e.txt", text)
        with pytest.raises(ParseError, match=rf"e\.txt:{line}: cannot hold {n} nodes: "
                                             rf"Unable to allocate {n + 1} entries$"):
            load_edge_list(path)


class TestTopology:
    def test_neighbors_sorted(self):
        g = AttributedGraph.build(4, [(2, 1), (1, 0), (1, 3)])
        assert g.neighbors(1).tolist() == [0, 2, 3]
        assert g.neighbors(0).tolist() == [1]

    def test_isolated_node(self):
        g = AttributedGraph.build(3, [(0, 1)])
        assert g.neighbors(2).tolist() == []
        assert g.degrees[2] == 0

    def test_triangle_degrees(self):
        g = AttributedGraph.build(3, [(0, 1), (1, 2), (0, 2)])
        assert g.degrees.tolist() == [2, 2, 2]

    def test_out_of_range(self):
        g = AttributedGraph.build(2, [(0, 1)])
        for v in (2, 5, -1):
            with pytest.raises(IndexError):
                g.neighbors(v)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_neighbors_match_edge_list(self, seed):
        g = make_gnp(40, 0.2, seed)
        edges = {tuple(e) for e in g.edges.tolist()}
        for i in range(g.n):
            assert set(g.neighbors(i).tolist()) == {
                j for j in range(g.n) if (min(i, j), max(i, j)) in edges}

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_degree_sum_is_twice_edge_count(self, seed):
        g = make_gnp(40, 0.15, seed)
        assert int(g.degrees.sum()) == 2 * g.m_edges

    @pytest.mark.parametrize("seed", [3, 4])
    def test_neighbor_symmetry(self, seed):
        g = make_gnp(25, 0.2, seed)
        for u in range(g.n):
            for v in g.neighbors(u):
                assert u in g.neighbors(v)

    def test_adjacency_matrix_symmetric(self):
        g = make_gnp(30, 0.2, 7)
        a = g.adjacency_matrix().toarray()
        assert (a == a.T).all()
        assert np.trace(a) == 0


class TestRoundTrip:
    @pytest.mark.parametrize("seed", [0, 11])
    def test_save_load_identity(self, tmp_path, seed):
        g = make_gnp(20, 0.2, seed)
        path = tmp_path / "edges.txt"
        save_edge_list(g, path)
        g2 = load_edge_list(path)
        assert g2.n == g.n
        assert np.array_equal(g2.edges, g.edges)

    def test_trailing_isolated_node_survives(self, tmp_path):
        g = AttributedGraph.build(5, [(0, 1)])
        path = tmp_path / "edges.txt"
        save_edge_list(g, path)
        assert load_edge_list(path).n == 5


class TestLoadAttributes:
    def _graph(self, n=3):
        return AttributedGraph.build(n, [(0, 1), (1, 2)])

    def test_sparse(self, tmp_path):
        path = _write(tmp_path, "a.txt", "#sparse 4\n0 1:1 3:1\n")
        g = load_attributes(path, self._graph())
        assert g.attr_dim == 4
        assert g.attributes[0].tolist() == [0.0, 1.0, 0.0, 1.0]

    def test_dense(self, tmp_path):
        path = _write(tmp_path, "a.txt", "#dense 2\n1 0.5 0.5\n")
        g = load_attributes(path, self._graph())
        assert g.attributes[1].tolist() == [0.5, 0.5]

    def test_missing_node_gets_zero_vector(self, tmp_path):
        path = _write(tmp_path, "a.txt", "#dense 3\n0 1 0 0\n1 0 1 0\n")
        g = load_attributes(path, self._graph())
        assert g.attributes[2].tolist() == [0.0, 0.0, 0.0]

    def test_attribute_index_out_of_range(self, tmp_path):
        path = _write(tmp_path, "a.txt", "#sparse 2\n0 2:1\n")
        with pytest.raises(ParseError, match="attribute index"):
            load_attributes(path, self._graph())

    def test_node_id_out_of_range(self, tmp_path):
        path = _write(tmp_path, "a.txt", "#dense 1\n9 1\n")
        with pytest.raises(ParseError, match="node id"):
            load_attributes(path, self._graph())

    def test_missing_header(self, tmp_path):
        path = _write(tmp_path, "a.txt", "0 1 0\n")
        with pytest.raises(ParseError, match="header"):
            load_attributes(path, self._graph())

    @pytest.mark.parametrize("second", ["#sparse 3", "#dense 2", "# dense 4"])
    def test_second_header(self, tmp_path, second):
        path = _write(tmp_path, "a.txt", f"#dense 2\n{second}\n0 1 1\n")
        with pytest.raises(ParseError, match=r"a\.txt:2: second attribute header"):
            load_attributes(path, self._graph())

    def test_dense_wrong_arity(self, tmp_path):
        path = _write(tmp_path, "a.txt", "#dense 3\n0 1 0\n")
        with pytest.raises(ParseError, match="expected 3 values"):
            load_attributes(path, self._graph())

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("fmt,good,bad", [
        pytest.param("dense", "0 1 1", "1 0.5 {}", id="dense"),
        pytest.param("sparse", "0 0:1 1:1", "1 0:0.5 1:{}", id="sparse"),
    ])
    def test_non_finite_value_rejected(self, tmp_path, token, fmt, good, bad):
        path = _write(tmp_path, "a.txt", f"#{fmt} 2\n{good}\n{bad.format(token)}\n")
        with pytest.raises(ParseError, match=r"a\.txt:3: non-finite"):
            load_attributes(path, self._graph())

    @pytest.mark.parametrize("fmt,bad", [
        pytest.param("sparse", "2 0:1_0", id="sparse-underscore-value"),
        pytest.param("sparse", "2 1_0:1", id="sparse-underscore-index"),
        pytest.param("sparse", "2 0:\u0661", id="sparse-arabic-indic-value"),
        pytest.param("dense", "2 1_0 1", id="dense-underscore-value"),
        pytest.param("dense", "\u0662 1 1", id="dense-arabic-indic-id"),
    ])
    def test_numbers_must_be_plain_ascii(self, tmp_path, fmt, bad):
        path = _write(tmp_path, "a.txt", f"#{fmt} 2\n{bad}\n")
        with pytest.raises(ParseError, match=r"a\.txt:2: numbers must be plain ASCII"):
            load_attributes(path, self._graph())

    def test_sparse_repeated_index(self, tmp_path):
        path = _write(tmp_path, "a.txt", "#sparse 2\n0 1:1 1:5\n")
        with pytest.raises(ParseError, match=r"a\.txt:2: attribute index 1 repeated"):
            load_attributes(path, self._graph())

    def test_negative_values_warn(self, tmp_path, caplog):
        path = _write(tmp_path, "a.txt", "#dense 2\n0 -1 0\n")
        with caplog.at_level("WARNING"):
            g = load_attributes(path, self._graph())
        assert g.attributes[0, 0] == -1.0
        assert "negative attribute" in caplog.text

    def test_one_based(self, tmp_path):
        path = _write(tmp_path, "a.txt", "#sparse 2\n1 1:1\n")
        g = load_attributes(path, self._graph(), indexing="one")
        assert g.attributes[0].tolist() == [1.0, 0.0]

    def test_attribute_roundtrip(self, tmp_path):
        g = self._graph().with_attributes(np.array([[0.25, 1.5], [0.0, 0.0], [3.0, 0.125]]))
        path = tmp_path / "a.txt"
        save_attributes(g, path)
        g2 = load_attributes(path, self._graph())
        assert np.array_equal(g2.attributes, g.attributes)


# Inserted ids stay at or below 10**6: a larger one makes AttributedGraph.build
# allocate O(n) arrays, which no loader check bounds. Tokens go into data lines
# or become lines of their own, so every header is an original, a copy,
# "#dense 3", "#sparse 2" or a prefix of one: none declares an n x m array with
# m above 3, which the loader would allocate just as unchecked.
_BAD_TOKENS = ("x", "-1", "1.5", "1e3", "1e400", "nan", "inf", "-inf", "+4", "0x1f", "1_0",
               "\u0661", "\uff11", "\u00e9", "\x00", ":", "3:", ":0.5", "2:2:2", "1:nan",
               "99:1", "#", "#nodes x", "#nodes 1000000", "#dense 3", "#sparse 2", "999999",
               "1000000")


def _mutate(text: str, rng) -> str:
    """Truncate, insert or replace tokens, add lines or duplicate the header."""
    lines = text.splitlines()
    for _ in range(int(rng.integers(1, 4))):
        kind = int(rng.integers(5))
        token = _BAD_TOKENS[int(rng.integers(len(_BAD_TOKENS)))]
        data = [i for i, line in enumerate(lines) if line and not line.startswith("#")]
        if kind == 0:
            joined = "\n".join(lines)
            lines = joined[:int(rng.integers(len(joined) + 1))].split("\n")
        elif kind in (1, 2) and data:
            row = data[int(rng.integers(len(data)))]
            tokens = lines[row].split()
            at = int(rng.integers(len(tokens) + (kind == 1)))
            tokens[at:at + (kind == 2)] = [token]
            lines[row] = " ".join(tokens)
        elif kind == 3 or not data:
            lines.insert(int(rng.integers(len(lines) + 1)), token)
        else:
            header = next((line for line in lines if line.startswith("#")), "#nodes 3")
            lines.insert(int(rng.integers(len(lines) + 1)), header)
    return "\n".join(lines) + "\n"


def _fuzz_source(tmp_path, fmt):
    """A valid edge, dense or sparse file whose first line is its header comment."""
    graph = make_gnp(30, 0.15, 4, attrs="random", attr_dim=3)
    source = tmp_path / "source.txt"
    if fmt == "edges":
        save_edge_list(graph, source)
    elif fmt == "dense":
        save_attributes(graph, source)
    else:
        rows = [f"{v} " + " ".join(f"{k}:{x:.6g}" for k, x in enumerate(row) if x > 0.5)
                for v, row in enumerate(graph.attributes)]
        source.write_text("#sparse 3\n" + "\n".join(rows) + "\n", encoding="utf-8")
    return graph, source


def _load(fmt, path, graph, indexing="zero"):
    if fmt == "edges":
        return load_edge_list(str(path), indexing=indexing)
    return load_attributes(str(path), graph, indexing=indexing)


class TestLoaderFuzz:
    """Seeded mutants of valid files either load or fail with a located error."""

    @pytest.mark.parametrize("fmt", ["edges", "dense", "sparse"])
    def test_mutants_load_or_name_path_and_line(self, tmp_path, fmt):
        graph, source = _fuzz_source(tmp_path, fmt)
        path = tmp_path / "mutant.txt"
        # a line-level error names path:line; a whole-file one (no header) the path
        located = re.compile(re.escape(str(path)) + r":(\d+:)? ")
        rng = np.random.default_rng(["edges", "dense", "sparse"].index(fmt))
        outcomes = {"loaded": 0, "rejected": 0}
        for _ in range(300):
            path.write_text(_mutate(source.read_text(encoding="utf-8"), rng), encoding="utf-8")
            indexing = "one" if rng.random() < 0.25 else "zero"  # flips the id base
            try:
                _load(fmt, path, graph, indexing)
                outcomes["loaded"] += 1
            except ParseError as exc:
                assert located.match(str(exc)), str(exc)
                outcomes["rejected"] += 1
            except ConfigError:
                outcomes["rejected"] += 1
        assert min(outcomes.values()) >= 20, outcomes

    @pytest.mark.parametrize("fmt", ["edges", "dense", "sparse"])
    def test_byte_not_utf8_names_path_and_line(self, tmp_path, fmt):
        graph, source = _fuzz_source(tmp_path, fmt)
        lines = source.read_bytes().split(b"\n")[:-1]
        path = tmp_path / "mutant.txt"
        # a stream of its own, so the text mutants above keep their bytes
        rng = np.random.default_rng([["edges", "dense", "sparse"].index(fmt), 1])
        for _ in range(100):
            # a quarter of the bytes go into the header comment, after its '#'
            row = 0 if rng.random() < 0.25 else int(rng.integers(1, len(lines)))
            at = int(rng.integers(row == 0, len(lines[row]) + 1))
            byte = (b"\xff", b"\x80", b"\xc3")[int(rng.integers(3))]  # the file is ASCII
            mutant = lines.copy()
            mutant[row] = lines[row][:at] + byte + lines[row][at:]
            path.write_bytes(b"\n".join(mutant) + b"\n")
            with pytest.raises(ParseError, match=f"^{re.escape(str(path))}:{row + 1}: "
                                                 "not UTF-8 text$"):
                _load(fmt, path, graph)


class TestLineEndings:
    FILES = {  # line 2 is blank, line 3 holds the first data line
        "edges": "#nodes 6\n\n0 1\n1 2\n3 4\n",
        "dense": "#dense 2\n\n0 1 0\n1 0.5 0.5\n4 0 1\n",
        "sparse": "#sparse 2\n\n0 0:1\n1 0:0.5 1:0.5\n4 1:1\n",
    }
    BAD_LINE_3 = {"edges": ("0 x", "invalid node id 'x'"),
                  "dense": ("0 1 y", "invalid attribute value"),
                  "sparse": ("0 0:y", "invalid sparse entry '0:y'")}

    def _write(self, tmp_path, fmt, newline, text=None):
        path = tmp_path / f"{fmt}.txt"
        path.write_bytes((text or self.FILES[fmt]).replace("\n", newline).encode("ascii"))
        return path

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    def test_same_graph_whatever_the_line_ending(self, tmp_path, newline):
        graph = load_edge_list(self._write(tmp_path, "edges", newline))
        assert graph.n == 6
        assert graph.edges.tolist() == [[0, 1], [1, 2], [3, 4]]
        expected = np.array([[1, 0], [0.5, 0.5], [0, 0], [0, 0], [0, 1], [0, 0]])
        for fmt in ("dense", "sparse"):
            loaded = load_attributes(self._write(tmp_path, fmt, newline), graph)
            assert np.array_equal(loaded.attributes, expected)

    @pytest.mark.parametrize("fmt", ["edges", "dense", "sparse"])
    def test_byte_order_mark_skipped(self, tmp_path, fmt):
        graph = AttributedGraph.build(6, [])
        bom = "\ufeff".encode()
        path = tmp_path / f"bom-{fmt}.txt"
        path.write_bytes(bom + self.FILES[fmt].encode("ascii"))
        expected = _load(fmt, self._write(tmp_path, fmt, "\n"), graph)
        loaded = _load(fmt, path, graph)
        assert np.array_equal(loaded.edges, expected.edges)
        assert np.array_equal(loaded.attributes, expected.attributes)
        # line numbers are unchanged, and a later byte that is not UTF-8 is still refused
        bad, message = self.BAD_LINE_3[fmt]
        lines = self.FILES[fmt].split("\n")
        path.write_bytes(bom + "\n".join(lines[:2] + [bad]).encode("ascii"))
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}:3: {re.escape(message)}$"):
            _load(fmt, path, graph)
        path.write_bytes(bom + self.FILES[fmt].encode("ascii") + b"\xff\n")
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}:6: not UTF-8 text$"):
            _load(fmt, path, graph)

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    @pytest.mark.parametrize("fmt", ["edges", "dense", "sparse"])
    def test_bad_line_3_is_reported_as_line_3(self, tmp_path, newline, fmt):
        graph = AttributedGraph.build(6, [])
        bad, message = self.BAD_LINE_3[fmt]
        lines = self.FILES[fmt].split("\n")
        path = self._write(tmp_path, fmt, newline, "\n".join(lines[:2] + [bad] + lines[3:]))
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}:3: {re.escape(message)}$"):
            _load(fmt, path, graph)
