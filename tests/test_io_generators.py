import sys
import time
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oddcluster import generators as gen
from oddcluster import graph_io
from oddcluster.graph import MAX_VERTICES, Graph, GraphError, connected_components
from oddcluster.graph_io import format_edgelist, read_dimacs, read_edgelist

from conftest import graphs
from helpers import (
    OddClosedWalk,
    bipartition_or_odd_cycle,
    format_dimacs,
    graph_layout,
    load_workloads,
    outcome,
    read_edgelist_reference,
    sparse_gnp,
)


class TestEdgelist:
    def test_round_trip(self):
        g = Graph(4, [(0, 1), (2, 3)])
        assert read_edgelist(format_edgelist(g)) == g

    def test_parse(self):
        g = read_edgelist("3 2\n0 1\n1 2\n")
        assert g.n == 3 and g.m == 2

    def test_comments_and_blanks(self):
        g = read_edgelist("# a path\n3 2\n\n0 1\n1 2\n")
        assert g.m == 2

    @pytest.mark.parametrize(
        "text",
        ["", "3\n", "3 2\n0 1\n", "3 1\n0 1\n1 2\n", "2 1\nx y\n", "2 1\n0 1 2\n"],
    )
    def test_malformed(self, text):
        with pytest.raises(GraphError):
            read_edgelist(text)

    @given(graphs(max_n=12))
    def test_round_trip_property(self, g):
        assert read_edgelist(format_edgelist(g)) == g

    @pytest.mark.parametrize(
        "text, message",
        [
            ("30 1\n0 1_0\n", "bad edge line: '0 1_0'"),
            ("30 1\r\n0 1_0\r\n", "bad edge line: '0 1_0'"),
            ("3 1\n0 \u0662\n", "bad edge line: '0 \u0662'"),
            ("3 1\n\uff10 2\n", "bad edge line: '\uff10 2'"),
            ("3_0 1\n0 1\n", "bad header line: '3_0 1'"),
            ("\uff13 1\n0 1\n", "bad header line: '\uff13 1'"),
            ("3 1\n+0 _1\n", "bad edge line: '+0 _1'"),
            ("3 1\n0\t1_0\n", "bad edge line: '0\\t1_0'"),
            ("3 1\r\n 0  1_0 \r\n", "bad edge line: '0  1_0'"),
            ("3_0\t1\n0 1\n", "bad header line: '3_0\\t1'"),
        ],
        ids=["underscore", "underscore-crlf", "arabic-indic-digit", "full-width-digit", "underscore-n",
             "full-width-n", "leading-underscore", "tab", "spaces-crlf", "tab-n"],
    )
    def test_only_ascii_decimal_integers(self, text, message):
        # int() reads each of these tokens; the format takes digits after an
        # optional sign. The bad line is quoted stripped but as written, as
        # DIMACS quotes it: tabs and runs of spaces are kept
        with pytest.raises(GraphError) as exc:
            read_edgelist(text)
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "text, message",
        [
            ("3 1\n0  1 2\n", "bad edge line: '0  1 2'"),
            ("3 1\r\n0\t1\t2\r\n", "bad edge line: '0\\t1\\t2'"),
            ("3 1\n0\n", "bad edge line: '0'"),
            ("3 1 2\n", "bad header line: '3 1 2'"),
            ("3\t1  2\n0 1\n", "bad header line: '3\\t1  2'"),
        ],
        ids=["three-tokens", "three-tokens-tabs-crlf", "one-token", "three-token-header", "three-token-header-tab"],
    )
    def test_wrong_token_count_quotes_the_line(self, text, message):
        # worded as a bad number on the same line is
        with pytest.raises(GraphError) as exc:
            read_edgelist(text)
        assert str(exc.value) == message


# Edits to one token: a sign, an underscore, a non-ASCII digit, a token past
# the int digit limit, a minus, a leading zero, a fraction, an exponent, an
# empty token and a vertex count above the limit. The leading zero, fraction,
# exponent and empty token are spellings that JSON reads differently from
# int(), or not at all. All but the last make the text one that only the line
# loop reads.
TOKEN_EDITS = (
    lambda tok: "+" + tok,
    lambda tok: tok[0] + "_" + tok[1:] if len(tok) > 1 else "1_0",
    lambda tok: tok.replace("3", "\u0663") if "3" in tok else "\u0663",
    lambda tok: "1" * 4400,
    lambda tok: "-" + tok,
    lambda tok: "0" + tok,
    lambda tok: tok + ".0",
    lambda tok: tok + "e3",
    lambda tok: "",
    lambda tok: str(MAX_VERTICES + 1),
)

# Characters for small edits to plain text: the digits, its own separators and
# what JSON or the line loop would read in their place.
EDIT_CHARS = "0123456789 \n\r\t-+.e#,[]"


@st.composite
def edited_edge_lists(draw):
    """format_edgelist output with 1 to 3 characters inserted, deleted or replaced."""
    text = format_edgelist(draw(graphs(max_n=12)))
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(text)))
        edit = draw(st.sampled_from(["insert", "delete", "replace"]))
        if edit == "insert":
            text = text[:i] + draw(st.sampled_from(EDIT_CHARS)) + text[i:]
        elif text:
            i = min(i, len(text) - 1)
            new = draw(st.sampled_from(EDIT_CHARS)) if edit == "replace" else ""
            text = text[:i] + new + text[i + 1 :]
    return text


# Edits to the lines of a text: CRLF line ends, a tab, a line split in two,
# a double space, a leading or trailing space, a blank line and a `#` comment.
LINE_EDITS = (
    lambda ln: ln + "\r",
    lambda ln: ln.replace(" ", "\t", 1),
    lambda ln: ln.replace(" ", "\n", 1),
    lambda ln: ln.replace(" ", "  ", 1),
    lambda ln: " " + ln,
    lambda ln: ln + " ",
    lambda ln: "\n" + ln,
    lambda ln: "# a comment\n" + ln,
)


@st.composite
def edge_list_texts(draw):
    """Plain edge lists, some with out-of-range endpoints, self-loops,
    duplicates in either orientation or a wrong edge count, and some edited
    by TOKEN_EDITS and LINE_EDITS, or with no final newline, or empty."""
    n = draw(st.integers(min_value=0, max_value=8))
    vertex = st.integers(min_value=0, max_value=n + 1)
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=10))
    if edges and draw(st.booleans()):  # repeat an edge, maybe reversed
        u, v = draw(st.sampled_from(edges))
        edges.insert(draw(st.integers(0, len(edges))), draw(st.sampled_from([(u, v), (v, u)])))
    m = len(edges) + draw(st.sampled_from([0, 0, 0, -1, 1]))
    rows = [[str(n), str(m)]] + [[str(u), str(v)] for u, v in edges]
    for _ in range(draw(st.integers(0, 2))):
        row = draw(st.sampled_from(rows))
        i = draw(st.integers(0, 1))
        row[i] = draw(st.sampled_from(TOKEN_EDITS))(row[i])
    lines = [" ".join(row) for row in rows]
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(lines) - 1))
        lines[i] = draw(st.sampled_from(LINE_EDITS))(lines[i])
    text = "\n".join(lines) + draw(st.sampled_from(["\n", "\n", ""]))
    return draw(st.sampled_from([text] * 9 + [""]))


def line_loop_forbidden(text):
    raise AssertionError("a plain text reached the line loop")


class TestBulkParse:
    """read_edgelist against the line loop and per-edge construction it
    replaced: the same graph, down to each adjacency set's table, or the
    same GraphError message."""

    @staticmethod
    def assert_same(text):
        got, want = outcome(read_edgelist, text), outcome(read_edgelist_reference, text)
        if isinstance(want, Graph):
            assert isinstance(got, Graph) and graph_layout(got) == graph_layout(want)
        else:
            assert got == want

    @settings(max_examples=1000)
    @given(edge_list_texts())
    def test_matches_line_loop(self, text):
        self.assert_same(text)

    @settings(max_examples=1000)
    @given(edited_edge_lists())
    def test_matches_line_loop_on_small_edits(self, text):
        self.assert_same(text)

    @pytest.mark.parametrize(
        "text",
        ["", "\n", "0 0", "0 0\n", "2 1\n0 1", "2 1\n0 1\n\n", "3 1\n0 1\n1 2\n", "3 2\n0 1\n1 0\n",
         "3 2\n0 1\n2 2\n", "2 1\n0 2\n", f"{MAX_VERTICES + 1} 0\n", "1 2\n", "2 1\n" + "0" * 700 + "1 0\n"],
    )
    def test_matches_line_loop_on_edge_cases(self, text):
        self.assert_same(text)

    @pytest.mark.parametrize("name", ["sparse_gnp", "grid_bipartite", "dense_batch"])
    def test_benchmark_inputs_take_bulk_path(self, name, monkeypatch):
        monkeypatch.setattr(graph_io, "_read_lines", line_loop_forbidden)
        for text, _ in load_workloads().build(name, 0):
            self.assert_same(text)

    @given(graphs(max_n=12))
    def test_format_edgelist_takes_bulk_path(self, g):
        with mock.patch.object(graph_io, "_read_lines", line_loop_forbidden):
            assert graph_layout(read_edgelist(format_edgelist(g))) == graph_layout(g)

    @pytest.mark.slow
    def test_matches_line_loop_at_scale(self, monkeypatch):
        text = format_edgelist(sparse_gnp(10**5, 6 / 10**5))
        monkeypatch.setattr(graph_io, "_read_lines", line_loop_forbidden)
        self.assert_same(text)

    def test_long_digit_run_rejected_in_linear_time(self):
        # an unanchored search for plain lines would try the run from each of
        # its digits: seconds at this length, against milliseconds
        text = "1" * 10**6 + "\n"
        start = time.perf_counter()
        with pytest.raises(GraphError, match="bad header"):
            read_edgelist(text)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize(
        "text",
        ["02 1\n0 1\n", "2 01\n0 1\n", "2 1\n00 1\n", "2 1\n0 \n", "2 1\n 1\n", " 1\n", "2 1\n0 " + "1" * 4400 + "\n"],
        ids=["zero-led-n", "zero-led-m", "zero-led-end", "empty-end", "empty-start", "empty-n", "past-limit"],
    )
    def test_texts_json_rejects_reach_the_line_loop(self, text, monkeypatch):
        calls = []
        read_lines = graph_io._read_lines
        monkeypatch.setattr(graph_io, "_read_lines", lambda t: calls.append(t) or read_lines(t))
        self.assert_same(text)
        assert calls == [text]

    def test_tokens_at_the_lowest_digit_limit(self, monkeypatch):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)  # the lowest limit it accepts, bar 0 for none
        try:
            long_end = "2 1\n0 " + "1" * 640 + "\n"  # read in bulk, then out of range
            with monkeypatch.context() as patch:
                patch.setattr(graph_io, "_read_lines", line_loop_forbidden)
                assert outcome(read_edgelist, long_end)[1].endswith(" out of range for n=2")
                self.assert_same(long_end)
            self.assert_same("2 1\n0 " + "1" * 641 + "\n")  # past the limit: the line loop's error
        finally:
            sys.set_int_max_str_digits(limit)

    def test_edgeless_vertices_share_one_empty_set(self):
        g = read_edgelist("1000 1\n0 1\n")
        assert len({id(g.neighbors(v)) for v in range(2, g.n)}) == 1
        assert g.neighbors(2) == ()
        assert Graph(3).neighbors(0) is g.neighbors(2)


class TestDimacs:
    def test_round_trip(self):
        g = Graph(4, [(0, 1), (2, 3)])
        assert read_dimacs(format_dimacs(g)) == g

    def test_one_based(self):
        g = read_dimacs("c comment\np edge 3 2\ne 1 2\ne 2 3\n")
        assert g.edges() == [(0, 1), (1, 2)]

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "e 1 2\n",
            "p edge 3 2\ne 1 2\n",
            "p edge 3\n",
            "p edge 2 1\nq 1 2\n",
            "p edge 3 1\ne 1 2\np edge 5 1\n",
        ],
    )
    def test_malformed(self, text):
        with pytest.raises(GraphError):
            read_dimacs(text)

    @given(graphs(max_n=12))
    def test_round_trip_property(self, g):
        assert read_dimacs(format_dimacs(g)) == g

    @pytest.mark.parametrize(
        "text, message",
        [
            ("p edge 3 1\ne 1 4\n", "edge line 'e 1 4' out of range for n=3"),
            ("p edge 3 1\ne 0 1\n", "edge line 'e 0 1' out of range for n=3"),
            # the first such line, as the file has it, comments and blank lines between
            ("p edge 3 3\ne 1 2\nc x\n\n  e  2\t9 \ne -1 3\n", "edge line 'e  2\\t9' out of range for n=3"),
            ("p edge 3 1\ne 2 2\n", "edge line 'e 2 2' is a self-loop"),
            ("p edge 3 2\ne 1 2\ne 1 2\n", "edge line 'e 1 2' repeats an earlier edge"),
            ("p edge 3 2\ne 1 2\ne 2 1\n", "edge line 'e 2 1' repeats an earlier edge"),
            # the first bad line in file order, whatever is wrong with it
            ("p edge 3 2\ne 2 2\ne 1 4\n", "edge line 'e 2 2' is a self-loop"),
            ("p edge 3 3\ne 1 2\ne 2 1\ne 1 4\n", "edge line 'e 2 1' repeats an earlier edge"),
            ("p edge 3 3\ne 1 2\ne 1 4\ne 2 1\n", "edge line 'e 1 4' out of range for n=3"),
            ("p edge 3 3\ne 1 2\ne  3   3\ne 2 1\n", "edge line 'e  3   3' is a self-loop"),
            # the vertex count is refused before any edge
            ("p edge -1 1\ne 1 2\n", "vertex count must be nonnegative"),
        ],
        ids=["past-n", "zero", "first-as-written", "loop", "repeat", "reversed-repeat", "loop-first",
             "repeat-first", "range-first", "loop-as-written", "negative-count"],
    )
    def test_bad_edge_names_its_line(self, text, message):
        with pytest.raises(GraphError) as exc:
            read_dimacs(text)
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "text, message",
        [
            ("p edge 30 1\ne 1 1_0\n", "bad edge line: 'e 1 1_0'"),
            ("p edge 3 1\ne 1 \u0662\n", "bad edge line: 'e 1 \u0662'"),
            ("p edge 3 1\ne \uff11 3\n", "bad edge line: 'e \uff11 3'"),
            ("p edge 3_0 1\ne 1 2\n", "bad problem line: 'p edge 3_0 1'"),
            ("p edge \uff13 1\ne 1 2\n", "bad problem line: 'p edge \uff13 1'"),
            ("p edge 30 1\ne  1   1_0 \n", "bad edge line: 'e  1   1_0'"),
        ],
        ids=["underscore", "arabic-indic-digit", "full-width-digit", "underscore-n", "full-width-n", "as-written"],
    )
    def test_only_ascii_decimal_integers(self, text, message):
        with pytest.raises(GraphError) as exc:
            read_dimacs(text)
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "text, message",
        [
            ("p edge 3\n", "bad problem line: 'p edge 3'"),
            ("p edge 3 1 2\ne 1 2\n", "bad problem line: 'p edge 3 1 2'"),
            ("p cnf 3 1\ne 1 2\n", "bad problem line: 'p cnf 3 1'"),
            ("p edge 3 1\ne\t1\n", "bad edge line: 'e\\t1'"),
            ("p edge 3 1\ne 1 2 3\n", "bad edge line: 'e 1 2 3'"),
        ],
        ids=["short-problem", "long-problem", "not-edge", "short-edge-tab", "long-edge"],
    )
    def test_wrong_token_count_quotes_the_line(self, text, message):
        # worded as a bad number on the same line is
        with pytest.raises(GraphError) as exc:
            read_dimacs(text)
        assert str(exc.value) == message


class TestGenerators:
    def test_cycle(self):
        g = gen.cycle(5)
        assert g.n == 5 and g.m == 5
        assert all(g.degree(v) == 2 for v in range(5))

    def test_cycle_too_small(self):
        with pytest.raises(GraphError):
            gen.cycle(2)

    def test_complete(self):
        g = gen.complete(5)
        assert g.m == 10

    def test_grid(self):
        g = gen.grid(2, 3)
        assert g.n == 6 and g.m == 7

    def test_gnp_deterministic(self):
        assert gen.gnp(30, 0.2, seed=7) == gen.gnp(30, 0.2, seed=7)
        assert gen.gnp(30, 0.2, seed=7) != gen.gnp(30, 0.2, seed=8)

    def test_connected_gnp(self):
        for seed in range(5):
            assert len(connected_components(gen.connected_gnp(25, 0.05, seed=seed))) == 1

    def test_random_bipartite_deterministic(self):
        assert gen.random_bipartite(20, 0.3, seed=3) == gen.random_bipartite(20, 0.3, seed=3)

    def test_connected_bipartite(self):
        for seed in range(5):
            g = gen.connected_bipartite(18, 0.25, seed=seed)
            assert len(connected_components(g)) == 1
            assert not isinstance(bipartition_or_odd_cycle(g, range(g.n)), OddClosedWalk)

    def test_petersen(self):
        g = gen.petersen()
        assert g.n == 10 and g.m == 15
        assert all(g.degree(v) == 3 for v in range(10))
        assert len(connected_components(g)) == 1

    def test_chain_components(self):
        g = Graph(4, [(0, 1), (2, 3)])
        assert len(connected_components(gen.chain_components(g))) == 1
        assert gen.chain_components(g).has_edge(0, 2)
