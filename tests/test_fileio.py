import json

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from hatkit.constructions import build_circulant, build_wreath
from hatkit.errors import BadPermutationError, ParseError
from hatkit.fileio import (
    bundle_from_json,
    bundle_to_json,
    format_edgelist,
    graph6_decode,
    parse_edgelist,
    sparse6_decode,
    to_dot,
)
from hatkit.graphcore import Graph, build_graph


def random_graph(draw_edges, n):
    return build_graph(n, draw_edges)


def to_nx(g):
    nxg = nx.Graph()
    nxg.add_nodes_from(range(g.n))
    nxg.add_edges_from(g.edges)
    return nxg


def graph6(g):
    """The graph6 string networkx writes for ``g``."""
    return nx.to_graph6_bytes(to_nx(g), header=False).decode().strip()


edge_lists = st.integers(2, 12).flatmap(
    lambda n: st.sets(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
            lambda e: e[0] < e[1])).map(
        lambda es: build_graph(n, sorted(es))))


class TestEdgeList:
    def test_round_trip(self):
        g = build_circulant(9, {1, -1, 2, -2})
        assert parse_edgelist(format_edgelist(g)).edges == g.edges

    def test_bad_header(self):
        with pytest.raises(ParseError):
            parse_edgelist("hello world\n")

    def test_count_mismatch(self):
        with pytest.raises(ParseError):
            parse_edgelist("3 2\n0 1\n")

    def test_comments_ignored(self):
        g = parse_edgelist("# a path\n3 2\n0 1\n1 2\n")
        assert g.edges == ((0, 1), (1, 2))

    def test_bad_edge_line_after_comments_and_blanks(self):
        """A bad edge line is named with its text and its number among the
        lines that are neither blank nor comments."""
        with pytest.raises(ParseError) as info:
            parse_edgelist("# a path\n\n3 2\n# edges\n0 1\n\n 1  x \n")
        assert info.value.line == 3
        assert str(info.value) == "line 3: bad edge line '1  x'"


class TestGraph6:
    @given(edge_lists)
    @settings(max_examples=60, deadline=None)
    def test_round_trip(self, g):
        assert graph6_decode(graph6(g)).edges == g.edges

    @given(edge_lists)
    @settings(max_examples=40, deadline=None)
    def test_decoding_networkx_output(self, g):
        s = nx.to_graph6_bytes(to_nx(g), header=False).decode().strip()
        assert graph6_decode(s).edges == g.edges

    def test_header_stripped(self):
        g = build_graph(3, [(0, 1), (1, 2)])
        assert graph6_decode(">>graph6<<" + graph6(g)).edges == g.edges

    def test_large_size_prefix(self):
        g = build_graph(100, [(i, i + 1) for i in range(99)])
        s = graph6(g)
        assert s[0] == chr(126)
        assert graph6_decode(s).n == 100

    def test_truncated(self):
        with pytest.raises(ParseError):
            graph6_decode("G")  # claims 8 vertices, no body

    @pytest.mark.parametrize("byte", [32, 62, 127])
    def test_invalid_byte_named(self, byte):
        s = graph6(build_wreath(4))
        with pytest.raises(ParseError) as exc:
            graph6_decode(s[:3] + chr(byte) + s[4:])
        assert str(exc.value) == f"invalid graph6 byte {byte}"


class TestSparse6:
    @given(edge_lists)
    @settings(max_examples=40, deadline=None)
    def test_decoding_networkx_output(self, g):
        s = nx.to_sparse6_bytes(to_nx(g), header=False).decode().strip()
        assert sparse6_decode(s).edges == g.edges

    def test_prefix_required(self):
        with pytest.raises(ParseError):
            sparse6_decode("Bw")

    @pytest.mark.parametrize("byte", [32, 62, 127])
    def test_invalid_byte_named(self, byte):
        g = build_wreath(4)
        s = nx.to_sparse6_bytes(to_nx(g), header=False).decode().strip()
        bad = s[:3] + chr(byte) + s[4:]
        for decode in (sparse6_decode, graph6_decode):
            with pytest.raises(ParseError) as exc:
                decode(bad)
            assert str(exc.value) == f"invalid sparse6 byte {byte}"

    def test_dispatch_from_graph6_decode(self):
        g = build_wreath(4)
        s = nx.to_sparse6_bytes(to_nx(g), header=False).decode().strip()
        assert graph6_decode(s).edges == g.edges


class TestBundles:
    def test_round_trip_with_group(self):
        from hatkit.constructions import wreath_hat_group
        g = build_wreath(4)
        grp = wreath_hat_group(4)
        text = bundle_to_json(g, grp, {"family": "wreath", "n": 4})
        g2, grp2, params = bundle_from_json(text)
        assert g2.edges == g.edges
        assert grp2.generators == grp.generators
        assert params == {"family": "wreath", "n": 4}

    def test_graph_only(self):
        g = build_circulant(7, {1, -1, 2, -2})
        g2, grp2, params = bundle_from_json(bundle_to_json(g))
        assert g2.edges == g.edges and grp2 is None and params == {}

    def test_bad_json(self):
        with pytest.raises(ParseError):
            bundle_from_json("{not json")

    def test_missing_fields(self):
        with pytest.raises(ParseError):
            bundle_from_json(json.dumps({"edges": []}))

    @pytest.mark.parametrize("doc, error", [
        ({"n": "x", "edges": []}, ParseError),
        ({"n": 4, "edges": 5}, ParseError),
        ({"n": 4, "edges": [], "generators": 7}, ParseError),
        ({"n": 3, "edges": [], "generators": [[0, "a", 2]]},
         BadPermutationError),
    ])
    def test_wrong_types(self, doc, error):
        with pytest.raises(error):
            bundle_from_json(json.dumps(doc))

    @pytest.mark.parametrize("edges", [
        [[0, 1], [1, True]], [[0, 1.0]], [[0, 1, 2]], [[0, 1], 5]],
        ids=["bool", "float", "triple", "not-a-list"])
    def test_bad_edge_message(self, edges):
        with pytest.raises(ParseError, match=r"^bundle 'n' must be an integer "
                           r"and 'edges' a list of integer pairs$"):
            bundle_from_json(json.dumps({"n": 3, "edges": edges}))

    def test_first_bad_generator_named(self):
        doc = {"n": 3, "edges": [[0, 1]],
               "generators": [[0, 1, 2], [0, True, 2], [1.5, 0, 2]]}
        with pytest.raises(BadPermutationError, match=r"^generator \[0, True, "
                           r"2\] is not a list of integers$"):
            bundle_from_json(json.dumps(doc))

    def test_degree_mismatch(self):
        doc = {"n": 4, "edges": [[0, 1]], "generators": [[1, 0]]}
        with pytest.raises(BadPermutationError):
            bundle_from_json(json.dumps(doc))


class TestDot:
    def test_contains_all_edges(self):
        g = build_graph(3, [(0, 1), (1, 2)])
        dot = to_dot(g)
        assert "0 -- 1;" in dot and "1 -- 2;" in dot
