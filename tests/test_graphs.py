"""Graph construction, edge-list I/O, and the hub-matching family."""

import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import complete_graph, cycle_graph, petersen_graph, star_graph
from walkentropy import verify_counterexample
from walkentropy.graphs import (
    EdgeListError,
    Graph,
    hm_graph,
    parse_edge_list,
    serialize_edge_list,
)

#: int()'s limit on decimal digits; 0 means none (and before Python 3.10.7
#: there was none)
INT_MAX_STR_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()


class TestGraph:
    def test_edges_are_normalized(self):
        g = Graph(3, frozenset({(1, 0), (0, 1), (2, 1)}))
        assert g.edges == frozenset({(0, 1), (1, 2)})
        assert g.num_edges == 2

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph(3, frozenset({(1, 1)}))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            Graph(2, frozenset({(0, 2)}))

    @pytest.mark.parametrize("pair", [(0, 1.9), ("1", "2"), (0, None)])
    def test_non_integer_endpoint_rejected(self, pair):
        # int() would accept each of these, truncating 1.9 and parsing "1"
        with pytest.raises(ValueError, match="non-integer endpoint") as info:
            Graph(3, frozenset({pair}))
        assert repr(pair) in str(info.value)

    def test_numpy_integer_endpoints_accepted(self):
        g = Graph(3, frozenset({(np.int64(2), np.int32(0))}))
        assert g.edges == frozenset({(0, 2)})
        assert all(type(x) is int for e in g.edges for x in e)

    def test_vertex_count_must_be_positive(self):
        with pytest.raises(ValueError):
            Graph(0, frozenset())

    def test_numpy_integer_vertex_count_accepted(self):
        g = Graph(np.int64(3), frozenset({(0, 2)}))
        assert type(g.n) is int
        assert g == Graph(3, frozenset({(0, 2)}))

    @pytest.mark.parametrize("n", [True, False, 3.0, "3"])
    def test_vertex_count_must_be_an_integer(self, n):
        with pytest.raises(ValueError, match="vertex count must be a positive integer"):
            Graph(n, frozenset())

    def test_adjacency_matrix_symmetric_zero_diagonal(self):
        g = Graph(4, frozenset({(0, 1), (1, 2), (2, 3), (0, 3)}))
        a = g.adjacency_matrix()
        assert np.array_equal(a, a.T)
        assert np.all(np.diag(a) == 0)
        assert a.sum() == 2 * g.num_edges

    @pytest.mark.parametrize(
        "n, digits",
        [(10**8 + 1, 9), (int("1" * 4000) + 1, 4000), (10**5000 - 1, 5000)],
        ids=["71-PiB", "past-numpy-dimension-limit", "past-int-str-limit"],
    )
    def test_adjacency_matrix_too_large_is_a_memory_error(self, n, digits):
        # the last n has more digits than str() converts by default
        g = Graph(n, frozenset({(0, n - 1)}))
        message = f"^adjacency matrix for a vertex count with {digits} digits is too large$"
        with pytest.raises(MemoryError, match=message):
            g.adjacency_matrix()

    def test_adjacency_matrix_built_once_and_read_only(self):
        g = hm_graph(3)
        a = g.adjacency_matrix()
        assert g.adjacency_matrix() is a
        assert not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a[0, 3] = 0.0
        assert a[0, 3] == 1.0


class TestParseEdgeList:
    def test_triangle(self):
        g = parse_edge_list("0 1\n1 2\n0 2")
        assert g == complete_graph(3)

    def test_header_declares_isolated_vertices(self):
        g = parse_edge_list("n 2\n")
        assert g.n == 2
        assert g.num_edges == 0

    def test_self_loop_reports_line_number(self):
        with pytest.raises(EdgeListError, match="line 1: self-loop"):
            parse_edge_list("0 0")
        with pytest.raises(EdgeListError, match="line 3"):
            parse_edge_list("# comment\n0 1\n2 2\n")

    def test_non_integer_token(self):
        with pytest.raises(EdgeListError, match="non-integer"):
            parse_edge_list("0 x")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("0 1_0\n", "line 1: non-integer vertex id in '0 1_0'"),
            ("0 1\n0 \u0661\n", "line 2: non-integer vertex id in '0 \u0661'"),
            ("0 \uff11\n", "line 1: non-integer vertex id"),
            ("n 1_2\n0 1\n", "line 1: non-integer vertex count '1_2'"),
            ("n \u0663\n", "line 1: non-integer vertex count"),
        ],
        ids=["underscore", "arabic-indic", "fullwidth", "header-underscore", "header-digit"],
    )
    def test_only_ascii_digits_are_integers(self, text, message):
        # int() accepts each of these tokens
        with pytest.raises(EdgeListError, match=message):
            parse_edge_list(text)

    @pytest.mark.skipif(not INT_MAX_STR_DIGITS, reason="int() has no digit limit")
    @pytest.mark.parametrize(
        "template, message",
        [
            ("0 {}\n", "line 1: vertex id with {} digits is out of range"),
            ("n {}\n", "line 1: vertex count with {} digits is out of range"),
        ],
        ids=["vertex-id", "header"],
    )
    def test_integer_too_long_for_int_is_out_of_range(self, template, message):
        # the message gives the length, not the token
        digits = INT_MAX_STR_DIGITS + 1
        with pytest.raises(EdgeListError) as info:
            parse_edge_list(template.format("9" * digits))
        assert str(info.value) == message.format(digits)

    def test_header_takes_one_count(self):
        with pytest.raises(EdgeListError, match="line 1: expected 'n <count>', got 'n 3 4'"):
            parse_edge_list("n 3 4\n")

    def test_header_count_must_be_positive(self):
        with pytest.raises(EdgeListError, match="line 1: vertex count must be positive"):
            parse_edge_list("n 0\n")

    def test_signed_ascii_tokens_keep_their_meaning(self):
        assert parse_edge_list("n +3\n+0 01\n") == Graph(3, frozenset({(0, 1)}))
        with pytest.raises(EdgeListError, match="line 1: negative vertex id"):
            parse_edge_list("-1 0\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("n 2\n0 2\n", "line 2: vertex 2 out of range for n=2"),
            # the first faulty line is reported, not a later line's fault
            ("n 3\n0 5\n1 1\n", "line 2: vertex 5 out of range for n=3"),
            ("n 3\n0 5\n1 x\n", "line 2: vertex 5 out of range for n=3"),
        ],
        ids=["one-line", "then-self-loop", "then-non-integer"],
    )
    def test_endpoint_beyond_declared_count(self, text, message):
        with pytest.raises(EdgeListError) as info:
            parse_edge_list(text)
        assert str(info.value) == message

    def test_negative_vertex(self):
        with pytest.raises(EdgeListError, match="negative"):
            parse_edge_list("0 -1")

    def test_wrong_token_count(self):
        with pytest.raises(EdgeListError, match="two vertex ids"):
            parse_edge_list("0 1 2")

    def test_empty_input_rejected(self):
        with pytest.raises(EdgeListError, match="empty"):
            parse_edge_list("# nothing here\n")

    def test_duplicate_and_reversed_edges_merge(self):
        g = parse_edge_list("0 1\n1 0\n0 1\n")
        assert g.num_edges == 1

    def test_comments_and_blanks_skipped(self):
        g = parse_edge_list("# triangle\n\n0 1\n# mid\n1 2\n0 2\n")
        assert g.num_edges == 3

    def test_vertex_count_inferred_from_max_id(self):
        assert parse_edge_list("0 5\n").n == 6


@st.composite
def graphs(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    all_pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.sets(st.sampled_from(all_pairs)) if all_pairs else st.just(set()))
    return Graph(n, frozenset(edges))


@settings(max_examples=120, deadline=None)
@given(graphs())
def test_edge_list_round_trip(g):
    assert parse_edge_list(serialize_edge_list(g)) == g


def test_serialization_is_deterministic():
    g = Graph(4, frozenset({(2, 3), (0, 1), (1, 2)}))
    assert serialize_edge_list(g) == "n 4\n0 1\n1 2\n2 3\n"


class TestHmFamily:
    def test_m_zero_rejected(self):
        with pytest.raises(ValueError):
            hm_graph(0)

    def test_m1_is_the_path_on_three_vertices(self):
        # one hub matched into two singleton "cliques": the 3-vertex path
        # with the hub at its center
        assert hm_graph(1) == star_graph(2)
        assert hm_graph(1).edges == frozenset({(0, 1), (0, 2)})

    @pytest.mark.parametrize("m", range(1, 9))
    def test_counts_for_small_m(self, m):
        g = hm_graph(m)
        assert g.n == m * m + 2 * m
        histogram = Counter(g.degrees())
        assert histogram == {m: m * m + m, m + 1: m}
        # edge count recomputed independently from the degree histogram
        assert g.num_edges == sum(d * c for d, c in histogram.items()) // 2
        assert g.num_edges == m * (m + 1) ** 2 // 2

    def test_hub_degree_exceeds_clique_degree_by_one(self):
        g = hm_graph(4)
        deg = g.degrees()
        assert deg[:4] == [5, 5, 5, 5]
        assert set(deg[4:]) == {4}

    def test_h4_adjacency_matches_block_layout(self):
        # hubs first, then the five cliques; each clique matched to the hubs
        # by an identity block
        a_k4 = np.ones((4, 4)) - np.eye(4)
        i4 = np.eye(4)
        z = np.zeros((4, 4))
        rows = [[z, i4, i4, i4, i4, i4]]
        for c in range(5):
            rows.append([i4] + [a_k4 if b == c else z for b in range(5)])
        expected = np.block(rows)
        assert np.array_equal(hm_graph(4).adjacency_matrix(), expected)


class TestDegreeSummary:
    """Per-vertex degrees and the report's degree -> count histogram."""

    def test_triangle(self):
        assert complete_graph(3).degrees() == [2, 2, 2]

    def test_h4_histogram(self):
        histogram = verify_counterexample(hm_graph(4)).degree_histogram
        assert histogram == {4: 20, 5: 4}
        assert list(histogram) == [4, 5]

    def test_edgeless(self):
        g = Graph(2, frozenset())
        assert g.degrees() == [0, 0]
        assert verify_counterexample(g).degree_histogram == {0: 2}

    def test_degree_sum_is_twice_edge_count(self, corpus):
        for g in corpus[:50]:
            assert sum(g.degrees()) == 2 * g.num_edges

    def test_regular_flag(self):
        assert len(verify_counterexample(cycle_graph(5)).degree_histogram) <= 1
        assert len(verify_counterexample(star_graph(3)).degree_histogram) > 1


class TestNamedGraphs:
    def test_petersen_is_cubic(self):
        g = petersen_graph()
        assert g.n == 10
        assert g.num_edges == 15
        assert set(g.degrees()) == {3}

    def test_star_center(self):
        g = star_graph(3)
        assert g.degrees() == [3, 1, 1, 1]

    def test_cycle_too_small(self):
        with pytest.raises(ValueError):
            cycle_graph(2)
