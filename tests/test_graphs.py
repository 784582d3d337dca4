"""Graph construction, edge-list I/O, and the hub-matching family."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import complete_graph, cycle_graph, petersen_graph, star_graph
from walkentropy.graphs import (
    EdgeListError,
    Graph,
    degree_summary,
    hm_graph,
    parse_edge_list,
    serialize_edge_list,
)


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

    def test_adjacency_matrix_symmetric_zero_diagonal(self):
        g = Graph(4, frozenset({(0, 1), (1, 2), (2, 3), (0, 3)}))
        a = g.adjacency_matrix()
        assert np.array_equal(a, a.T)
        assert np.all(np.diag(a) == 0)
        assert a.sum() == 2 * g.num_edges

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

    def test_endpoint_beyond_declared_count(self):
        with pytest.raises(EdgeListError, match="out of range"):
            parse_edge_list("n 2\n0 2\n")

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
        summary = degree_summary(g)
        assert summary.histogram == {m: m * m + m, m + 1: m}
        # edge count recomputed independently from the degree histogram
        assert g.num_edges == sum(d * c for d, c in summary.histogram.items()) // 2
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
    def test_triangle(self):
        assert degree_summary(complete_graph(3)).degrees == (2, 2, 2)

    def test_h4_histogram(self):
        assert degree_summary(hm_graph(4)).histogram == {4: 20, 5: 4}

    def test_edgeless(self):
        s = degree_summary(Graph(2, frozenset()))
        assert s.degrees == (0, 0)
        assert s.histogram == {0: 2}

    def test_degree_sum_is_twice_edge_count(self, corpus):
        for g in corpus[:50]:
            assert sum(degree_summary(g).degrees) == 2 * g.num_edges

    def test_regular_flag(self):
        assert len(degree_summary(cycle_graph(5)).histogram) <= 1
        assert len(degree_summary(star_graph(3)).histogram) > 1


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
