"""Exact walk tables, vertex classes, and the walk-regularity decision."""

import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings

from conftest import (
    bigint_closed_walk_table,
    brute_force_closed_walks,
    complete_graph,
    cycle_graph,
    graphs,
    path_graph,
    petersen_graph,
    random_connected_graph,
    star_graph,
    zero_plus_sign,
)
import walkentropy.walks as walks
from walkentropy.graphs import Graph, hm_graph
from walkentropy.walks import (
    ExactWalkTable,
    _certified_length,
    _decide,
    _moduli,
    _verdict,
    closed_walk_table,
    is_walk_regular,
)


class TestClosedWalkTable:
    def test_triangle_length_three(self):
        # brute-force enumeration gives 2 closed 3-walks per vertex (the two
        # orientations of the triangle)
        g = complete_graph(3)
        table = closed_walk_table(g, 3)
        assert [row[3] for row in table.diag] == [2, 2, 2]
        assert [brute_force_closed_walks(g, i, 3) for i in range(3)] == [2, 2, 2]

    def test_matches_brute_force_on_random_graphs(self):
        rng = random.Random(7)
        for _ in range(15):
            g = random_connected_graph(rng, rng.randint(2, 6))
            table = closed_walk_table(g, 5)
            for i in range(g.n):
                for length in range(6):
                    assert table.diag[i][length] == brute_force_closed_walks(
                        g, i, length
                    )

    def test_low_order_columns(self, corpus):
        for g in corpus[:40]:
            table = closed_walk_table(g, 2)
            deg = g.degrees()
            for i in range(g.n):
                assert table.diag[i][0] == 1
                assert table.diag[i][1] == 0
                assert table.diag[i][2] == deg[i]
                assert all(c >= 0 for c in table.diag[i])

    def test_h4_second_moments(self):
        table = closed_walk_table(hm_graph(4), 2)
        assert table.diag[0][2] == 5
        assert table.diag[4][2] == 4

    def test_length_one_all_zero(self):
        for g in (complete_graph(4), star_graph(3), petersen_graph()):
            table = closed_walk_table(g, 1)
            assert all(row[1] == 0 for row in table.diag)

    def test_trace(self):
        table = closed_walk_table(complete_graph(3), 3)
        assert sum(row[2] for row in table.diag) == 6
        assert sum(row[3] for row in table.diag) == 6

    def test_rejects_nonpositive_horizon(self):
        with pytest.raises(ValueError):
            closed_walk_table(complete_graph(3), 0)

    def test_entries_exceed_machine_integers(self):
        # 40-walk counts on K8 overflow 64-bit arithmetic; exactness must hold
        table = closed_walk_table(complete_graph(8), 40)
        assert table.diag[0][40] > 2**63
        # closed walks on K_n: ((n-1)^l + (n-1)*(-1)^l) / n
        assert table.diag[0][40] == (7**40 + 7) // 8


class TestAgainstBigintOracle:
    """The multi-modular table against the big-integer neighbor-sum loop."""

    @settings(max_examples=60, deadline=None)
    @given(graphs())
    def test_random_graphs(self, g):
        for L in sorted({1, max(1, g.n - 1), 2 * g.n + 5}):
            assert closed_walk_table(g, L).diag == bigint_closed_walk_table(g, L)

    @pytest.mark.parametrize(
        "g, L",
        [
            (Graph(5, frozenset()), 4),
            (Graph(1, frozenset()), 3),
            (complete_graph(40), 120),
            (star_graph(60), 150),
            (cycle_graph(50), 300),
        ]
        + [(hm_graph(m), m * m + 2 * m - 1) for m in range(3, 11)],
        ids=["edgeless", "n=1", "K40", "star60", "C50"]
        + [f"HM({m})" for m in range(3, 11)],
    )
    def test_edge_cases(self, g, L):
        diag = closed_walk_table(g, L).diag
        assert diag == bigint_closed_walk_table(g, L)
        assert all(type(c) is int for row in diag for c in row)

    def test_counts_beyond_int64_are_python_ints(self):
        row = closed_walk_table(complete_graph(40), 120).diag[0]
        assert all(type(c) is int for c in row)  # not numpy integers
        assert sum(c > 2**63 for c in row) > 100

    @pytest.mark.parametrize(
        "max_degree, L",
        [(0, 1), (1, 300), (2, 300), (10, 98), (39, 120), (60, 150), (1000, 50)],
    )
    def test_moduli_invariants(self, max_degree, L):
        delta = max(max_degree, 1)
        moduli = _moduli(max_degree, delta**L)
        assert all(math.gcd(a, b) == 1 for a, b in itertools.combinations(moduli, 2))
        assert math.prod(moduli) > delta**L
        assert all(m * delta < 2**52 for m in moduli)


def full_length_verdict(g):
    """The verdict from the table to length n - 1, which d <= n always justifies."""
    return _verdict(closed_walk_table(g, max(1, g.n - 1)))


class TestCertifiedLength:
    """The table stops at deg q - 1 only once q(A) = 0 is checked exactly."""

    @settings(max_examples=60, deadline=None)
    @given(graphs())
    def test_verdict_matches_bigint_full_length(self, g):
        full = max(1, g.n - 1)
        oracle = _verdict(ExactWalkTable(full, bigint_closed_walk_table(g, full)))
        assert is_walk_regular(g) == oracle
        assert 1 <= _certified_length(g) <= full

    @pytest.mark.parametrize(
        "g, L",
        [(hm_graph(m), 5) for m in range(3, 13)]
        + [
            (petersen_graph(), 2),
            (complete_graph(6), 1),
            (Graph(5, frozenset()), 1),
            (Graph(1, frozenset()), 1),
            (cycle_graph(7), 6),
            (star_graph(3), 3),
        ],
        ids=[f"HM({m})" for m in range(3, 13)]
        + ["Petersen", "K6", "edgeless", "n=1", "C7", "star3"],
    )
    def test_pinned_lengths(self, g, L):
        assert _certified_length(g) == L
        assert is_walk_regular(g) == full_length_verdict(g)


FALLBACK_GRAPHS = [hm_graph(4), hm_graph(6), petersen_graph(), complete_graph(6)]
FALLBACK_IDS = ["HM(4)", "HM(6)", "Petersen", "K6"]


class TestCertificateFallback:
    """A wrong float proposal costs the n - 1 table, never the verdict."""

    @pytest.mark.parametrize("g", FALLBACK_GRAPHS, ids=FALLBACK_IDS)
    def test_dropped_eigenvalue(self, monkeypatch, g):
        real = walks._cluster_means
        monkeypatch.setattr(walks, "_cluster_means", lambda lam, starts: real(lam, starts)[:-1])
        assert _certified_length(g) == g.n - 1
        assert is_walk_regular(g) == full_length_verdict(g)

    @pytest.mark.parametrize("g", FALLBACK_GRAPHS, ids=FALLBACK_IDS)
    def test_shifted_coefficient(self, monkeypatch, g):
        real = np.poly
        kappa = len(walks._cluster_starts(np.linalg.eigvalsh(g.adjacency_matrix())[::-1]))
        for j in range(1, kappa + 1):
            shift = np.zeros(kappa + 1)
            shift[j] = 1.0
            monkeypatch.setattr(np, "poly", lambda v, _s=shift: real(v) + _s)
            assert _certified_length(g) == g.n - 1
            assert is_walk_regular(g) == full_length_verdict(g)

    @pytest.mark.parametrize("g", FALLBACK_GRAPHS, ids=FALLBACK_IDS)
    def test_eigensolver_failure(self, monkeypatch, g):
        expected = is_walk_regular(g)
        lengths = []
        real = walks.closed_walk_table

        def no_convergence(a):
            raise np.linalg.LinAlgError("no convergence")

        def recorded(graph, L):
            lengths.append(L)
            return real(graph, L)

        monkeypatch.setattr(np.linalg, "eigvalsh", no_convergence)
        monkeypatch.setattr(walks, "closed_walk_table", recorded)
        assert _certified_length(g) == g.n - 1
        assert is_walk_regular(g) == expected
        assert lengths == [g.n - 1]  # 23 for HM(4)

    def test_huge_coefficient_skips_the_check(self, monkeypatch):
        g = hm_graph(4)
        real = np.poly

        def huge(v):
            q = real(v)
            q[-1] = 2.0**52
            return q

        def no_check(*args):
            pytest.fail("q(A) was checked despite a coefficient >= 2^52")

        monkeypatch.setattr(np, "poly", huge)
        monkeypatch.setattr(walks, "_horner_residues", no_check)
        assert _certified_length(g) == g.n - 1


class TestVerdicts:
    def test_complete_graph_walk_regular(self):
        v = is_walk_regular(complete_graph(4))
        assert v.is_walk_regular
        assert v.witness is None
        assert v.classes == ((0, 1, 2, 3),)

    def test_h4_witness_at_length_two(self):
        v = is_walk_regular(hm_graph(4))
        assert not v.is_walk_regular
        assert v.witness == (2, 0, 4, 5, 4)

    def test_star_witness_counts_are_degrees(self):
        v = is_walk_regular(star_graph(3))
        assert not v.is_walk_regular
        assert v.witness == (2, 0, 1, 3, 1)

    def test_single_vertex(self):
        v = is_walk_regular(Graph(1, frozenset()))
        assert v.is_walk_regular
        assert v.classes == ((0,),)

    def test_edgeless_graph_walk_regular(self):
        assert is_walk_regular(Graph(3, frozenset())).is_walk_regular

    def test_as_dict(self):
        d = is_walk_regular(hm_graph(4)).as_dict()
        assert d["walk_regular"] is False
        assert d["witness"] == {"length": 2, "u": 0, "v": 4, "count_u": 5, "count_v": 4}
        assert d["classes"][0] == [0, 1, 2, 3]


class TestVertexClasses:
    def test_h4_two_classes(self):
        assert is_walk_regular(hm_graph(4)).classes == (
            tuple(range(4)),
            tuple(range(4, 24)),
        )

    def test_complete_graph_single_class(self):
        for n in (2, 5, 8):
            assert is_walk_regular(complete_graph(n)).classes == (tuple(range(n)),)

    def test_path_center_vs_leaves(self):
        assert is_walk_regular(path_graph(3)).classes == ((0, 2), (1,))

    def test_single_class_iff_walk_regular(self, corpus):
        for g in corpus:
            v = is_walk_regular(g)
            assert v.is_walk_regular == (len(v.classes) == 1)

    def test_walk_regular_implies_degree_regular(self, corpus):
        graphs = list(corpus) + [petersen_graph(), complete_graph(6)]
        for g in graphs:
            if is_walk_regular(g).is_walk_regular:
                assert len(set(g.degrees())) <= 1

    def test_partition_refinement_is_monotone(self, corpus):
        # grouping on profiles up to l+1 must refine the grouping up to l
        for g in corpus[:30]:
            table = closed_walk_table(g, max(1, g.n - 1))
            previous = None
            for length in range(table.L + 1):
                groups: dict[tuple, list[int]] = {}
                for i in range(g.n):
                    groups.setdefault(table.diag[i][: length + 1], []).append(i)
                cells = {frozenset(m) for m in groups.values()}
                if previous is not None:
                    for cell in cells:
                        assert any(cell <= old for old in previous)
                previous = cells

    def test_classes_ordered_by_representative(self):
        classes = is_walk_regular(star_graph(3)).classes
        assert [c[0] for c in classes] == sorted(c[0] for c in classes)


class TestZeroPlusOrder:
    """``_decide`` returns the representatives in their beta -> 0+ order."""

    @staticmethod
    def check(g):
        verdict, ordered = _decide(g)
        assert verdict == is_walk_regular(g)
        assert sorted(ordered) == [c[0] for c in verdict.classes]
        profiles = bigint_closed_walk_table(g, g.n - 1)
        for lo, hi in itertools.combinations(ordered, 2):
            assert zero_plus_sign(profiles, hi, lo) == 1

    def test_corpus(self, corpus):
        for g in corpus:
            self.check(g)

    @settings(max_examples=60, deadline=None)
    @given(graphs())
    def test_random_graphs(self, g):
        self.check(g)
