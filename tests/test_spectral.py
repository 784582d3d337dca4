"""Eigendecomposition contract and the two independent centrality routes."""

import math

import numpy as np
import pytest

from conftest import (
    InsufficientTermsError,
    centrality,
    complete_graph,
    grouped_spectrum,
    path_graph,
    taylor_diagonal_oracle,
    taylor_required_terms,
)
from walkentropy.graphs import Graph, hm_graph
from walkentropy.spectral import (
    CentralityOverflowError,
    SpectralDecomposition,
    _centrality_rows,
    eigendecompose,
)
from walkentropy.walks import closed_walk_table

H4_DISTINCT = [
    (3 + math.sqrt(29)) / 2,
    3.0,
    (-1 + math.sqrt(21)) / 2,
    -1.0,
    (3 - math.sqrt(29)) / 2,
    (-1 - math.sqrt(21)) / 2,
]
H4_MULTIPLICITIES = [1, 4, 3, 12, 1, 3]


class TestEigendecompose:
    def test_h4_distinct_eigenvalues_and_multiplicities(self):
        distinct, grouped = grouped_spectrum(eigendecompose(hm_graph(4)))
        assert distinct.shape == (6,)
        np.testing.assert_allclose(distinct, H4_DISTINCT, atol=1e-9)
        # each orthonormal eigenvector contributes 1 to its cluster's column
        # sum, so column sums of the grouped weights are the multiplicities
        np.testing.assert_allclose(grouped.sum(axis=0), H4_MULTIPLICITIES, atol=1e-9)

    def test_k2_uniform_weights(self):
        d = eigendecompose(complete_graph(2))
        np.testing.assert_allclose(d.eigenvalues, [1.0, -1.0], atol=1e-12)
        np.testing.assert_allclose(d.weights, np.full((2, 2), 0.5), atol=1e-12)

    def test_p3_eigenvalues(self):
        d = eigendecompose(path_graph(3))
        np.testing.assert_allclose(
            d.eigenvalues, [math.sqrt(2), 0.0, -math.sqrt(2)], atol=1e-12
        )

    def test_weight_invariants_and_moments(self, corpus):
        for g in corpus[:60]:
            d = eigendecompose(g)
            lam, w = d.eigenvalues, d.weights
            assert np.all(w >= 0.0)
            np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-10)
            np.testing.assert_allclose(w.sum(axis=0), 1.0, atol=1e-10)
            grouped = grouped_spectrum(d)[1]
            np.testing.assert_allclose(grouped.sum(axis=1), 1.0, atol=1e-10)
            assert np.all(grouped >= 0.0)
            # moment consistency: sum_k w[i,k] lam_k^j equals the exact
            # diagonal of A^j for j <= 4
            table = closed_walk_table(g, 4)
            for j in range(5):
                got = w @ lam**j
                want = np.array([float(row[j]) for row in table.diag])
                np.testing.assert_allclose(got, want, rtol=1e-8, atol=1e-8)

    def test_descending_eigenvalue_order(self, corpus):
        for g in corpus[:20]:
            lam = eigendecompose(g).eigenvalues
            assert np.all(np.diff(lam) <= 1e-12)

    def test_single_vertex(self):
        d = eigendecompose(Graph(1, frozenset()))
        assert d.eigenvalues.shape == (1,)
        assert d.weights[0, 0] == pytest.approx(1.0)

    def test_hub_tops_clique_on_leading_eigenvalue(self):
        # the hub carries more Perron-Frobenius weight than a clique vertex
        d = eigendecompose(hm_graph(4))
        assert d.weights[0, 0] > d.weights[4, 0]


class TestCentralityDiagonal:
    def test_beta_zero_is_identity(self, corpus):
        for g in corpus[:20]:
            cd = centrality(eigendecompose(g), 0.0)
            np.testing.assert_allclose(cd.values, 1.0, atol=1e-12)
            assert cd.trace == pytest.approx(g.n, abs=1e-10)

    def test_triangle_closed_form(self):
        # eigenvalues {2, -1, -1} with uniform weights by vertex-transitivity
        cd = centrality(eigendecompose(complete_graph(3)), 1.0)
        expected = (math.exp(2) + 2 * math.exp(-1)) / 3
        np.testing.assert_allclose(cd.values, expected, rtol=1e-12)

    def test_h4_values_at_beta_one(self):
        cd = centrality(eigendecompose(hm_graph(4)), 1.0)
        assert cd.values[0] == pytest.approx(6.481, abs=5e-3)
        assert cd.values[4] == pytest.approx(7.175, abs=5e-3)

    def test_trace_identity(self, corpus):
        for g in corpus[:60]:
            d = eigendecompose(g)
            for beta in (0.1, 1.0, 3.0):
                cd = centrality(d, beta)
                assert cd.values.sum() == pytest.approx(cd.trace, rel=1e-10)

    def test_grouped_representation_matches(self, corpus):
        # f rebuilt from the distinct-eigenvalue form must agree
        for g in corpus[:40]:
            d = eigendecompose(g)
            distinct, weights = grouped_spectrum(d)
            for beta in (0.1, 1.0, 3.0):
                cd = centrality(d, beta)
                grouped = weights @ np.exp(beta * distinct)
                np.testing.assert_allclose(grouped, cd.values, rtol=1e-9)

    def test_values_at_least_one_for_nonnegative_beta(self, corpus):
        for g in corpus[:20]:
            d = eigendecompose(g)
            for beta in (0.0, 0.3, 2.0):
                assert np.all(centrality(d, beta).values >= 1.0 - 1e-12)

    def test_overflow_is_explicit(self):
        d = eigendecompose(hm_graph(4))
        with pytest.raises(CentralityOverflowError, match="beta=200"):
            centrality(d, 200.0)

    def test_overflowing_diagonal_under_a_finite_trace_is_explicit(self):
        # exp(700) ~ 1e304 is finite; the weight 1e5 puts the diagonal past DBL_MAX
        d = SpectralDecomposition(np.array([700.0]), np.array([[1e5]]))
        message = r"^trace of exp\(beta\*A\) overflows double precision at beta=1$"
        with pytest.raises(CentralityOverflowError, match=message):
            _centrality_rows(d, np.array([1.0]))


class TestTaylorOracle:
    def test_agrees_with_spectral_on_h4(self):
        g = hm_graph(4)
        spectral = centrality(eigendecompose(g), 0.5)
        taylor = taylor_diagonal_oracle(g, 0.5)
        np.testing.assert_allclose(taylor.values, spectral.values, rtol=1e-8)

    def test_single_vertex(self):
        cd = taylor_diagonal_oracle(Graph(1, frozenset()), 3.7)
        np.testing.assert_allclose(cd.values, [1.0])

    def test_edgeless(self):
        cd = taylor_diagonal_oracle(Graph(3, frozenset()), 7.0)
        np.testing.assert_allclose(cd.values, [1.0, 1.0, 1.0])
        assert cd.trace == pytest.approx(3.0)

    def test_insufficient_terms_rejected(self):
        with pytest.raises(InsufficientTermsError, match="need at least"):
            taylor_diagonal_oracle(hm_graph(4), 2.0, terms=5)

    def test_required_terms_meets_bound(self):
        for beta, deg in ((0.25, 3), (1.0, 7), (2.0, 11)):
            t = taylor_required_terms(beta, deg)
            x = beta * deg
            assert t * math.log(x) - math.lgamma(t + 1) < math.log(1e-12) + x
            if t > 1:
                prev = (t - 1) * math.log(x) - math.lgamma(t)
                assert prev >= math.log(1e-12) + x

    def test_zero_beta_needs_one_term(self):
        assert taylor_required_terms(0.0, 9) == 1


def test_oracle_equivalence_on_corpus(corpus):
    # dual-route check: eigendecomposition vs exact-walk Taylor sums
    for g in corpus:
        d = eigendecompose(g)
        terms = taylor_required_terms(2.0, max(g.degrees()))
        for beta in (0.25, 1.0, 2.0):
            spectral = centrality(d, beta)
            taylor = taylor_diagonal_oracle(g, beta, terms=terms)
            np.testing.assert_allclose(
                spectral.values, taylor.values, rtol=1e-8, atol=1e-8
            )


def test_walk_table_consistency_with_spectral(corpus):
    # sum_k w[i,k] lam_k^l reproduces the exact diagonal of A^l
    for g in corpus[:40]:
        d = eigendecompose(g)
        table = closed_walk_table(g, 10)
        for length in range(11):
            got = d.weights @ d.eigenvalues**length
            want = np.array([float(row[length]) for row in table.diag])
            np.testing.assert_allclose(got, want, rtol=1e-8, atol=1e-8)
