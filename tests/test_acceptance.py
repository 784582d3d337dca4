"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the lines as the
criteria complete.  Tolerances are pinned here and nowhere else.
"""

import math
import time

import numpy as np
import pytest

from conftest import (
    DEEP_PAIR_TREE,
    TRIANGLE_AND_SQUARE,
    centrality,
    complete_graph,
    cycle_graph,
    grouped_spectrum,
    path_graph,
    petersen_graph,
    star_graph,
    taylor_diagonal_oracle,
    taylor_required_terms,
)
from walkentropy.entropy import walk_entropy
from walkentropy.graphs import hm_graph
from walkentropy.spectral import eigendecompose
from walkentropy.temperature import CROSSING_SPREAD_TOL, find_crossings, verify_counterexample
from walkentropy.walks import closed_walk_table, is_walk_regular

H4_CLOSED_FORM = {
    (3 + math.sqrt(29)) / 2: 1,
    (3 - math.sqrt(29)) / 2: 1,
    3.0: 4,
    (-1 + math.sqrt(21)) / 2: 3,
    (-1 - math.sqrt(21)) / 2: 3,
    -1.0: 12,
}


def _passed(line: str) -> None:
    print(f"PASS  {line}")


def test_criterion_1_h4_spectrum():
    start = time.perf_counter()
    distinct, grouped = grouped_spectrum(eigendecompose(hm_graph(4)))
    expected = sorted(H4_CLOSED_FORM, reverse=True)
    assert distinct.shape == (6,)
    np.testing.assert_allclose(distinct, expected, atol=1e-9)
    multiplicities = grouped.sum(axis=0)
    np.testing.assert_allclose(
        multiplicities, [H4_CLOSED_FORM[x] for x in expected], atol=1e-9
    )
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _passed(
        "criterion 1: HM(4) spectrum matches the six closed forms with "
        f"multiplicities 1,4,3,12,1,3 within 1e-9 ({elapsed:.3f}s)"
    )


def test_criterion_2_endpoint_values_at_beta_one():
    cd = centrality(eigendecompose(hm_graph(4)), 1.0)
    assert cd.values[0] == pytest.approx(6.481, abs=5e-3)
    assert cd.values[4] == pytest.approx(7.175, abs=5e-3)
    _passed(
        "criterion 2: f_hub(1) = 6.481 +/- 5e-3 and f_clique(1) = 7.175 +/- 5e-3"
    )


def test_criterion_3_crossing_temperatures():
    start = time.perf_counter()
    g = hm_graph(4)
    scan = find_crossings(g, beta_max=10.0, grid_step=0.01)
    assert len(scan.crossings) == 2
    low, high = scan.crossings
    assert low.beta_star == pytest.approx(0.499, abs=5e-3)
    assert high.beta_star == pytest.approx(1.912, abs=5e-3)
    for c in scan.crossings:
        assert c.bracket[1] - c.bracket[0] <= 1e-12
        assert walk_entropy(g, c.beta_star).spread <= CROSSING_SPREAD_TOL
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _passed(
        f"criterion 3: exactly two crossings {low.beta_star:.6f}, "
        f"{high.beta_star:.6f}; brackets <= 1e-12; spread <= 1e-8 ({elapsed:.2f}s)"
    )


def test_criterion_4_exact_moments():
    table = closed_walk_table(hm_graph(4), 2)
    assert table.diag[0][2] == 5
    assert table.diag[4][2] == 4
    assert all(row[0] == 1 for row in table.diag)
    assert all(row[1] == 0 for row in table.diag)
    _passed(
        "criterion 4: [A^2] diagonals 5 (hub) and 4 (clique); "
        "[A^0] = 1 and [A^1] = 0 exactly"
    )


def test_criterion_5_walk_regularity_classification():
    for n in range(2, 9):
        assert is_walk_regular(complete_graph(n)).is_walk_regular
    for n in range(3, 11):
        assert is_walk_regular(cycle_graph(n)).is_walk_regular
    assert is_walk_regular(petersen_graph()).is_walk_regular
    for g in (hm_graph(4), star_graph(3), path_graph(3)):
        verdict = is_walk_regular(g)
        assert not verdict.is_walk_regular
        assert verdict.witness.length == 2
    _passed(
        "criterion 5: K_n (n<=8), C_n (n<=10), Petersen walk-regular; "
        "HM(4), K_{1,3}, P_3 refuted with length-2 witnesses (exact)"
    )


def test_criterion_6_oracle_equivalence(corpus):
    assert len(corpus) == 200
    assert all(2 <= g.n <= 12 for g in corpus)
    for g in corpus:
        d = eigendecompose(g)
        assert np.abs(d.weights.sum(axis=1) - 1.0).max() <= 1e-10
        terms = taylor_required_terms(2.0, max(g.degrees()))
        for beta in (0.25, 1.0, 2.0):
            spectral = centrality(d, beta)
            taylor = taylor_diagonal_oracle(g, beta, terms=terms)
            np.testing.assert_allclose(
                spectral.values, taylor.values, rtol=1e-8, atol=1e-8
            )
            assert spectral.values.sum() == pytest.approx(
                spectral.trace, rel=1e-10
            )
    _passed(
        "criterion 6: spectral vs Taylor diagonals within 1e-8, trace "
        "identity within 1e-10, weight rows sum to 1, on 200 random graphs"
    )


def test_criterion_7_entropy_bounds_and_flatness(corpus):
    betas = (0.1, 0.5, 1.0, 2.0, 5.0)
    walk_regular_count = 0
    for g in corpus:
        regular = is_walk_regular(g).is_walk_regular
        walk_regular_count += regular
        for beta in betas:
            report = walk_entropy(g, beta)
            assert 0.0 <= report.entropy <= math.log(g.n) + 1e-12
            assert report.is_maximal == regular
            if regular:
                assert report.entropy == pytest.approx(math.log(g.n), abs=1e-12)
    _passed(
        "criterion 7: 0 <= entropy <= log n on the corpus; all "
        f"{walk_regular_count} walk-regular instances attain log n within 1e-12"
    )


def test_criterion_8_h4_sign_regimes():
    d = eigendecompose(hm_graph(4))

    def diff(beta):
        cd = centrality(d, beta)
        return cd.values[0] - cd.values[4]

    for beta in np.linspace(0.005, 0.49, 40):
        assert diff(beta) > 0.0
    for beta in np.linspace(0.51, 1.90, 40):
        assert diff(beta) < 0.0
    for beta in np.linspace(1.93, 10.0, 40):
        assert diff(beta) > 0.0
    _passed(
        "criterion 8: hub-clique difference positive on (0, 0.49), negative "
        "on (0.51, 1.90), positive on (1.93, 10)"
    )


def test_criterion_9_conjecture_harness(corpus):
    # beta = 1 is a theorem (Lindemann-Weierstrass: a class difference
    # sum_j c_j e^{lambda_j} with algebraic c_j, lambda_j vanishes only when
    # every c_j does), so the flag is asserted to be the exact verdict, and
    # walk_entropy's flag to be the same, with the float spread at beta = 1
    # as the independent cross-check
    named = (
        [complete_graph(n) for n in range(2, 9)]
        + [cycle_graph(n) for n in range(3, 11)]
        + [petersen_graph(), star_graph(3), path_graph(3), DEEP_PAIR_TREE, TRIANGLE_AND_SQUARE]
        + [hm_graph(m) for m in range(3, 7)]
    )
    findings = []
    checked = 0
    for g in corpus + named:
        report = verify_counterexample(g)
        at_one = walk_entropy(g, 1.0)
        walk_regular = is_walk_regular(g).is_walk_regular
        assert report.entropy_maximal_at_beta_one == walk_regular
        assert at_one.is_maximal == report.entropy_maximal_at_beta_one
        if walk_regular:
            continue
        checked += 1
        assert at_one.spread > 1e-10
        # the crossing-count bound n - 1 stays a flagged finding until a
        # certified root count replaces the grid scan
        if report.crossing_count > g.n - 1:
            findings.append(
                f"crossing count {report.crossing_count} exceeds n-1 for {g}"
            )
    for finding in findings:
        print(f"FLAGGED FINDING (check before celebrating): {finding}")
    _passed(
        f"criterion 9: beta = 1 flag equals the exact verdict on "
        f"{len(corpus) + len(named)} graphs, as is walk_entropy's; float spread > 1e-10 on "
        f"all {checked} non-walk-regular ones; {len(findings)} flagged "
        "crossing-bound findings"
    )
