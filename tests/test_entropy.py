"""Walk entropy, the maximality predicate, the scan grid and its CSV rows."""

import contextlib
import io
import math
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import walkentropy.cli
import walkentropy.entropy
from conftest import (
    TRIANGLE_AND_SQUARE,
    TWO_K4,
    centrality,
    complete_graph,
    graphs,
    per_point_report,
    per_point_scan,
    per_point_scan_csv,
    per_point_scan_json,
    plain_entropy,
    star_graph,
    taylor_diagonal_oracle,
)
from walkentropy.cli import _csv_lines, main
from walkentropy.entropy import _row_spreads, _scan_table, walk_entropy
from walkentropy.graphs import Graph, hm_graph, parse_edge_list, serialize_edge_list
from walkentropy.spectral import CentralityOverflowError, eigendecompose
from walkentropy.temperature import CROSSING_SPREAD_TOL
from walkentropy.walks import is_walk_regular

SAMPLED_BETAS = (0.1, 0.5, 1.0, 2.0, 5.0)

# located in test_temperature at bracket width 1e-12; used here only to
# probe the entropy surface near its maxima
H4_ROOTS = (0.499001412933, 1.912023505180)


class TestWalkEntropy:
    def test_complete_graph_flat_at_log_n(self):
        g = complete_graph(4)
        for beta in SAMPLED_BETAS:
            report = walk_entropy(g, beta)
            assert report.entropy == pytest.approx(math.log(4), abs=1e-12)
            assert report.spread <= 1e-10
            assert report.is_maximal

    def test_beta_zero_uniform(self, corpus):
        for g in corpus[:25]:
            report = walk_entropy(g, 0.0)
            assert report.entropy == pytest.approx(math.log(g.n), abs=1e-12)
            assert report.is_maximal
            assert report.deficit >= -1e-12

    def test_one_vertex_entropy_is_positive_zero(self):
        report = walk_entropy(Graph(1, frozenset()), 1.0)
        assert math.copysign(1.0, report.entropy) == 1.0
        assert math.copysign(1.0, report.deficit) == 1.0
        assert report.is_maximal

    def test_star_at_beta_one_below_maximum(self):
        g = star_graph(3)
        report = walk_entropy(g, 1.0)
        assert report.entropy < math.log(4) - 1e-3
        # independent route: entropy from the exact-walk Taylor diagonal
        entropy, spread = plain_entropy(taylor_diagonal_oracle(g, 1.0).values)
        assert entropy == pytest.approx(report.entropy, abs=1e-9)
        assert spread == pytest.approx(report.spread, abs=1e-9)

    def test_bounds_on_corpus(self, corpus):
        for g in corpus[:60]:
            for beta in SAMPLED_BETAS:
                report = walk_entropy(g, beta)
                assert 0.0 <= report.entropy <= math.log(g.n) + 1e-12
                assert report.probabilities.sum() == pytest.approx(1.0, abs=1e-12)
                assert report.deficit >= -1e-12

    def test_walk_regular_attains_maximum(self, corpus):
        for g in corpus:
            if not is_walk_regular(g).is_walk_regular:
                continue
            for beta in SAMPLED_BETAS:
                report = walk_entropy(g, beta)
                assert report.deficit == pytest.approx(0.0, abs=1e-12)
                assert report.spread <= 1e-10
                assert report.is_maximal

    def test_entropy_agrees_across_routes(self, corpus):
        for g in corpus[:40]:
            for beta in (0.25, 1.0, 2.0):
                spectral = walk_entropy(g, beta)
                entropy, spread = plain_entropy(taylor_diagonal_oracle(g, beta).values)
                assert entropy == pytest.approx(spectral.entropy, abs=1e-9)
                assert spread == pytest.approx(spectral.spread, abs=1e-9)

    def test_negative_beta_rejected(self):
        with pytest.raises(ValueError):
            walk_entropy(complete_graph(3), -0.5)

    def test_nan_beta_rejected(self):
        with pytest.raises(ValueError, match="beta must be finite, got nan"):
            walk_entropy(hm_graph(4), math.nan)


class TestIsEntropyMaximal:
    def test_h4_at_crossing(self):
        # a float near a crossing: the spread is within the crossing
        # tolerance, yet HM(4) is not walk-regular, so it is not maximal
        g = hm_graph(4)
        for root in H4_ROOTS:
            report = walk_entropy(g, root)
            assert report.spread <= CROSSING_SPREAD_TOL
            assert not report.is_maximal

    def test_h4_at_beta_one(self):
        g = hm_graph(4)
        report = walk_entropy(g, 1.0)
        assert report.spread > 1e-10
        assert not report.is_maximal
        cd = centrality(eigendecompose(g), 1.0)
        assert cd.values.max() - cd.values.min() == pytest.approx(0.6937, abs=1e-3)

    def test_complete_graphs_always_maximal(self):
        for n in (2, 4, 7):
            g = complete_graph(n)
            for beta in SAMPLED_BETAS:
                report = walk_entropy(g, beta)
                assert report.spread <= 1e-10
                assert report.is_maximal

    def test_spread_criterion_not_entropy_value(self):
        # the spread measures the distance from maximal: 1.58e-5 here,
        # though the deficit is quadratically small
        g = hm_graph(4)
        beta = H4_ROOTS[0] + 1e-4
        report = walk_entropy(g, beta)
        assert report.spread > 1e-10
        assert not report.is_maximal
        assert report.deficit < 1e-9


class TestMaximalityIsTheExactVerdict:
    """At a float beta > 0 walk entropy is maximal exactly for a walk-regular
    graph (Lindemann-Weierstrass: a float is rational), whatever the spread."""

    def test_flag_is_beta_zero_or_walk_regular(self, corpus):
        for g in corpus + [hm_graph(m) for m in range(3, 7)] + [TRIANGLE_AND_SQUARE]:
            regular = is_walk_regular(g).is_walk_regular
            for beta in (0.0, 0.25, 1.0, 3.0) + H4_ROOTS:
                assert walk_entropy(g, beta).is_maximal == (beta == 0 or regular)


# scan-table columns
BETA, ENTROPY, DEFICIT, SPREAD = 0, 1, 3, 4


class TestEntropyScan:
    def test_h4_deficit_dips_only_near_roots(self):
        d = eigendecompose(hm_graph(4))
        table = _scan_table(d, 0.0, 3.0, 0.01, [0, 4])
        assert table.shape == (301, 7)
        for beta, deficit in table[:, [BETA, DEFICIT]].tolist():
            near_root = min(abs(beta - r) for r in H4_ROOTS) <= 0.02
            if beta == 0.0 or near_root:
                continue
            # smallest deficit away from the roots is ~1.7e-10 (at beta=0.01)
            assert deficit > 5e-11
        for root in H4_ROOTS:
            nearest = np.argmin(np.abs(table[:, BETA] - root))
            assert table[nearest, DEFICIT] < 1e-6

    def test_k2_flat_scan(self):
        table = _scan_table(eigendecompose(complete_graph(2)), 0.0, 1.0, 0.5, [0])
        assert table[:, BETA].tolist() == [0.0, 0.5, 1.0]
        for entropy in table[:, ENTROPY].tolist():
            assert entropy == pytest.approx(math.log(2), abs=1e-12)

    def test_degenerate_range_single_report(self):
        table = _scan_table(eigendecompose(complete_graph(3)), 0.5, 0.5, 1.0, [0])
        assert table[:, BETA].tolist() == [0.5]

    def test_invalid_ranges(self):
        d = eigendecompose(complete_graph(3))
        with pytest.raises(ValueError):
            _scan_table(d, -1.0, 2.0, 0.1, [0])
        with pytest.raises(ValueError):
            _scan_table(d, 2.0, 1.0, 0.1, [0])
        with pytest.raises(ValueError):
            _scan_table(d, 0.0, 1.0, 0.0, [0])

    def test_infinite_beta_max_rejected(self):
        d = eigendecompose(complete_graph(3))
        with pytest.raises(ValueError, match="beta_max must be finite, got inf"):
            _scan_table(d, 0.0, math.inf, 0.01, [0])

    @pytest.mark.parametrize("beta_max, step", [(1.0, 1e-300), (1e300, 1e-300), (2.0**53, 1.0)])
    def test_grid_too_large_to_build(self, beta_max, step):
        d = eigendecompose(complete_graph(3))
        with pytest.raises(MemoryError, match=r"^beta grid \[0, .*\] at step .* is too large$"):
            _scan_table(d, 0.0, beta_max, step, [0])

    def test_overflow_names_the_offending_beta(self):
        d = eigendecompose(hm_graph(4))
        with pytest.raises(CentralityOverflowError, match="beta=199"):
            _scan_table(d, 199.0, 201.0, 1.0, [0, 4])


class TestTraceOverflow:
    """An overflowing trace is an error, not garbage."""

    def test_single_beta(self):
        g = parse_edge_list(TWO_K4)
        d = eigendecompose(g)
        with pytest.raises(CentralityOverflowError, match="trace .* at beta=236.45$"):
            walk_entropy(g, 236.45)
        with pytest.raises(CentralityOverflowError, match="trace .* at beta=236.45$"):
            centrality(d, 236.45)

    def test_scan_names_the_first_overflowing_trace(self):
        d = eigendecompose(parse_edge_list(TWO_K4))
        with pytest.raises(CentralityOverflowError, match="trace .* at beta=236.4$"):
            _scan_table(d, 236.0, 237.0, 0.1, [0, 4])

    def test_values_below_the_overflow_are_finite(self):
        d = eigendecompose(parse_edge_list(TWO_K4))
        # every vertex a column: f at all of them, beside entropy and spread
        table = _scan_table(d, 236.0, 236.3, 0.1, list(range(8)))
        assert table.shape == (4, 13)
        assert np.isfinite(table).all()


def _count_calls(monkeypatch, targets) -> Counter:
    """Count the calls of each ``(module, name)`` in ``targets`` by name."""
    counts = Counter()
    for module, name in targets:
        real = getattr(module, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return counts


class TestScanWorkCounts:
    """A scan is one array pass: no per-point diagonal or report calls."""

    def test_4001_points_in_one_pass(self, monkeypatch):
        counts = _count_calls(monkeypatch, (
            (walkentropy.entropy, "walk_entropy"),
            (walkentropy.entropy, "_centrality_rows"),
        ))
        table = _scan_table(eigendecompose(hm_graph(4)), 0.0, 4.0, 0.001, [0, 4])
        assert table.shape[0] == 4001
        assert counts == {"_centrality_rows": 1}

    @pytest.mark.parametrize("fmt", ["csv", "json", "human"])
    def test_cli_scan_builds_no_reports(self, monkeypatch, fmt):
        counts = _count_calls(monkeypatch, (
            (walkentropy.cli, "walk_entropy"),
            (walkentropy.entropy, "_centrality_rows"),
            (walkentropy.entropy, "EntropyReport"),
        ))
        argv = ["scan", "--hm", "4", "--beta-max", "4", "--step", "0.001", "--format", fmt]
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert main(argv) == 0
        assert out.getvalue().count("\n") > 4001
        assert counts == {"_centrality_rows": 1}


def _fields(r):
    return (r.beta, r.entropy, r.max_entropy, r.deficit, r.trace, r.spread, r.is_maximal)


def _table_row(r, reps) -> list[float]:
    """The scan-table row of report ``r``: its fields, then f at ``reps``."""
    head = [r.beta, r.entropy, r.max_entropy, r.deficit, r.spread]
    return head + (r.probabilities[reps] * r.trace).tolist()


def _cli_stdout(g, *argv) -> str:
    out = io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(serialize_edge_list(g))):
        with contextlib.redirect_stdout(out):
            assert main(["scan", "-", *argv]) == 0
    return out.getvalue()


class TestBatchedScanIsPerPoint:
    """Every batched row is bitwise the one-point result, and ``scan``
    prints the bytes of the per-point CSV and ``json.dumps`` writers."""

    @settings(max_examples=40, deadline=None)
    @given(
        graphs(max_n=24),
        st.floats(min_value=0.0, max_value=2.0),
        st.floats(min_value=0.001, max_value=0.5),
        st.floats(min_value=0.0, max_value=300.0),
    )
    def test_rows_and_bytes(self, g, beta_min, step, steps):
        d = eigendecompose(g)
        # stay below the overflow of the trace, log n + beta * lambda_max
        beta_max = min(beta_min + steps * step, 700.0 / max(1.0, float(d.eigenvalues[0])))
        verdict = is_walk_regular(g)
        reps = [c[0] for c in verdict.classes]
        rows = _scan_table(d, beta_min, beta_max, step, reps).tolist()
        oracle = per_point_scan(d, beta_min, beta_max, step, verdict.is_walk_regular)
        assert len(rows) == len(oracle)
        for row, o in zip(rows, oracle):
            w, cd = walk_entropy(g, o.beta), centrality(d, o.beta)
            assert row == _table_row(o, reps) == _table_row(w, reps)
            assert _fields(o) == _fields(w)
            assert np.array_equal(o.probabilities, w.probabilities)
            assert w.trace == cd.trace
            assert np.array_equal(w.probabilities, cd.values / cd.trace)

        grid = ("--beta-min", repr(beta_min), "--beta-max", repr(beta_max), "--step", repr(step))
        assert _cli_stdout(g, *grid, "--format", "csv") == per_point_scan_csv(oracle, reps)
        assert _cli_stdout(g, *grid, "--format", "json") == per_point_scan_json(oracle, reps)

    @pytest.mark.parametrize("beta", [0.0, 0.5, 1.0, 1.912023505180, 7.5])
    def test_single_beta_routes_agree(self, beta):
        g = hm_graph(4)
        d = eigendecompose(g)
        o = per_point_report(d, beta, is_walk_regular(g).is_walk_regular)
        r = walk_entropy(g, beta)
        assert _fields(r) == _fields(o)
        assert np.array_equal(r.probabilities, o.probabilities)
        # the scan table's one-row grid, with f at every vertex
        every = list(range(d.weights.shape[0]))
        assert _scan_table(d, beta, beta, 1.0, every).tolist() == [_table_row(o, every)]


class TestScanCsv:
    def test_column_order_and_formatting(self):
        g = hm_graph(4)
        d = eigendecompose(g)
        reps = [c[0] for c in is_walk_regular(g).classes]
        lines = _csv_lines(_scan_table(d, 0.0, 0.02, 0.01, reps), reps)
        assert lines[0] == "beta,entropy,max_entropy,deficit,spread,f_v0,f_v4"
        assert len(lines) == 4
        row = lines[2].split(",")
        assert float(row[0]) == 0.01
        # the representative columns carry f, not probabilities
        assert float(row[5]) == pytest.approx(1.00025, abs=1e-4)

    def test_round_trips_at_twelve_digits(self):
        g = star_graph(3)
        d = eigendecompose(g)
        reps = [c[0] for c in is_walk_regular(g).classes]
        lines = _csv_lines(_scan_table(d, 0.0, 1.0, 0.25, reps), reps)
        for line in lines[1:]:
            cells = [float(c) for c in line.split(",")]
            assert len(cells) == 5 + len(reps)


def test_relative_spread_constant_vector():
    assert _row_spreads(np.ones((1, 5))).tolist() == [0.0]
