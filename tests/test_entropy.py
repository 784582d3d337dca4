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

import walkentropy.entropy
import walkentropy.spectral
from conftest import (
    TWO_K4,
    complete_graph,
    graphs,
    per_point_report,
    per_point_scan,
    per_point_scan_csv,
    per_point_scan_json,
    star_graph,
    taylor_diagonal_oracle,
)
from walkentropy.cli import main
from walkentropy.entropy import (
    MAXIMALITY_TOL,
    _csv_lines,
    _scan_table,
    entropy_from_diagonal,
    relative_spread,
    walk_entropy,
)
from walkentropy.graphs import Graph, hm_graph, parse_edge_list, serialize_edge_list
from walkentropy.spectral import (
    CentralityOverflowError,
    centrality_diagonal,
    eigendecompose,
)
from walkentropy.walks import is_walk_regular, vertex_classes

SAMPLED_BETAS = (0.1, 0.5, 1.0, 2.0, 5.0)

# located in test_temperature at bracket width 1e-12; used here only to
# probe the entropy surface near its maxima
H4_ROOTS = (0.499001412933, 1.912023505180)


class TestWalkEntropy:
    def test_complete_graph_flat_at_log_n(self):
        d = eigendecompose(complete_graph(4))
        for beta in SAMPLED_BETAS:
            report = walk_entropy(d, beta)
            assert report.entropy == pytest.approx(math.log(4), abs=1e-12)
            assert report.is_maximal

    def test_beta_zero_uniform(self, corpus):
        for g in corpus[:25]:
            report = walk_entropy(eigendecompose(g), 0.0)
            assert report.entropy == pytest.approx(math.log(g.n), abs=1e-12)
            assert report.is_maximal
            assert report.deficit >= -1e-12

    def test_one_vertex_entropy_is_positive_zero(self):
        report = walk_entropy(eigendecompose(Graph(1, frozenset())), 1.0)
        assert math.copysign(1.0, report.entropy) == 1.0
        assert math.copysign(1.0, report.deficit) == 1.0
        assert report.is_maximal

    def test_star_at_beta_one_below_maximum(self):
        g = star_graph(3)
        report = walk_entropy(eigendecompose(g), 1.0)
        assert report.entropy < math.log(4) - 1e-3
        # independent route: entropy from the exact-walk Taylor diagonal
        oracle = entropy_from_diagonal(taylor_diagonal_oracle(g, 1.0))
        assert oracle.entropy == pytest.approx(report.entropy, abs=1e-9)

    def test_bounds_on_corpus(self, corpus):
        for g in corpus[:60]:
            d = eigendecompose(g)
            for beta in SAMPLED_BETAS:
                report = walk_entropy(d, beta)
                assert 0.0 <= report.entropy <= math.log(g.n) + 1e-12
                assert report.probabilities.sum() == pytest.approx(1.0, abs=1e-12)
                assert report.deficit >= -1e-12

    def test_walk_regular_attains_maximum(self, corpus):
        for g in corpus:
            if not is_walk_regular(g).is_walk_regular:
                continue
            d = eigendecompose(g)
            for beta in SAMPLED_BETAS:
                report = walk_entropy(d, beta)
                assert report.deficit == pytest.approx(0.0, abs=1e-12)
                assert report.is_maximal

    def test_entropy_agrees_across_routes(self, corpus):
        for g in corpus[:40]:
            d = eigendecompose(g)
            for beta in (0.25, 1.0, 2.0):
                spectral = walk_entropy(d, beta)
                oracle = entropy_from_diagonal(taylor_diagonal_oracle(g, beta))
                assert oracle.entropy == pytest.approx(spectral.entropy, abs=1e-9)

    def test_negative_beta_rejected(self):
        with pytest.raises(ValueError):
            walk_entropy(eigendecompose(complete_graph(3)), -0.5)

    def test_nan_beta_rejected(self):
        with pytest.raises(ValueError, match="beta must be finite, got nan"):
            walk_entropy(eigendecompose(hm_graph(4)), math.nan)


class TestIsEntropyMaximal:
    def test_h4_at_crossing(self):
        d = eigendecompose(hm_graph(4))
        assert walk_entropy(d, H4_ROOTS[0], tol=1e-8).is_maximal
        assert walk_entropy(d, H4_ROOTS[1], tol=1e-8).is_maximal

    def test_h4_at_beta_one(self):
        d = eigendecompose(hm_graph(4))
        assert not walk_entropy(d, 1.0).is_maximal
        cd = centrality_diagonal(d, 1.0)
        assert cd.values.max() - cd.values.min() == pytest.approx(0.6937, abs=1e-3)

    def test_complete_graphs_always_maximal(self):
        for n in (2, 4, 7):
            d = eigendecompose(complete_graph(n))
            for beta in SAMPLED_BETAS:
                assert walk_entropy(d, beta).is_maximal

    def test_spread_criterion_not_entropy_value(self):
        # decided on the diagonal spread: a spread just above tolerance must
        # flip the verdict even though the entropy deficit is quadratically small
        d = eigendecompose(hm_graph(4))
        beta = H4_ROOTS[0] + 1e-4
        report = walk_entropy(d, beta, tol=1e-8)
        assert not report.is_maximal
        assert report.deficit < 1e-9

    def test_tolerance_must_be_positive(self):
        with pytest.raises(ValueError, match="tol must be positive, got 0.0"):
            walk_entropy(eigendecompose(complete_graph(3)), 1.0, tol=0.0)

    @pytest.mark.parametrize(
        "tol, message",
        [
            (math.nan, "tol must be finite, got nan"),
            (math.inf, "tol must be finite, got inf"),
            (-1.0, "tol must be positive, got -1.0"),
        ],
    )
    def test_tolerance_must_be_finite_and_positive(self, tol, message):
        d = eigendecompose(complete_graph(4))
        with pytest.raises(ValueError, match=message):
            walk_entropy(d, 1.0, tol=tol)
        with pytest.raises(ValueError, match=message):
            entropy_from_diagonal(centrality_diagonal(d, 1.0), tol)


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
    """An overflowing trace below the exp guard is an error, not garbage."""

    def test_single_beta(self):
        d = eigendecompose(parse_edge_list(TWO_K4))
        with pytest.raises(CentralityOverflowError, match="trace .* at beta=236.45$"):
            walk_entropy(d, 236.45)
        with pytest.raises(CentralityOverflowError, match="trace .* at beta=236.45$"):
            centrality_diagonal(d, 236.45)

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
            (walkentropy.spectral, "centrality_diagonal"),
            (walkentropy.entropy, "centrality_diagonal"),
            (walkentropy.entropy, "entropy_from_diagonal"),
            (walkentropy.entropy, "walk_entropy"),
            (walkentropy.entropy, "_centrality_rows"),
        ))
        table = _scan_table(eigendecompose(hm_graph(4)), 0.0, 4.0, 0.001, [0, 4])
        assert table.shape[0] == 4001
        assert counts == {"_centrality_rows": 1}

    @pytest.mark.parametrize("fmt", ["csv", "json", "human"])
    def test_cli_scan_builds_no_reports(self, monkeypatch, fmt):
        counts = _count_calls(monkeypatch, (
            (walkentropy.spectral, "centrality_diagonal"),
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
        reps = [c[0] for c in vertex_classes(g)]
        rows = _scan_table(d, beta_min, beta_max, step, reps).tolist()
        oracle = per_point_scan(d, beta_min, beta_max, step, MAXIMALITY_TOL)
        assert len(rows) == len(oracle)
        for row, o in zip(rows, oracle):
            w, cd = walk_entropy(d, o.beta), centrality_diagonal(d, o.beta)
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
        d = eigendecompose(hm_graph(4))
        o = per_point_report(d, beta, MAXIMALITY_TOL)
        for r in (walk_entropy(d, beta), entropy_from_diagonal(centrality_diagonal(d, beta))):
            assert _fields(r) == _fields(o)
            assert np.array_equal(r.probabilities, o.probabilities)


class TestScanCsv:
    def test_column_order_and_formatting(self):
        g = hm_graph(4)
        d = eigendecompose(g)
        reps = [c[0] for c in vertex_classes(g)]
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
        reps = [c[0] for c in vertex_classes(g)]
        lines = _csv_lines(_scan_table(d, 0.0, 1.0, 0.25, reps), reps)
        for line in lines[1:]:
            cells = [float(c) for c in line.split(",")]
            assert len(cells) == 5 + len(reps)


def test_relative_spread_constant_vector():
    assert relative_spread(np.ones(5)) == 0.0
