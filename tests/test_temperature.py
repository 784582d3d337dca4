"""Crossing location, class-difference signs, and the counterexample report."""

import contextlib
import io
import itertools
import math
import random
import tracemalloc
import types
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import walkentropy.entropy
import walkentropy.spectral
import walkentropy.temperature
import walkentropy.walks
from conftest import (
    DEEP_PAIR_TREE,
    TWO_K4_K2,
    all_pairs_scan,
    bigint_closed_walk_table,
    cartesian_product,
    class_difference,
    complete_graph,
    graphs,
    path_graph,
    random_connected_graph,
    reference_scan_pair,
    star_graph,
    zero_plus_sign,
)
from walkentropy.cli import main
from walkentropy.entropy import walk_entropy
from walkentropy.graphs import Graph, hm_graph, parse_edge_list
from walkentropy.spectral import CentralityOverflowError, eigendecompose
from walkentropy.temperature import (
    CROSSING_SPREAD_TOL,
    REFINE_TRIGGER,
    SIGN_FLOOR,
    CoarseGridWarning,
    _bisect_changes,
    _busy_pairs,
    _resolved_signs,
    _scan_pair,
    find_crossings,
    verify_counterexample,
)
from walkentropy.walks import is_walk_regular

# bisection results at bracket width 1e-12, frozen for regression; the
# external anchors are 0.499 and 1.912 at 5e-3
H4_ROOT_LOW = 0.499001412933
H4_ROOT_HIGH = 1.912023505180

# graphs beside the corpus on which the idle-pair screen is checked against
# the all-pairs reference: two classes with two roots, a third class that
# turns both roots pairwise-only, and seven classes first differing deep
SCREEN_GRAPHS = {
    **{f"HM{m}": hm_graph(m) for m in range(3, 7)},
    "deep-pair-tree": DEEP_PAIR_TREE,
    "HM4+isolated": Graph(25, hm_graph(4).edges),
    # 28 classes, one per vertex: 73 of its 378 pairs are busy at the default grid
    "asymmetric-28": random_connected_graph(random.Random(2), 28),
}
SCREEN_GRIDS = [{}, {"beta_max": 3.0, "grid_step": 0.05}]


@st.composite
def screen_inputs(draw):
    """Class values (grid x k), columns in 0+ order, and a trigger per node.

    Small integers make exact ties common; some columns copy an earlier
    column, or add the trigger to one, so pairs sit exactly at the trigger.
    """
    grid = draw(st.integers(1, 5))
    k = draw(st.integers(2, 7))
    value = st.one_of(st.integers(-3, 3).map(float), st.floats(-10.0, 10.0))
    floor = st.one_of(st.integers(0, 2).map(float), st.floats(0.0, 2.0))
    trigger = np.array(draw(st.lists(floor, min_size=grid, max_size=grid)))[:, None]
    columns = []
    for _ in range(k):
        kind = draw(st.sampled_from(["fresh", "equal", "tie"])) if columns else "fresh"
        if kind == "fresh":
            columns.append(np.array(draw(st.lists(value, min_size=grid, max_size=grid))))
        else:
            base = columns[draw(st.integers(0, len(columns) - 1))]
            columns.append(base.copy() if kind == "equal" else base + trigger[:, 0])
    order = draw(st.permutations(range(k)))
    return np.column_stack([columns[c] for c in order]), trigger


@st.composite
def pair_scan_inputs(draw):
    """A synthetic class pair as in ``test_refinement_catches_close_root_pair``:
    the decomposition of 2*cosh(beta - r) - 2 - eps, its grid over [0, 1] with
    r near a node, and a constant mean centrality.

    Some nodes of the difference are then overwritten with round-off (at most
    the sign floor), sub-trigger dips of either sign, or a negative run, so
    that sign changes, carried signs and the sub-grid pass all occur.
    """
    step = draw(st.sampled_from([0.02, 0.05, 0.1, 0.5, 1.0]))
    betas = step * np.arange(round(1 / step) + 1)
    r = float(betas[draw(st.integers(1, max(1, betas.size - 2)))])
    r += draw(st.floats(-0.004, 0.004))
    eps = draw(st.sampled_from([-1e-6, 0.0, 1e-8, 1e-6, 1e-4]))
    lam = np.array([1.0, 0.0, -1.0])
    w_hi = np.array([math.exp(-r), 0.0, math.exp(r)])
    w_lo = np.array([0.0, 2.0 + eps, 0.0])
    fake = types.SimpleNamespace(eigenvalues=lam, weights=np.array([w_hi, w_lo]))
    diff = np.exp(np.outer(betas, lam)) @ (w_hi - w_lo)
    mean_f = np.full_like(betas, draw(st.sampled_from([1.0, 20.0])))
    floor, trigger = SIGN_FLOOR * mean_f, REFINE_TRIGGER * mean_f
    kinds = ["round-off", "at-floor", "dip", "negative-dip", "negative-run"]
    for _ in range(draw(st.integers(0, 4))):
        t = draw(st.integers(1, betas.size - 1))
        u = draw(st.floats(0.0, 1.0))
        kind = draw(st.sampled_from(kinds))
        if kind == "round-off":
            diff[t] = (2.0 * u - 1.0) * floor[t]
        elif kind == "at-floor":
            diff[t] = -floor[t]
        elif kind == "dip":
            diff[t] = u * trigger[t]
        elif kind == "negative-dip":
            diff[t] = -u * trigger[t]
        else:
            stop = draw(st.integers(t + 1, betas.size))
            diff[t:stop] = -np.abs(diff[t:stop]) - u
    return fake, betas, diff, mean_f, step


@pytest.fixture
def scanned(monkeypatch):
    """The pairs ``_scan`` sends through ``_scan_pair``, in call order, each
    as (min, max) of its two representatives."""
    pairs = []
    real = walkentropy.temperature._scan_pair

    def recorded(*args):
        pairs.append(tuple(sorted(args[-2:])))
        return real(*args)

    monkeypatch.setattr(walkentropy.temperature, "_scan_pair", recorded)
    return pairs


class TestClassDifference:
    def test_h4_at_beta_one(self):
        d = eigendecompose(hm_graph(4))
        diff = class_difference(d, 0, 4, 1.0)
        assert diff == pytest.approx(6.481 - 7.175, abs=5e-3)
        assert diff == pytest.approx(-0.693665412869, abs=1e-9)

    def test_same_vertex_is_zero(self):
        d = eigendecompose(complete_graph(4))
        assert class_difference(d, 1, 1, 2.3) == 0.0

    @pytest.mark.parametrize("beta", [0.001, 0.01, 0.05])
    def test_h4_positive_near_zero(self, beta):
        # second derivatives at 0 are 5 (hub) vs 4 (clique)
        d = eigendecompose(hm_graph(4))
        assert class_difference(d, 0, 4, beta) > 0.0


class TestFindCrossings:
    def test_h4_has_exactly_two(self):
        scan = find_crossings(hm_graph(4))
        assert not scan.walk_regular
        assert len(scan.crossings) == 2
        low, high = scan.crossings
        assert low.beta_star == pytest.approx(0.499, abs=5e-3)
        assert high.beta_star == pytest.approx(1.912, abs=5e-3)
        assert low.beta_star == pytest.approx(H4_ROOT_LOW, abs=1e-9)
        assert high.beta_star == pytest.approx(H4_ROOT_HIGH, abs=1e-9)
        for c in scan.crossings:
            assert c.bracket[1] - c.bracket[0] <= 1e-12
            assert c.bracket[0] <= c.beta_star <= c.bracket[1]
            assert c.max_spread_at_root <= 1e-8
            assert c.pair == (0, 4)
            assert len(c.class_values) == 2
        assert scan.pairwise_only == ()

    def test_h4_roots_are_maximal_entropy_points(self):
        for c in find_crossings(hm_graph(4)).crossings:
            report = walk_entropy(hm_graph(4), c.beta_star)
            assert report.spread <= CROSSING_SPREAD_TOL
            assert abs(report.deficit) <= 1e-12

    def test_h4_sign_regimes(self):
        d = eigendecompose(hm_graph(4))
        for beta in np.linspace(0.01, 0.489, 25):
            assert class_difference(d, 0, 4, beta) > 0.0
        for beta in np.linspace(0.51, 1.90, 25):
            assert class_difference(d, 0, 4, beta) < 0.0
        for beta in np.linspace(1.93, 10.0, 25):
            assert class_difference(d, 0, 4, beta) > 0.0

    @pytest.mark.parametrize(
        "beta_max, roots", [(1.9125, [H4_ROOT_LOW, H4_ROOT_HIGH]), (1.912, [H4_ROOT_LOW])]
    )
    def test_root_in_the_short_last_cell(self, beta_max, roots):
        # the step does not divide beta_max, so the last cell is (1.91, beta_max]
        # and only the appended node beta_max reaches it; the second root,
        # 1.912024, lies in that cell for 1.9125 and beyond beta_max for 1.912
        scan = find_crossings(hm_graph(4), beta_max=beta_max, grid_step=0.01)
        assert [c.beta_star for c in scan.crossings] == pytest.approx(roots, abs=1e-9)
        assert all(c.bracket[0] > 1.91 for c in scan.crossings[1:])
        assert (scan.pairwise_only, scan.warnings) == ((), ())

    def test_walk_regular_marker(self):
        scan = find_crossings(complete_graph(5))
        assert scan.walk_regular
        assert scan.crossings == ()
        assert scan.classes == (tuple(range(5)),)

    def test_star_has_no_crossings(self):
        # the center's diagonal dominates for every beta > 0
        scan = find_crossings(star_graph(3))
        assert not scan.walk_regular
        assert scan.crossings == ()
        assert scan.pairwise_only == ()

    def test_path_has_no_crossings(self):
        scan = find_crossings(path_graph(3))
        assert not scan.walk_regular
        assert scan.crossings == ()

    def test_pairwise_only_when_a_third_class_disagrees(self):
        # H4 plus an isolated vertex: hub/clique still cross at the same
        # temperatures, but the isolated vertex sits at f = 1, so no root
        # qualifies and both show up as pairwise-only diagnostics
        g = Graph(25, hm_graph(4).edges)
        scan = find_crossings(g)
        assert len(scan.classes) == 3
        assert scan.crossings == ()
        betas = sorted(p.beta for p in scan.pairwise_only)
        assert betas[0] == pytest.approx(H4_ROOT_LOW, abs=1e-9)
        assert betas[-1] == pytest.approx(H4_ROOT_HIGH, abs=1e-9)
        assert all(p.pair == (0, 4) for p in scan.pairwise_only)
        assert all(p.spread > 1e-8 for p in scan.pairwise_only)

    def test_crossings_sorted_and_unique(self, corpus):
        for g in corpus[:40]:
            scan = find_crossings(g, beta_max=6.0)
            betas = [c.beta_star for c in scan.crossings]
            assert betas == sorted(betas)
            assert all(b2 - b1 > 1e-9 for b1, b2 in zip(betas, betas[1:]))

    def test_invalid_parameters(self):
        g = complete_graph(3)
        with pytest.raises(ValueError):
            find_crossings(g, beta_max=0.0)
        with pytest.raises(ValueError):
            find_crossings(g, grid_step=-0.1)

    @pytest.mark.parametrize("run", [find_crossings, verify_counterexample])
    @pytest.mark.parametrize("arg", ["beta_max", "grid_step"])
    def test_nan_parameters_rejected(self, run, arg):
        with pytest.raises(ValueError, match=f"{arg} must be finite, got nan"):
            run(hm_graph(4), **{arg: math.nan})

    def test_infinite_step_rejected(self):
        # used to report "no crossings" on a graph that has two
        with pytest.raises(ValueError, match="grid_step must be finite, got inf"):
            find_crossings(hm_graph(4), grid_step=math.inf)

    @pytest.mark.parametrize("run", [find_crossings, verify_counterexample])
    def test_overflowing_trace_at_beta_max_is_refused(self, run):
        # the grid nodes from beta = 236.37 on have an infinite mean
        # centrality, where every difference would count as round-off
        with pytest.raises(CentralityOverflowError, match=r"^trace .* at beta=236\.5$"):
            run(parse_edge_list(TWO_K4_K2), beta_max=236.5)

    def test_overflow_is_refused_before_the_grid_is_built(self):
        # 2.4e14 grid nodes would not fit in memory; beta_max is checked first
        with pytest.raises(CentralityOverflowError, match=r"^trace .* at beta=236\.5$"):
            find_crossings(parse_edge_list(TWO_K4_K2), beta_max=236.5, grid_step=1e-12)
        with pytest.raises(CentralityOverflowError, match=r"^trace .* at beta=800$"):
            find_crossings(hm_graph(4), beta_max=800.0, grid_step=1e-12)

    def test_bisection_stops_at_an_exact_zero(self):
        # -1 + e^beta is exactly 0 at the first midpoint, beta = 0
        wdiff, lam = np.array([-1.0, 1.0]), np.array([0.0, 1.0])
        roots = _bisect_changes(wdiff, lam, np.array([-1.0, 1.0]), np.array([-1, 1]))
        assert roots == [(0.0, 0.0, 0.0)]

    def test_refinement_catches_close_root_pair(self):
        # synthetic pair difference 2*cosh(beta - r) - 2 - eps: two roots
        # ~2e-3 apart strictly inside one 0.01 cell, invisible to the main
        # grid (sign restored at both ends) but caught by the step/100 pass
        r, eps = 0.353, 1e-6
        lam = np.array([1.0, 0.0, -1.0])
        w0 = np.array([math.exp(-r), 0.0, math.exp(r)])
        w1 = np.array([0.0, 2.0 + eps, 0.0])
        fake = types.SimpleNamespace(eigenvalues=lam, weights=np.array([w0, w1]))
        betas = 0.01 * np.arange(101)
        diff = np.exp(np.outer(betas, lam)) @ (w0 - w1)
        assert np.all(np.sign(diff[1:]) > 0)  # main grid sees no sign change
        mean_f = np.full_like(betas, 20.0)
        # diff = f_0 - f_1 is positive at 0+: class 1 is low, class 0 high
        floor, trigger = SIGN_FLOOR * mean_f, REFINE_TRIGGER * mean_f
        candidates, notes = _scan_pair(fake, betas, diff, floor, trigger, 0.01, 1, 0)
        roots = sorted(c[0] for c in candidates)
        assert len(roots) == 2
        assert all(c[3] == (0, 1) for c in candidates)
        width = math.sqrt(eps)  # leading order of the dip half-width
        assert roots[0] == pytest.approx(r - width, rel=0.1)
        assert roots[1] == pytest.approx(r + width, rel=0.1)
        assert len(notes) == 2
        assert "too coarse" in notes[0]

    @settings(max_examples=300, deadline=None)
    @given(pair_scan_inputs())
    def test_scan_pair_matches_the_reference(self, inputs):
        # resolving signs only where a node reaches -floor changes no bit of
        # the candidates or the notes
        fake, betas, diff, mean_f, step = inputs
        floor, trigger = SIGN_FLOOR * mean_f, REFINE_TRIGGER * mean_f
        got = _scan_pair(fake, betas, diff, floor, trigger, step, 1, 0)
        want = reference_scan_pair(fake, betas, diff, mean_f, step, 1, 0)
        assert repr(got) == repr(want)

    def test_round_off_near_zero_is_not_a_crossing(self):
        scan = find_crossings(DEEP_PAIR_TREE)
        assert len(scan.classes) == 7
        assert scan.crossings == ()
        assert scan.pairwise_only == ()
        assert scan.warnings == ()

    def test_unresolved_signs_repeat_the_last_resolved_sign(self):
        values = np.array([0.0, 1e-16, -1e-16, 0.5, 1e-20, -0.3, 0.0])
        signs = _resolved_signs(values, SIGN_FLOOR * np.ones_like(values), -1)
        assert signs.tolist() == [-1, -1, -1, 1, 1, -1, -1]

    def test_coarse_grid_warning_points_at_the_caller(self, monkeypatch):
        real = walkentropy.temperature._scan_pair

        def noisy(*args):
            candidates, notes = real(*args)
            return candidates, notes + ["synthetic note"]

        monkeypatch.setattr(walkentropy.temperature, "_scan_pair", noisy)
        for fn in (find_crossings, verify_counterexample):
            with pytest.warns(CoarseGridWarning) as record:
                fn(hm_graph(4))
            assert [w.filename for w in record] == [__file__]


class TestCartesianProducts:
    """Products with HM(4) against the crossings of the factor HM(4) alone.

    f_(v,w) = f_v * f_w, so each product's roots are the factor's.  On
    HM(4)□P3 and HM(4)□HM(4) several class pairs find the same roots; the
    merge keeps the first pair in representative-pair order.
    """

    @pytest.fixture(scope="class")
    def factor_roots(self):
        return [c.beta_star for c in find_crossings(hm_graph(4)).crossings]

    def test_hm4_times_k2(self, factor_roots):
        g = cartesian_product(hm_graph(4), complete_graph(2))
        scan = find_crossings(g)
        assert (g.n, len(scan.classes)) == (48, 2)
        assert [c.beta_star for c in scan.crossings] == pytest.approx(factor_roots, abs=1e-9)
        assert [round(c.beta_star, 9) for c in scan.crossings] == [0.499001413, 1.912023505]
        assert scan.pairwise_only == ()

    def test_hm4_times_p3(self, factor_roots):
        # the P3 end and centre split each HM(4) class: the hub-clique
        # pairs cross, but the end and centre values never agree
        g = cartesian_product(hm_graph(4), path_graph(3))
        scan = find_crossings(g)
        assert (g.n, len(scan.classes)) == (72, 4)
        assert scan.crossings == ()
        assert [p.beta for p in scan.pairwise_only] == pytest.approx(factor_roots, abs=1e-9)
        assert [p.pair for p in scan.pairwise_only] == [(0, 12), (0, 12)]

    def test_hm4_times_hm4(self, factor_roots):
        g = cartesian_product(hm_graph(4), hm_graph(4))
        scan = find_crossings(g)
        assert (g.n, len(scan.classes)) == (576, 3)
        assert [c.beta_star for c in scan.crossings] == pytest.approx(factor_roots, abs=1e-9)
        assert [c.pair for c in scan.crossings] == [(0, 4), (0, 4)]
        assert scan.pairwise_only == ()


class TestWorkCounts:
    """Each request builds the exact walk table once and eigendecomposes at most once."""

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = Counter()
        # walks calls its own table; temperature holds its own eigendecompose
        for modules, name in (
            ((walkentropy.walks,), "closed_walk_table"),
            ((walkentropy.spectral, walkentropy.temperature), "eigendecompose"),
        ):
            real = getattr(modules[0], name)

            def counted(*args, _real=real, _name=name, **kwargs):
                counts[_name] += 1
                return _real(*args, **kwargs)

            for module in modules:
                monkeypatch.setattr(module, name, counted)
        return counts

    @pytest.fixture
    def matrices(self, monkeypatch):
        """Every adjacency matrix handed out, kept alive, so that the number
        of distinct arrays is the number of builds."""
        handed_out = []
        real = Graph.adjacency_matrix

        def recorded(g):
            handed_out.append(real(g))
            return handed_out[-1]

        monkeypatch.setattr(Graph, "adjacency_matrix", recorded)
        return handed_out

    @staticmethod
    def builds(matrices) -> int:
        return len({id(a) for a in matrices})

    @pytest.mark.parametrize(
        "graph",
        [hm_graph(4), complete_graph(4), DEEP_PAIR_TREE],
        ids=["HM4", "K4", "deep-pair-tree"],
    )
    def test_one_adjacency_build_per_report(self, matrices, graph):
        g = Graph(graph.n, graph.edges)  # a fresh graph, no matrix yet
        verify_counterexample(g)
        # the certifier, the table and (unless walk-regular) eigh share it
        assert self.builds(matrices) == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ("check-walk-regular",),
            ("entropy", "--beta", "1"),
            ("entropy", "--beta", "1", "--format", "json"),
            ("scan", "--beta-max", "1", "--step", "0.5"),
            ("find-crossings",),
            ("verify-counterexample",),
        ],
        ids=" ".join,
    )
    def test_one_adjacency_build_per_cli_process(self, matrices, argv):
        with contextlib.redirect_stdout(io.StringIO()):
            assert main([*argv, "--hm", "4"]) == 0
        assert self.builds(matrices) == 1

    @pytest.mark.parametrize("graph", [hm_graph(4)], ids=["HM4"])
    def test_verify_counterexample(self, counts, graph):
        verify_counterexample(graph)
        assert counts == {"closed_walk_table": 1, "eigendecompose": 1}

    @pytest.mark.parametrize(
        "entry", [find_crossings, verify_counterexample], ids=lambda f: f.__name__
    )
    def test_walk_regular_takes_no_spectral_work(self, counts, monkeypatch, entry):
        # the exact verdict answers everything for K4, beta = 1 included
        real = walkentropy.spectral._centrality_rows

        def counted(*args, **kwargs):
            counts["_centrality_rows"] += 1
            return real(*args, **kwargs)

        for module in (walkentropy.spectral, walkentropy.entropy, walkentropy.temperature):
            monkeypatch.setattr(module, "_centrality_rows", counted)
        entry(complete_graph(4))
        assert counts == {"closed_walk_table": 1}

    def test_hm4_table_stops_at_certified_length(self, counts, monkeypatch):
        lengths = []
        counted = walkentropy.walks.closed_walk_table

        def recorded(g, L):
            lengths.append(L)
            return counted(g, L)

        monkeypatch.setattr(walkentropy.walks, "closed_walk_table", recorded)
        verify_counterexample(hm_graph(4))
        assert counts == {"closed_walk_table": 1, "eigendecompose": 1}
        assert lengths == [5]

    @pytest.mark.parametrize(
        "graph, scanned_pairs, class_pairs",
        [
            (star_graph(3), 0, 1),
            (path_graph(3), 0, 1),
            (hm_graph(4), 1, 1),
            (Graph(25, hm_graph(4).edges), 1, 3),
            (DEEP_PAIR_TREE, 6, 21),
        ],
        ids=["star3", "path3", "HM4", "HM4+isolated", "deep-pair-tree"],
    )
    def test_scan_pair_runs_only_on_pairs_that_can_change_sign(
        self, scanned, graph, scanned_pairs, class_pairs
    ):
        k = len(find_crossings(graph).classes)
        assert k * (k - 1) // 2 == class_pairs
        assert len(scanned) == scanned_pairs

    @pytest.mark.parametrize(
        "graph, scanned_pairs, negative_pairs, work_pairs",
        [
            (star_graph(3), 0, 0, 0),
            (path_graph(5), 1, 0, 0),
            (hm_graph(4), 1, 1, 1),
            (Graph(25, hm_graph(4).edges), 1, 1, 1),
            (DEEP_PAIR_TREE, 6, 0, 0),
        ],
        ids=["star3", "path5", "HM4", "HM4+isolated", "deep-pair-tree"],
    )
    def test_grid_signs_are_resolved_only_for_pairs_with_work(
        self, monkeypatch, graph, scanned_pairs, negative_pairs, work_pairs
    ):
        # the main grid's signs and brackets: calls on the floor and grid
        # that _scan hands _scan_pair, not on a refinement sub-grid.  A
        # pair has work when a node beta > 0 is at or below -floor or an
        # interior node past node 1 is a local minimum of |diff| below the
        # trigger (node 0 is the exact tie at beta = 0, not a sample)
        temperature = walkentropy.temperature
        real_scan, real_signs, real_bisect = (
            temperature._scan_pair,
            temperature._resolved_signs,
            temperature._bisect_changes,
        )
        grid = {}
        negative, work, signs_calls, bisect_calls = [], [], [], []

        def scan_pair(d, betas, diff, floor, trigger, *rest):
            grid.update(betas=betas, floor=floor)
            negative.append(bool((diff[1:] <= -floor[1:]).any()))
            a = np.abs(diff)
            dip = any(
                a[t] < trigger[t] and a[t] <= a[t - 1] and a[t] <= a[t + 1]
                for t in range(2, diff.size - 1)
            )
            work.append(negative[-1] or dip)
            return real_scan(d, betas, diff, floor, trigger, *rest)

        def resolved_signs(values, floor, first):
            signs_calls.append(floor is grid["floor"])
            return real_signs(values, floor, first)

        def bisect_changes(wdiff, eigenvalues, betas, signs):
            bisect_calls.append(betas is grid["betas"])
            return real_bisect(wdiff, eigenvalues, betas, signs)

        monkeypatch.setattr(temperature, "_scan_pair", scan_pair)
        monkeypatch.setattr(temperature, "_resolved_signs", resolved_signs)
        monkeypatch.setattr(temperature, "_bisect_changes", bisect_changes)
        find_crossings(graph)
        assert (len(negative), sum(negative)) == (scanned_pairs, negative_pairs)
        assert sum(work) == work_pairs
        assert sum(signs_calls) == sum(bisect_calls) == work_pairs

    def test_repeated_reports_hold_no_memory(self):
        # 12 vertices in 12 classes: the walk table, the classes and the
        # representatives are tuples longer than the 10 items CPython
        # preallocates for a tuple built from an iterator
        g = Graph(12, path_graph(11).edges | {(2, 11)})
        assert len(find_crossings(g).classes) == 12
        tracemalloc.start()
        try:
            # the first calls fill bounded interpreter caches
            for _ in range(50):
                verify_counterexample(g, beta_max=1.0, grid_step=0.1).as_dict()
            before = tracemalloc.get_traced_memory()[0]
            for _ in range(100):
                verify_counterexample(g, beta_max=1.0, grid_step=0.1).as_dict()
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        # three tuples of 12 kept per call would be about 40 kB
        assert grown < 16384


class TestIdlePairScreen:
    """Skipping idle pairs changes no report, warning or 0+ sign."""

    @staticmethod
    def assert_matches_all_pairs(g, grid, scanned):
        scanned.clear()
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            scan = find_crossings(g, **grid)
        reference, per_pair = all_pairs_scan(g, **grid)
        assert scan.as_dict() == reference.as_dict()
        assert [str(w.message) for w in record] == list(reference.warnings)
        assert all(w.category is CoarseGridWarning for w in record)
        # every pair the screen skipped is one _scan_pair finds nothing on,
        # and the scanned ones keep the all-pairs order
        assert scanned == [p for p in per_pair if p in scanned]
        for pair, result in per_pair.items():
            if pair not in scanned:
                assert result == ([], []), pair

    @pytest.mark.parametrize("grid", SCREEN_GRIDS, ids=["default", "coarse"])
    def test_corpus_matches_all_pairs(self, corpus, scanned, grid):
        for g in corpus:
            self.assert_matches_all_pairs(g, grid, scanned)

    @pytest.mark.parametrize("grid", SCREEN_GRIDS, ids=["default", "coarse"])
    @pytest.mark.parametrize("name", SCREEN_GRAPHS)
    def test_named_graph_matches_all_pairs(self, scanned, name, grid):
        self.assert_matches_all_pairs(SCREEN_GRAPHS[name], grid, scanned)

    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(graphs(max_n=12))
    def test_random_graph_matches_all_pairs(self, scanned, g):
        self.assert_matches_all_pairs(g, {}, scanned)

    @settings(max_examples=300, deadline=None)
    @given(screen_inputs())
    def test_busy_pairs_are_the_pairs_that_dip_below_the_trigger(self, inputs):
        f, trigger = inputs
        expected = [
            (i, j)
            for j in range(f.shape[1])
            for i in range(j)
            if ((f[:, j] - f[:, i]) < trigger[:, 0]).any()
        ]
        assert _busy_pairs(f, trigger) == expected

    def test_profile_order_gives_the_zero_plus_sign(self, monkeypatch, corpus):
        # every pair goes to _scan_pair, low class first in 0+ order
        def all_pairs(f, trigger):
            return list(itertools.combinations(range(f.shape[1]), 2))

        real = walkentropy.temperature._scan_pair
        low_high = []

        def recorded(*args):
            low_high.append(args[-2:])
            return real(*args)

        monkeypatch.setattr(walkentropy.temperature, "_busy_pairs", all_pairs)
        monkeypatch.setattr(walkentropy.temperature, "_scan_pair", recorded)
        for g in [*corpus, *SCREEN_GRAPHS.values(), star_graph(3), path_graph(3)]:
            reps = [c[0] for c in is_walk_regular(g).classes]
            low_high.clear()
            find_crossings(g, beta_max=0.1, grid_step=0.05)
            pairs = sorted(tuple(sorted(p)) for p in low_high)
            assert pairs == list(itertools.combinations(reps, 2))
            profiles = bigint_closed_walk_table(g, g.n - 1)
            for lo, hi in low_high:
                assert zero_plus_sign(profiles, hi, lo) == 1


class TestDominance:
    """The class that leads at large beta, checked at fixed beta >= 16."""

    LARGE_BETAS = (16.0, 32.0, 64.0)

    def test_h4_hub_class_leads(self):
        g = hm_graph(4)
        d = eigendecompose(g)
        assert [c[0] for c in is_walk_regular(g).classes] == [0, 4]  # hub, clique
        for beta in self.LARGE_BETAS:
            assert class_difference(d, 0, 4, beta) > 0.0

    def test_path_center_leads(self):
        # Perron-Frobenius weight is largest at the center
        d = eigendecompose(path_graph(3))
        for beta in self.LARGE_BETAS:
            assert class_difference(d, 1, 0, beta) > 0.0

    def test_star_center_leads(self):
        d = eigendecompose(star_graph(4))
        for beta in self.LARGE_BETAS:
            assert class_difference(d, 0, 1, beta) > 0.0


class TestVerifyCounterexample:
    def test_h4(self):
        report = verify_counterexample(hm_graph(4))
        assert report.is_counterexample
        assert not report.verdict.is_walk_regular
        assert report.degree_histogram == {4: 20, 5: 4}
        assert report.crossing_count == 2
        assert not report.entropy_maximal_at_beta_one
        assert report.crossing_bound == 23
        assert report.within_crossing_bound

    def test_complete_graph_is_not_a_counterexample(self):
        report = verify_counterexample(complete_graph(6))
        assert not report.is_counterexample
        assert report.verdict.is_walk_regular
        assert report.scan.walk_regular
        assert report.entropy_maximal_at_beta_one

    def test_deep_pair_tree_is_not_a_counterexample(self):
        report = verify_counterexample(DEEP_PAIR_TREE)
        assert not report.is_counterexample
        assert report.crossing_count == 0

    def test_star_is_not_a_counterexample(self):
        report = verify_counterexample(star_graph(3))
        assert not report.is_counterexample
        assert not report.verdict.is_walk_regular
        assert report.crossing_count == 0

    def test_as_dict_field_names(self):
        doc = verify_counterexample(hm_graph(4)).as_dict()
        assert set(doc) == {
            "verdict",
            "degree_histogram",
            "scan",
            "crossing_count",
            "counterexample",
            "entropy_maximal_at_beta_one",
            "crossing_bound",
            "within_crossing_bound",
        }
        crossing = doc["scan"]["crossings"][0]
        assert set(crossing) == {
            "beta_star",
            "bracket_lo",
            "bracket_hi",
            "spread",
            "classes",
        }
        assert crossing["classes"][0]["representative"] == 0
