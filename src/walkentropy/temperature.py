"""Locating the temperatures at which a graph's walk entropy is maximal.

The diagonal of exp(beta*A) is constant on each vertex class (identical
exact walk profiles), so maximal entropy at beta is equivalent to all
pairwise class differences vanishing there.  Differences are scanned for
sign changes on a uniform beta grid and each bracket is bisected; a root
qualifies as a maximal-entropy temperature only if the *full* diagonal
spread vanishes at it, not just the bisected pair.  A pair whose
difference keeps its 0+ sign at every node beta > 0, never within
``REFINE_TRIGGER`` of the mean centrality, is idle: it can open no
bracket and start no refinement, so it is screened out before the
per-pair scan.  The screen sorts the classes in 0+ order and tests that
definition for each class against all the classes below it.  A busy
pair with no node at or below -``SIGN_FLOOR`` times the mean f and no
dip has no work and returns at once.

Two details guard the endpoints.  As beta -> 0+ every difference tends to
0 (exp(0) = I), so the sign at 0+ comes from the first differing exact
walk count of the pair (``walks`` sorts the classes by walk profile, which
gives every pair's sign), and a grid node whose difference is round-off
repeats the last resolved sign; beta = 0 itself is excluded, every graph
being trivially maximal there.  The scan covers (0, beta_max] only: a
root beyond beta_max is not looked for.

Maximality at any float beta > 0, beta = 1 included, is a theorem: it
holds exactly for walk-regular graphs (see :func:`verify_counterexample`).
"""

from __future__ import annotations

import warnings
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .entropy import _check_finite, _row_spreads, _scan_betas
from .graphs import Graph
from .spectral import SpectralDecomposition, _centrality_rows, _exp_rows, eigendecompose
from .walks import WalkRegularityVerdict, _decide

__all__ = [
    "CROSSING_SPREAD_TOL",
    "BRACKET_WIDTH",
    "CoarseGridWarning",
    "CrossingReport",
    "PairwiseCrossing",
    "CrossingScan",
    "CounterexampleReport",
    "find_crossings",
    "verify_counterexample",
]

#: A candidate root qualifies only if the relative diagonal spread is at or below this.
CROSSING_SPREAD_TOL = 1e-8

#: Bisection stops once the bracket is at most this wide.
BRACKET_WIDTH = 1e-12

#: Roots closer than this are reported once.
DEDUPE_TOL = 1e-9

#: |difference| below this multiple of mean f triggers the sub-grid re-scan.
REFINE_TRIGGER = 1e-6

#: Sub-grid resolution of the refinement pass, as a divisor of the grid step.
REFINE_FACTOR = 100

#: |difference| below this multiple of mean f is round-off: its sign is
#: unresolved and the previous resolved sign carries over.
SIGN_FLOOR = 1e-13


class CoarseGridWarning(UserWarning):
    """A sign change was found only by the sub-grid refinement pass."""


@dataclass(frozen=True)
class CrossingReport:
    """A located temperature at which all diagonal entries coincide."""

    beta_star: float
    bracket: tuple[float, float]
    class_values: tuple[float, ...]  # f at each class representative
    max_spread_at_root: float  # relative spread over all vertices
    pair: tuple[int, int]  # representative vertices whose difference was bisected


@dataclass(frozen=True)
class PairwiseCrossing:
    """A pair difference root at which the other classes do not agree."""

    beta: float
    pair: tuple[int, int]
    spread: float


@dataclass(frozen=True)
class CrossingScan:
    """Result of :func:`find_crossings`.

    ``walk_regular`` is the "maximal for all beta" marker: when set, the
    crossing list is empty by construction rather than by absence of roots.
    """

    walk_regular: bool
    classes: tuple[tuple[int, ...], ...]
    crossings: tuple[CrossingReport, ...]
    pairwise_only: tuple[PairwiseCrossing, ...]
    warnings: tuple[str, ...]

    @property
    def representatives(self) -> tuple[int, ...]:
        # tuple() of a list: see walks.closed_walk_table
        return tuple([c[0] for c in self.classes])

    def as_dict(self) -> dict:
        reps = self.representatives
        return {
            "walk_regular": self.walk_regular,
            "classes": [list(c) for c in self.classes],
            "crossings": [
                {
                    "beta_star": c.beta_star,
                    "bracket_lo": c.bracket[0],
                    "bracket_hi": c.bracket[1],
                    "spread": c.max_spread_at_root,
                    "classes": [
                        {"representative": r, "f": v}
                        for r, v in zip(reps, c.class_values)
                    ],
                }
                for c in self.crossings
            ],
            "pairwise_only": [
                {"beta": p.beta, "pair": list(p.pair), "spread": p.spread}
                for p in self.pairwise_only
            ],
            "warnings": list(self.warnings),
        }


@dataclass(frozen=True)
class CounterexampleReport:
    """Combined diagnostic for the 'maximal entropy without walk-regularity' test.

    ``entropy_maximal_at_beta_one`` is the exact verdict (a theorem, no
    longer an open conjecture); ``crossing_bound`` is still a conjecture.
    """

    verdict: WalkRegularityVerdict
    degree_histogram: dict[int, int]
    scan: CrossingScan
    crossing_count: int
    is_counterexample: bool  # not walk-regular AND at least one crossing
    entropy_maximal_at_beta_one: bool
    crossing_bound: int  # n - 1
    within_crossing_bound: bool

    def as_dict(self) -> dict:
        return {
            "verdict": self.verdict.as_dict(),
            "degree_histogram": {str(k): v for k, v in self.degree_histogram.items()},
            "scan": self.scan.as_dict(),
            "crossing_count": self.crossing_count,
            "counterexample": self.is_counterexample,
            "entropy_maximal_at_beta_one": self.entropy_maximal_at_beta_one,
            "crossing_bound": self.crossing_bound,
            "within_crossing_bound": self.within_crossing_bound,
        }


def _resolved_signs(values: np.ndarray, floor: np.ndarray, first: int) -> np.ndarray:
    """Signs of ``values`` on a grid, the first node set to ``first``.

    A node with |value| below ``floor`` (``SIGN_FLOOR`` times the mean
    centrality there) is round-off and repeats the previous resolved sign.
    """
    signs = np.sign(values).astype(int)
    signs[np.abs(values) < floor] = 0
    signs[0] = first
    return signs[np.maximum.accumulate(np.where(signs != 0, np.arange(signs.size), 0))]


def _bisect_changes(
    wdiff: np.ndarray, eigenvalues: np.ndarray, grid: np.ndarray, signs: np.ndarray
) -> list[tuple[float, float, float]]:
    """Bisect every grid cell across which ``signs`` changes.

    Returns (root, lo, hi) per cell, each bracket at most ``BRACKET_WIDTH`` wide.
    """
    roots = []
    for t in np.nonzero(signs[:-1] != signs[1:])[0]:
        lo, hi, sign_lo = float(grid[t]), float(grid[t + 1]), int(signs[t])
        while hi - lo > BRACKET_WIDTH:
            mid = 0.5 * (lo + hi)
            val = float(wdiff @ np.exp(mid * eigenvalues))
            if val == 0.0:
                lo = hi = mid
            elif (1 if val > 0.0 else -1) == sign_lo:
                lo = mid
            else:
                hi = mid
        roots.append((0.5 * (lo + hi), lo, hi))
    return roots


def _scan_pair(
    d: SpectralDecomposition,
    betas: np.ndarray,
    diff: np.ndarray,
    floor: np.ndarray,
    trigger: np.ndarray,
    grid_step: float,
    lo: int,
    hi: int,
) -> tuple[list[tuple[float, float, float, tuple[int, int]]], list[str]]:
    """Brackets and bisected roots for one class pair over the grid.

    ``diff`` is f_hi - f_lo at ``betas``, positive at 0+ (representatives
    ``lo`` and ``hi`` in 0+ order); ``floor`` and ``trigger`` are
    ``SIGN_FLOOR`` and ``REFINE_TRIGGER`` times the mean centrality at each
    node.  The pair is reported as (min, max).

    A node resolves negative exactly when diff <= -floor there, negation
    being exact.  Without such a node and without a dip every resolved sign
    is the 0+ sign and nothing is refined: the pair has no work.
    """
    # Refinement: a near-zero local minimum of |diff| without an adjacent
    # sign change may hide a closely-spaced root pair inside one cell.  Node
    # 0 is the exact tie at beta = 0, not a sample, so dips start at node 2.
    absd = np.abs(diff)
    dips = np.flatnonzero(absd[2:-1] < trigger[2:-1]) + 2
    dips = dips[(absd[dips] <= absd[dips - 1]) & (absd[dips] <= absd[dips + 1])]
    if not dips.size and not (diff[1:] <= -floor[1:]).any():
        return [], []
    pair = (min(lo, hi), max(lo, hi))
    wdiff = d.weights[hi] - d.weights[lo]
    # beta = 0 is an exact tie; start from the sign at 0+
    signs = _resolved_signs(diff, floor, 1)
    candidates = [(*r, pair) for r in _bisect_changes(wdiff, d.eigenvalues, betas, signs)]
    dips = dips[(signs[dips - 1] == signs[dips]) & (signs[dips] == signs[dips + 1])]
    notes: list[str] = []
    for t in dips.tolist():
        # spans the two surrounding cells; the last cell may be shorter than
        # grid_step when beta_max is not step-aligned, so interpolate rather
        # than assume a uniform width
        sub = np.linspace(float(betas[t - 1]), float(betas[t + 1]), 2 * REFINE_FACTOR + 1)
        e, traces = _exp_rows(d, sub)
        first = int(signs[t - 1])
        sub_signs = _resolved_signs(e @ wdiff, SIGN_FLOOR * (traces / e.shape[1]), first)
        for root, left, right in _bisect_changes(wdiff, d.eigenvalues, sub, sub_signs):
            candidates.append((root, left, right, pair))
            notes.append(
                f"grid step {grid_step:g} too coarse near beta={root:.9g}: "
                f"sign change of pair {pair} found only at step/{REFINE_FACTOR}"
            )
    return candidates, notes


def _busy_pairs(f: np.ndarray, trigger: np.ndarray) -> list[tuple[int, int]]:
    """The column pairs (i, j), i < j, that are not idle, by j and then i.

    ``f`` holds each class's values at the grid nodes beta > 0 (grid x
    classes, columns in 0+ order) and ``trigger`` the refinement trigger
    at each node (grid x 1).  A pair is idle when fl(f_j - f_i), positive
    at 0+, is at or above the trigger at every node: every node then
    resolves to the 0+ sign and none is near zero, so :func:`_scan_pair`
    would return ``([], [])``.  It reads whole columns: 3x as slow on a row-major ``f``.
    """
    busy = []
    for j in range(1, f.shape[1]):
        idle = (f[:, j : j + 1] - f[:, :j] >= trigger).all(axis=0)
        busy.extend((i, j) for i in np.nonzero(~idle)[0].tolist())
    return busy


def _scan(
    g: Graph, beta_max: float, grid_step: float
) -> tuple[WalkRegularityVerdict, CrossingScan]:
    """Shared body of :func:`find_crossings` and :func:`verify_counterexample`.

    Takes the verdict and the 0+ class order from one exact walk table and
    builds the eigendecomposition at most once (not at all when the graph is
    walk-regular).  The certifier's own ``eigvalsh`` (about 13 us at n = 14)
    stays: one shared ``eigh`` would charge walk-regular graphs for
    eigenvectors the table makes needless.
    Warnings point at the caller of the public function.
    """
    limits = {"beta_max": beta_max, "grid_step": grid_step}
    _check_finite(**limits)
    for name, value in limits.items():
        if value <= 0:
            raise ValueError(f"{name} must be positive, got {value}")

    verdict, ordered = _decide(g)
    if verdict.is_walk_regular:
        return verdict, CrossingScan(True, verdict.classes, (), (), ())

    d = eigendecompose(g)
    # fail fast: the trace and every f_i increase with beta >= 0, so the
    # row at beta_max covers the grid before any grid is built
    _exp_rows(d, np.array([beta_max], dtype=float))
    reps = [c[0] for c in verdict.classes]

    betas = _scan_betas(0.0, beta_max, grid_step)
    if betas[-1] < beta_max - 1e-12 * max(1.0, beta_max):
        betas = np.append(betas, beta_max)
    e, traces = _exp_rows(d, betas)
    f = np.asfortranarray(e @ d.weights[ordered].T)  # (grid, classes), 0+ order
    mean_f = traces / e.shape[1]  # what e.mean(axis=1) computes
    del e  # free the (grid, n) exponentials before the pair scans
    floor = SIGN_FLOOR * mean_f
    trigger = REFINE_TRIGGER * mean_f

    # scanned in representative-pair order, which fixes the order of the
    # notes and of equal-beta candidates in the merge below
    busy = _busy_pairs(f[1:], trigger[1:, None])
    busy.sort(key=lambda ij: sorted([ordered[ij[0]], ordered[ij[1]]]))
    candidates: list[tuple[float, float, float, tuple[int, int]]] = []
    notes: list[str] = []
    for i, j in busy:
        cand, pair_notes = _scan_pair(
            d, betas, f[:, j] - f[:, i], floor, trigger, grid_step, ordered[i], ordered[j]
        )
        candidates.extend(cand)
        notes.extend(pair_notes)

    for note in notes:
        warnings.warn(note, CoarseGridWarning, stacklevel=3)

    candidates.sort(key=lambda c: c[0])
    merged: list[tuple[float, float, float, tuple[int, int]]] = []
    for cand in candidates:
        if merged and cand[0] - merged[-1][0] <= DEDUPE_TOL:
            continue
        merged.append(cand)

    crossings: list[CrossingReport] = []
    pairwise: list[PairwiseCrossing] = []
    if merged:  # every root in one evaluation; each row is bitwise a one-row call
        values = _centrality_rows(d, np.array([c[0] for c in merged]))[0]
        spreads = _row_spreads(values).tolist()
        for (beta_star, lo, hi, pair), row, spread in zip(merged, values, spreads):
            if spread <= CROSSING_SPREAD_TOL:
                class_values = tuple(row[reps].tolist())
                crossings.append(CrossingReport(beta_star, (lo, hi), class_values, spread, pair))
            else:
                pairwise.append(PairwiseCrossing(beta_star, pair, spread))

    scan = CrossingScan(False, verdict.classes, tuple(crossings), tuple(pairwise), tuple(notes))
    return verdict, scan


def find_crossings(g: Graph, beta_max: float = 10.0, grid_step: float = 0.01) -> CrossingScan:
    """Locate every beta in (0, beta_max] at which walk entropy is maximal.

    Walk-regular graphs short-circuit to the "maximal for all beta" marker.
    Otherwise every pair of vertex-class representatives is scanned for
    sign changes of its centrality difference, each bracket is bisected to
    width <= 1e-12, and bisected roots where the remaining classes do not
    agree are reported separately as pairwise-only crossings.  Roots the
    main grid missed but the refinement pass caught are accompanied by a
    :class:`CoarseGridWarning`.
    """
    return _scan(g, beta_max, grid_step)[1]


def verify_counterexample(
    g: Graph, beta_max: float = 10.0, grid_step: float = 0.01
) -> CounterexampleReport:
    """Full diagnostic: exact walk-regularity, crossings, and the beta = 1 theorem.

    A graph "is a counterexample" when it is not walk-regular yet attains
    maximal walk entropy at some located beta > 0.  Entropy is maximal at
    beta = 1, as at any float beta > 0, exactly when the graph is walk-regular:
    a class difference is sum_j c_j e^{beta lambda_j} with algebraic c_j
    (spectral projector entries) and distinct algebraic beta lambda_j (a float
    is rational), so by Lindemann-Weierstrass it vanishes only if every c_j
    does, i.e. only if the two classes are one.  The report also records
    whether the located crossings number at most n - 1.
    """
    verdict, scan = _scan(g, beta_max, grid_step)
    count = len(scan.crossings)
    return CounterexampleReport(
        verdict=verdict,
        degree_histogram=dict(sorted(Counter(g.degrees()).items())),
        scan=scan,
        crossing_count=count,
        is_counterexample=(not verdict.is_walk_regular) and count >= 1,
        entropy_maximal_at_beta_one=verdict.is_walk_regular,
        crossing_bound=g.n - 1,
        within_crossing_bound=count <= g.n - 1,
    )
