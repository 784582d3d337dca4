"""Shared fixtures: named small graphs, the seeded random-graph corpus and
brute-force oracles."""

import itertools
import json
import math
import random
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import strategies as st

from walkentropy.cli import _round_floats
from walkentropy.entropy import EntropyReport
from walkentropy.graphs import Graph
from walkentropy.spectral import (
    SpectralDecomposition,
    _centrality_rows,
    _exp_rows,
    eigendecompose,
)
from walkentropy.temperature import (
    CROSSING_SPREAD_TOL,
    DEDUPE_TOL,
    REFINE_FACTOR,
    REFINE_TRIGGER,
    SIGN_FLOOR,
    CrossingReport,
    CrossingScan,
    PairwiseCrossing,
    _bisect_changes,
)
from walkentropy.walks import (
    _cluster_means,
    _cluster_starts,
    closed_walk_table,
    is_walk_regular,
)

#: Two disjoint K4: exp(3*beta) stays below the double range up to
#: beta = 236.59, but the trace 2*exp(3*beta) + 6*exp(-beta) overflows
#: beyond beta = 236.36.
TWO_K4 = "n 8\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n4 5\n4 6\n4 7\n5 6\n5 7\n6 7\n"

#: Two disjoint K4 and a K2: not walk-regular, so the crossing scan runs its
#: grid, on which the trace overflows from beta = 236.37 on.
TWO_K4_K2 = TWO_K4.replace("n 8", "n 10") + "8 9\n"

# a tree whose leaves 1 and 5 first differ in closed-walk count at length 6,
# so their spectral difference at beta = 0.01 (~1e-15) is round-off
DEEP_PAIR_TREE = Graph(7, frozenset({(0, 3), (0, 4), (1, 2), (2, 4), (3, 5), (4, 6)}))

# a triangle and a square: 2-regular, yet not walk-regular (closed 3-walks)
TRIANGLE_AND_SQUARE = Graph(7, frozenset({(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 6), (3, 6)}))


def complete_graph(n: int) -> Graph:
    return Graph(n, frozenset((i, j) for i in range(n) for j in range(i + 1, n)))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    return Graph(n, frozenset((i, (i + 1) % n) for i in range(n)))


def path_graph(n: int) -> Graph:
    return Graph(n, frozenset((i, i + 1) for i in range(n - 1)))


def star_graph(leaves: int) -> Graph:
    """The star K_{1,leaves} with the center at vertex 0."""
    return Graph(leaves + 1, frozenset((0, i) for i in range(1, leaves + 1)))


def petersen_graph() -> Graph:
    """Outer 5-cycle 0..4, inner pentagram 5..9, spokes i -- i+5."""
    edges = {(i, (i + 1) % 5) for i in range(5)}
    edges |= {(i, i + 5) for i in range(5)}
    edges |= {(5 + i, 5 + (i + 2) % 5) for i in range(5)}
    return Graph(10, frozenset(edges))


def cartesian_product(g: Graph, h: Graph) -> Graph:
    """G□H on the vertices v * h.n + w: (v, w) ~ (v', w) when v ~ v' in G,
    and (v, w) ~ (v, w') when w ~ w' in H.

    exp(beta * (A□B)) is exp(beta * A) ⊗ exp(beta * B), so f_(v,w) = f_v * f_w:
    G□W with W walk-regular has exactly G's crossings, and so does G□G.
    """
    edges = {(u * h.n + w, v * h.n + w) for u, v in g.edges for w in range(h.n)}
    edges |= {(x * h.n + u, x * h.n + v) for u, v in h.edges for x in range(g.n)}
    return Graph(g.n * h.n, frozenset(edges))


def neighbors(g: Graph) -> tuple[tuple[int, ...], ...]:
    """Adjacency lists, each sorted ascending."""
    nbrs: list[list[int]] = [[] for _ in range(g.n)]
    for u, v in g.edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    return tuple(tuple(sorted(a)) for a in nbrs)


CORPUS_SEED = 20260810
CORPUS_SIZE = 200

#: Relative tail bound the Taylor truncation must satisfy.
TAYLOR_TAIL_REL = 1e-12


def random_connected_graph(rng: random.Random, n: int) -> Graph:
    """Random spanning tree plus edges at a random density, so connectivity
    is guaranteed and sparsity varies across the corpus."""
    verts = list(range(n))
    rng.shuffle(verts)
    edges = set()
    for i in range(1, n):
        u, v = verts[i], verts[rng.randrange(i)]
        edges.add((min(u, v), max(u, v)))
    p = rng.uniform(0.0, 0.6)
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) not in edges and rng.random() < p:
                edges.add((u, v))
    return Graph(n, frozenset(edges))


@st.composite
def graphs(draw, max_n: int = 30):
    """Any graph on 1..max_n vertices, at a density drawn from [0, 1]."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    p = draw(st.floats(min_value=0.0, max_value=1.0))
    rng = draw(st.randoms(use_true_random=False))
    pairs = itertools.combinations(range(n), 2)
    return Graph(n, frozenset(e for e in pairs if rng.random() < p))


@pytest.fixture(scope="session")
def corpus() -> list[Graph]:
    """200 random connected graphs with 2 <= n <= 12, deterministic."""
    rng = random.Random(CORPUS_SEED)
    return [random_connected_graph(rng, rng.randint(2, 12)) for _ in range(CORPUS_SIZE)]


def brute_force_closed_walks(g: Graph, start: int, length: int) -> int:
    """Count closed walks by explicit enumeration; exponential, tiny graphs only."""
    nbrs = neighbors(g)

    def rec(v: int, remaining: int) -> int:
        if remaining == 0:
            return 1 if v == start else 0
        return sum(rec(w, remaining - 1) for w in nbrs[v])

    return rec(start, length)


def bigint_closed_walk_table(g: Graph, L: int) -> tuple[tuple[int, ...], ...]:
    """Diagonals of A^l for l = 0..L by iterated big-integer neighbor sums.

    The reference for ``closed_walk_table``: the full power is carried
    between steps and, since A is 0/1, each step is
    ``new[i][j] = sum(old[i][k] for k in N(j))`` in Python integers.
    """
    nbrs = neighbors(g)
    n = g.n
    power = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    diag = [[1] for _ in range(n)]
    for _ in range(L):
        power = [[sum(row[k] for k in nbrs[j]) for j in range(n)] for row in power]
        for i in range(n):
            diag[i].append(power[i][i])
    return tuple(tuple(row) for row in diag)


def zero_plus_sign(profiles: tuple[tuple[int, ...], ...], i: int, j: int) -> int:
    """Sign of f_i - f_j as beta -> 0+: that of the first differing walk count."""
    x, y = next((x, y) for x, y in zip(profiles[i], profiles[j]) if x != y)
    return 1 if x > y else -1


class Diagonal(NamedTuple):
    """Diagonal of exp(beta*A) and its trace at one beta."""

    values: np.ndarray  # (n,); values[i] = [exp(beta*A)]_{ii}
    trace: float


def centrality(d: SpectralDecomposition, beta: float) -> Diagonal:
    """The diagonal of exp(beta*A) and its trace: one row of ``_centrality_rows``."""
    values, traces = _centrality_rows(d, np.array([beta], dtype=float))
    return Diagonal(values[0], float(traces[0]))


def plain_entropy(values: np.ndarray) -> tuple[float, float]:
    """Entropy and relative spread of the distribution proportional to
    ``values``, by the plain formulas: p = v / sum(v), -sum(p log p) over
    p > 0, and (max v - min v) / mean v.

    The reference for the library's entropy evaluation: it shares no code
    with it.
    """
    v = [float(x) for x in values]
    total = math.fsum(v)
    entropy = -math.fsum(x / total * math.log(x / total) for x in v if x > 0.0)
    return entropy, (max(v) - min(v)) / (total / len(v))


def class_difference(d: SpectralDecomposition, i: int, j: int, beta: float) -> float:
    """f_i(beta) - f_j(beta) from the spectral weights at one beta.

    The reference for the sign regimes of a class pair: one gemv of the
    weight difference with ``exp(beta * lambda)``.
    """
    return float((d.weights[i] - d.weights[j]) @ np.exp(beta * d.eigenvalues))


def grouped_spectrum(d: SpectralDecomposition) -> tuple[np.ndarray, np.ndarray]:
    """The distinct eigenvalues (descending cluster means) and the weights
    summed over each cluster, (n, kappa).

    Clustered as the walk-table certifier clusters: column sums of the
    grouped weights are the multiplicities, and the difference of two rows
    holds the coefficients of f_i - f_k over the distinct eigenvalues.
    """
    starts = _cluster_starts(d.eigenvalues)
    return _cluster_means(d.eigenvalues, starts), np.add.reduceat(d.weights, starts, axis=1)


def reference_resolved_signs(values: np.ndarray, mean_f: np.ndarray, first: int) -> np.ndarray:
    """Signs of ``values`` on a grid, the first node set to ``first``; a node
    with |value| below ``SIGN_FLOOR * mean_f`` repeats the previous resolved
    sign.  The reference for ``temperature._resolved_signs``."""
    signs = np.sign(values).astype(int)
    signs[np.abs(values) < SIGN_FLOOR * mean_f] = 0
    signs[0] = first
    return signs[np.maximum.accumulate(np.where(signs != 0, np.arange(signs.size), 0))]


def reference_scan_pair(
    d: SpectralDecomposition,
    betas: np.ndarray,
    diff: np.ndarray,
    mean_f: np.ndarray,
    grid_step: float,
    lo: int,
    hi: int,
) -> tuple[list[tuple[float, float, float, tuple[int, int]]], list[str]]:
    """Brackets and bisected roots for one class pair over the grid.

    The reference for ``temperature._scan_pair``: it resolves every node's
    sign for every pair, then refines each near-zero local minimum of |diff|
    from node 2 on that has no adjacent sign change.  ``diff`` is f_hi - f_lo at
    ``betas``, positive at 0+; the pair is reported as (min, max).
    """
    pair = (min(lo, hi), max(lo, hi))
    wdiff = d.weights[hi] - d.weights[lo]
    # beta = 0 is an exact tie; start from the sign at 0+
    signs = reference_resolved_signs(diff, mean_f, 1)
    candidates = [(*r, pair) for r in _bisect_changes(wdiff, d.eigenvalues, betas, signs)]
    notes: list[str] = []

    # Refinement: a near-zero local minimum of |diff| without an adjacent
    # sign change may hide a closely-spaced root pair inside one cell.
    # Node 0 is the exact tie at beta = 0, not a sample of |diff|, so node 1
    # is no local minimum against it: dips start at node 2.
    change = signs[:-1] != signs[1:]
    absd = np.abs(diff)
    interior = (
        (absd[1:-1] <= absd[:-2])
        & (absd[1:-1] <= absd[2:])
        & (absd[1:-1] < REFINE_TRIGGER * mean_f[1:-1])
        & ~change[:-1]
        & ~change[1:]
    )
    for t in np.nonzero(interior[1:])[0] + 2:
        # spans the two surrounding cells; the last cell may be shorter than
        # grid_step when beta_max is not step-aligned, so interpolate rather
        # than assume a uniform width
        sub = np.linspace(float(betas[t - 1]), float(betas[t + 1]), 2 * REFINE_FACTOR + 1)
        e, traces = _exp_rows(d, sub)
        sub_signs = reference_resolved_signs(e @ wdiff, traces / e.shape[1], int(signs[t - 1]))
        for root, left, right in _bisect_changes(wdiff, d.eigenvalues, sub, sub_signs):
            candidates.append((root, left, right, pair))
            notes.append(
                f"grid step {grid_step:g} too coarse near beta={root:.9g}: "
                f"sign change of pair {pair} found only at step/{REFINE_FACTOR}"
            )
    return candidates, notes


def all_pairs_scan(
    g: Graph, beta_max: float = 10.0, grid_step: float = 0.01
) -> tuple[CrossingScan, dict]:
    """``find_crossings`` with every class pair sent through
    :func:`reference_scan_pair`.

    The reference for the idle-pair screen: no pair is skipped, each 0+
    sign comes from ``bigint_closed_walk_table`` at length n - 1, and each
    root is checked with its own one-beta diagonal, :func:`centrality`.
    Returns the scan and each pair's ``reference_scan_pair`` result, in
    pair order.
    """
    classes = is_walk_regular(g).classes
    if len(classes) == 1:
        return CrossingScan(True, classes, (), (), ()), {}
    profiles = bigint_closed_walk_table(g, g.n - 1)
    d = eigendecompose(g)
    reps = [c[0] for c in classes]
    steps = int(math.floor(beta_max / grid_step + 1e-9))
    betas = grid_step * np.arange(steps + 1)
    if betas[-1] < beta_max - 1e-12 * max(1.0, beta_max):
        betas = np.append(betas, beta_max)
    exps = np.exp(np.outer(betas, d.eigenvalues))
    f_reps = exps @ d.weights[reps].T
    mean_f = exps.sum(axis=1) / g.n

    per_pair = {}
    for a, b in itertools.combinations(range(len(reps)), 2):
        pair = (reps[a], reps[b])
        lo, hi = (b, a) if zero_plus_sign(profiles, *pair) > 0 else (a, b)
        diff = f_reps[:, hi] - f_reps[:, lo]
        per_pair[pair] = reference_scan_pair(
            d, betas, diff, mean_f, grid_step, reps[lo], reps[hi]
        )

    candidates = sorted(
        (c for cand, _ in per_pair.values() for c in cand), key=lambda c: c[0]
    )
    merged = []
    for cand in candidates:
        if not merged or cand[0] - merged[-1][0] > DEDUPE_TOL:
            merged.append(cand)
    crossings, pairwise = [], []
    for beta_star, lo, hi, pair in merged:
        v = centrality(d, beta_star).values
        spread = float((v.max() - v.min()) / v.mean())
        if spread <= CROSSING_SPREAD_TOL:
            values = tuple(float(v[r]) for r in reps)
            crossings.append(CrossingReport(beta_star, (lo, hi), values, spread, pair))
        else:
            pairwise.append(PairwiseCrossing(beta_star, pair, spread))
    notes = tuple(note for _, pair_notes in per_pair.values() for note in pair_notes)
    scan = CrossingScan(False, classes, tuple(crossings), tuple(pairwise), notes)
    return scan, per_pair


class InsufficientTermsError(ValueError):
    """Requested Taylor truncation cannot meet the remainder bound."""


def taylor_required_terms(beta: float, max_degree: int) -> int:
    """Smallest T with (beta*d)^T / T! < TAYLOR_TAIL_REL * exp(beta*d).

    ``d = max_degree`` bounds the 1-norm of the adjacency matrix, so the
    dropped Taylor tail is below ``TAYLOR_TAIL_REL * exp(beta*d)``
    componentwise once T satisfies this.  Evaluated in logs to avoid
    overflow of either side.
    """
    x = abs(beta) * max_degree
    if x == 0.0:
        return 1
    threshold = math.log(TAYLOR_TAIL_REL) + x
    t = 1
    while t * math.log(x) - math.lgamma(t + 1) >= threshold:
        t += 1
    return t


def taylor_diagonal_oracle(
    g: Graph, beta: float, terms: int | None = None
) -> Diagonal:
    """Diagonal of exp(beta*A) from exact walk counts: sum of beta^l/l! * [A^l]_{ii}.

    The reference for the spectral route: it shares no code with the
    eigendecomposition.  ``terms`` defaults to the minimal truncation
    satisfying the remainder bound; an explicit smaller value raises
    :class:`InsufficientTermsError`.
    """
    max_degree = max(g.degrees())
    needed = taylor_required_terms(beta, max_degree)
    if terms is None:
        terms = needed
    elif terms < needed:
        x = abs(beta) * max_degree
        raise InsufficientTermsError(
            f"{terms} terms leave tail (beta*||A||_1)^T/T! >= "
            f"{TAYLOR_TAIL_REL:.0e} * exp({x:.6g}); need at least {needed}"
        )
    table = closed_walk_table(g, max(1, terms - 1))
    values = np.zeros(g.n)
    coef = 1.0
    for length in range(terms):
        if length:
            coef *= beta / length
        values += coef * np.array([row[length] for row in table.diag], dtype=float)
    return Diagonal(values, float(values.sum()))


def per_point_report(d: SpectralDecomposition, beta: float, walk_regular: bool) -> EntropyReport:
    """Walk entropy at one beta by the one-point formulas, no batching.

    The reference for the batched grid: the diagonal is the gemv
    ``weights @ exp(beta * lambda)``, its trace the sum of the exponentials,
    and the entropy that of the nonzero probabilities.  ``walk_regular`` is
    the graph's exact verdict, which with beta = 0 decides maximality.
    """
    e = np.exp(beta * d.eigenvalues)
    values, trace = d.weights @ e, float(e.sum())
    p = values / trace
    positive = p > 0.0
    entropy = float(0.0 - (p[positive] * np.log(p[positive])).sum())
    max_entropy = math.log(p.shape[0])
    spread = float((values.max() - values.min()) / values.mean())
    return EntropyReport(
        beta=float(beta),
        entropy=entropy,
        max_entropy=max_entropy,
        deficit=max_entropy - entropy,
        probabilities=p,
        trace=trace,
        spread=spread,
        is_maximal=beta == 0 or walk_regular,
    )


def per_point_scan(
    d: SpectralDecomposition, beta_min: float, beta_max: float, step: float, walk_regular: bool
) -> list[EntropyReport]:
    """The scan grid evaluated one beta at a time."""
    count = int(math.floor((beta_max - beta_min) / step + 1e-9)) + 1
    return [per_point_report(d, beta_min + t * step, walk_regular) for t in range(count)]


def per_point_scan_csv(reports: list[EntropyReport], class_reps: list[int]) -> str:
    """``scan --format csv`` stdout, one f-string cell at a time."""
    header = "beta,entropy,max_entropy,deficit,spread" + "".join(
        f",f_v{r}" for r in class_reps
    )
    lines = [header]
    for rep in reports:
        f = rep.probabilities * rep.trace
        cells = [rep.beta, rep.entropy, rep.max_entropy, rep.deficit, rep.spread]
        cells.extend(float(f[r]) for r in class_reps)
        lines.append(",".join(f"{c:.12g}" for c in cells))
    return "\n".join(lines) + "\n"


def per_point_scan_json(reports: list[EntropyReport], class_reps: list[int]) -> str:
    """``scan --format json`` stdout through ``json.dumps`` of rounded dicts."""
    rows = [
        {
            "beta": r.beta,
            "entropy": r.entropy,
            "max_entropy": r.max_entropy,
            "deficit": r.deficit,
            "spread": r.spread,
            "class_values": {
                str(rep): float(v)
                for rep, v in zip(class_reps, (r.probabilities * r.trace)[class_reps])
            },
        }
        for r in reports
    ]
    return json.dumps(_round_floats(rows), indent=2) + "\n"
