"""Shared fixtures: named small graphs, the seeded random-graph corpus and
brute-force oracles."""

import itertools
import json
import math
import random

import numpy as np
import pytest
from hypothesis import strategies as st

from walkentropy.cli import _round_floats
from walkentropy.entropy import EntropyReport, relative_spread
from walkentropy.graphs import Graph
from walkentropy.spectral import (
    CentralityDiagonal,
    SpectralDecomposition,
    centrality_diagonal,
    eigendecompose,
)
from walkentropy.temperature import (
    CROSSING_SPREAD_TOL,
    DEDUPE_TOL,
    CrossingReport,
    CrossingScan,
    PairwiseCrossing,
    _scan_pair,
)
from walkentropy.walks import closed_walk_table, vertex_classes

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


def class_difference(d: SpectralDecomposition, i: int, j: int, beta: float) -> float:
    """f_i(beta) - f_j(beta) from the spectral weights at one beta.

    The reference for the sign regimes of a class pair: one gemv of the
    weight difference with ``exp(beta * lambda)``.
    """
    return float((d.weights[i] - d.weights[j]) @ np.exp(beta * d.eigenvalues))


def all_pairs_scan(
    g: Graph, beta_max: float = 10.0, grid_step: float = 0.01
) -> tuple[CrossingScan, dict]:
    """``find_crossings`` with every class pair sent through ``_scan_pair``.

    The reference for the idle-pair screen: no pair is skipped, and each
    0+ sign comes from ``bigint_closed_walk_table`` at length n - 1.
    Returns the scan and each pair's ``_scan_pair`` result, in pair order.
    """
    classes = vertex_classes(g)
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
        sign = zero_plus_sign(profiles, *pair)
        diff = f_reps[:, a] - f_reps[:, b]
        per_pair[pair] = _scan_pair(d, betas, diff, mean_f, sign, grid_step, pair)

    candidates = sorted(
        (c for cand, _ in per_pair.values() for c in cand), key=lambda c: c[0]
    )
    merged = []
    for cand in candidates:
        if not merged or cand[0] - merged[-1][0] > DEDUPE_TOL:
            merged.append(cand)
    crossings, pairwise = [], []
    for beta_star, lo, hi, pair in merged:
        cd = centrality_diagonal(d, beta_star)
        spread = relative_spread(cd.values)
        if spread <= CROSSING_SPREAD_TOL:
            values = tuple(float(cd.values[r]) for r in reps)
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
) -> CentralityDiagonal:
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
    return CentralityDiagonal(float(beta), values, float(values.sum()))


def per_point_report(d: SpectralDecomposition, beta: float, tol: float) -> EntropyReport:
    """Walk entropy at one beta by the one-point formulas, no batching.

    The reference for the batched grid: the diagonal is the gemv
    ``weights @ exp(beta * lambda)``, its trace the sum of the exponentials,
    and the entropy that of the nonzero probabilities.
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
        is_maximal=spread <= tol,
    )


def per_point_scan(
    d: SpectralDecomposition, beta_min: float, beta_max: float, step: float, tol: float
) -> list[EntropyReport]:
    """The scan grid evaluated one beta at a time."""
    count = int(math.floor((beta_max - beta_min) / step + 1e-9)) + 1
    return [per_point_report(d, beta_min + t * step, tol) for t in range(count)]


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
