"""Shared fixtures: the seeded random-graph corpus and brute-force oracles."""

import math
import random

import numpy as np
import pytest

from walkentropy.graphs import Graph
from walkentropy.spectral import CentralityDiagonal
from walkentropy.walks import closed_walk_table

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


@pytest.fixture(scope="session")
def corpus() -> list[Graph]:
    """200 random connected graphs with 2 <= n <= 12, deterministic."""
    rng = random.Random(CORPUS_SEED)
    return [random_connected_graph(rng, rng.randint(2, 12)) for _ in range(CORPUS_SIZE)]


def brute_force_closed_walks(g: Graph, start: int, length: int) -> int:
    """Count closed walks by explicit enumeration; exponential, tiny graphs only."""
    nbrs = g.neighbors()

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
    nbrs = g.neighbors()
    n = g.n
    power = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    diag = [[1] for _ in range(n)]
    for _ in range(L):
        power = [[sum(row[k] for k in nbrs[j]) for j in range(n)] for row in power]
        for i in range(n):
            diag[i].append(power[i][i])
    return tuple(tuple(row) for row in diag)


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
