"""Exact closed-walk counts and the walk-regularity decision.

The number of closed walks grows exponentially with the length, and the
verdict is a discrete mathematical claim that floating-point error must
not be able to flip, so every count is an exact Python integer.  The
counts are computed modulo a few word-size moduli by float64 BLAS matrix
products, in which every intermediate value is an integer below 2^53 and
hence exact, and rebuilt by the Chinese remainder theorem: a count lies
in [0, Delta^l], so its residue modulo a product of moduli exceeding
Delta^L *is* the count.

Lengths 0..d-1 decide walk-regularity, d being the degree of the minimal
polynomial of the adjacency matrix A: every higher power is a fixed
linear combination of the first d, so two vertices whose counts agree up
to length d-1 agree at every length.  A is symmetric, hence
diagonalizable, so d = kappa, the number of distinct eigenvalues, which
can be far below n (kappa = 6 for every HM(m)).  Floats only propose:
the eigenvalues, clustered as :func:`~walkentropy.spectral.eigendecompose`
clusters them, give the monic integer polynomial q rounded from
prod (x - lambda).  Exact arithmetic disposes: q(A) = 0 is checked by the
same multi-modular products, and when it holds the minimal polynomial
divides q, so the table to length deg q - 1 decides everything whatever
error the eigensolver made.  Otherwise the table runs to n - 1, which
d <= n always justifies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Optional, Sequence

import numpy as np

from .graphs import Graph
from .spectral import _cluster_means, _cluster_starts

__all__ = [
    "ExactWalkTable",
    "WalkRegularityWitness",
    "WalkRegularityVerdict",
    "closed_walk_table",
    "vertex_classes",
    "is_walk_regular",
]


@dataclass(frozen=True)
class ExactWalkTable:
    """Exact diagonals of A^l for l = 0..L.

    ``diag[i][l]`` is the number of closed walks of length l at vertex i,
    i.e. the integer ``[A^l]_{ii}``.  Tables built for a verdict stop at
    the certified length L (see the module docstring), not at n - 1.
    """

    L: int
    diag: tuple[tuple[int, ...], ...]


class WalkRegularityWitness(NamedTuple):
    length: int
    u: int
    v: int
    count_u: int
    count_v: int


@dataclass(frozen=True)
class WalkRegularityVerdict:
    """Outcome of the exact walk-regularity decision.

    ``witness`` names the first length at which two vertices disagree
    (absent when walk-regular); ``classes`` partitions the vertices by
    their full closed-walk profile, ordered by smallest member.
    """

    is_walk_regular: bool
    witness: Optional[WalkRegularityWitness]
    classes: tuple[tuple[int, ...], ...]

    def as_dict(self) -> dict:
        return {
            "walk_regular": self.is_walk_regular,
            "witness": None if self.witness is None else self.witness._asdict(),
            "classes": [list(c) for c in self.classes],
        }


def _moduli(max_degree: int, bound: int) -> list[int]:
    """Pairwise coprime moduli m < 2^52 / Delta whose product exceeds ``bound``.

    Walks down from ``2**52 // Delta - 1`` keeping each candidate coprime
    to the product kept so far; no primality test is needed.
    """
    delta = max(max_degree, 1)
    moduli: list[int] = []
    product = 1
    m = 2**52 // delta - 1
    while product <= bound:
        if math.gcd(m, product) == 1:
            moduli.append(m)
            product *= m
        m -= 1
    return moduli


def _horner_residues(
    a: np.ndarray, moduli: list[int], coeffs: Sequence[int]
) -> Iterator[np.ndarray]:
    """Residues of R <- R @ A + c*I for each c in ``coeffs``, starting at R = I.

    Yields the ``(k, n, n)`` residue stack after every step (the same
    buffers are reused, so read each before the next).  Each step is one
    BLAS product of the k stacked copies, ``c`` reduced into [-m/2, m/2]
    added to the diagonal, and the reduction ``x - rint(x * (1/m)) * m``,
    which leaves every residue r in about [-m/2, m/2].

    The arithmetic is exact.  With Delta the maximum degree, every modulus
    has m * Delta < 2^52.  A is 0/1 with at most Delta ones per column, so
    every entry of ``P @ A``, and every partial sum BLAS forms on the way
    to it in whatever order, is an integer of magnitude at most
    Delta * max|r|, and adding c keeps it below Delta * (m/2 + 1) + m/2
    < 2^53, hence exact.  ``q = rint(x * (1/m))`` is within
    1/2 + Delta * 2^-52 of x/m (a rounding error only picks the other of
    two valid representatives), so ``q * m`` and ``x - q * m`` are integers
    below 2^53, exact too, and |r| <= m/2 + 1 again.
    """
    k, n = len(moduli), a.shape[0]
    m = np.array(moduli, dtype=float).reshape(k, 1, 1)
    inv_m = 1.0 / m
    idx = np.arange(n)
    power = np.zeros((k, n, n))
    power[:, idx, idx] = 1.0
    product = np.empty_like(power)
    quot = np.empty_like(power)
    for c in coeffs:
        np.matmul(power.reshape(k * n, n), a, out=product.reshape(k * n, n))
        if c:
            product[:, idx, idx] += [[(c + mj // 2) % mj - mj // 2] for mj in moduli]
        np.multiply(product, inv_m, out=quot)
        np.rint(quot, out=quot)
        np.multiply(quot, m, out=quot)
        np.subtract(product, quot, out=product)
        power, product = product, power
        yield power


def closed_walk_table(g: Graph, L: int) -> ExactWalkTable:
    """Exact diagonals of A^l for l = 0..L by multi-modular float64 BLAS.

    The residues of A^l modulo each of k moduli are stacked as one
    ``(k*n, n)`` float64 array and advanced one length per BLAS product
    (:func:`_horner_residues` with every c = 0, where the exactness
    argument is spelled out).  The counts are rebuilt once at the end by
    the Chinese remainder theorem as Python ``int``s: a count lies in
    [0, Delta^l] and the moduli's product exceeds Delta^L, so the residue
    is the count.
    """
    if L < 1:
        raise ValueError(f"L must be >= 1, got {L}")
    delta = max(g.degrees())
    moduli = _moduli(delta, max(delta, 1) ** L)
    n, k = g.n, len(moduli)
    idx = np.arange(n)
    residues = np.empty((n, L + 1, k))
    residues[:, 0, :] = 1.0
    steps = _horner_residues(g.adjacency_matrix(), moduli, [0] * L)
    for length, power in enumerate(steps, start=1):
        residues[:, length, :] = power[:, idx, idx].T

    modulus = math.prod(moduli)
    rests = [modulus // mj for mj in moduli]
    coef = np.array([r * pow(r, -1, mj) for r, mj in zip(rests, moduli)], dtype=object)
    counts = (residues.astype(np.int64).astype(object) @ coef) % modulus
    # tuple() of a list, not of an iterator: CPython grows an iterator's
    # tuple past 10 items by realloc, and each such tuple freed lands on a
    # free list that no later tuple of its size is drawn from, so memory
    # piled up with every call (about 2 MB after 60 corpus passes)
    return ExactWalkTable(L, tuple([tuple(row) for row in counts.tolist()]))


def _certified_length(g: Graph) -> int:
    """Table length deciding every length: deg q - 1 if q(A) = 0, else n - 1.

    Either length suffices (module docstring).  The check costs deg q BLAS
    steps and saves n - deg q, so it runs only when 2*kappa - 1 < n - 1;
    otherwise the floats are not even rounded.  ``q`` is checked modulo
    moduli whose product exceeds sum |c_j| * Delta^(deg q - j), a bound on
    every entry of q(A); a proposed coefficient of 2^52 or more falls back
    unchecked.
    """
    full = max(1, g.n - 1)
    a = g.adjacency_matrix()
    try:
        lam = np.linalg.eigvalsh(a)[::-1]
    except np.linalg.LinAlgError:
        return full
    starts = _cluster_starts(lam)
    if 2 * len(starts) - 1 >= g.n - 1:
        return full
    distinct = _cluster_means(lam, starts)
    kappa = distinct.size
    # q is monic by construction: only its lower coefficients are proposed
    proposed = np.rint(np.poly(distinct)[1:])
    if not np.abs(proposed).max() < 2**52:
        return full
    coeffs = [1] + [int(c) for c in proposed]
    delta = max(g.degrees())
    bound = sum(abs(c) * max(delta, 1) ** (kappa - j) for j, c in enumerate(coeffs))
    moduli = _moduli(delta, bound)
    *_, residue = _horner_residues(a, moduli, coeffs[1:])
    m = np.array(moduli, dtype=float).reshape(-1, 1, 1)
    if np.fmod(residue, m).any():
        return full
    return max(1, kappa - 1)


def _verdict(table: ExactWalkTable) -> WalkRegularityVerdict:
    """Walk-regularity verdict from a table over lengths 0..L.

    ``table.L`` must be a length that decides every length, n - 1 or the
    certified :func:`_certified_length`.
    The witness is the first length at which a vertex disagrees with
    vertex 0; classes group vertices by profile, smallest member first.
    """
    first = table.diag[0]
    witness = next(
        (
            WalkRegularityWitness(length, 0, j, first[length], row[length])
            for length in range(table.L + 1)
            for j, row in enumerate(table.diag)
            if row[length] != first[length]
        ),
        None,
    )
    groups: dict[tuple[int, ...], list[int]] = {}
    for i, profile in enumerate(table.diag):
        groups.setdefault(profile, []).append(i)
    # tuple() of a list: see closed_walk_table
    classes = tuple([tuple(members) for members in sorted(groups.values())])
    return WalkRegularityVerdict(witness is None, witness, classes)


def vertex_classes(g: Graph) -> tuple[tuple[int, ...], ...]:
    """Partition vertices by their closed-walk profile over lengths 0..L.

    L is the certified table length, at most n - 1.  Vertices in the same
    class have identical walk counts at *every* length (profiles up to
    kappa - 1 determine all higher powers), hence identical
    subgraph-centrality functions of beta.
    """
    return is_walk_regular(g).classes


def is_walk_regular(g: Graph) -> WalkRegularityVerdict:
    """Decide walk-regularity exactly.

    Checks lengths 0..L only, L the certified length: kappa - 1 when the
    exact q(A) = 0 check passes, else n - 1 (sufficient either way, see the
    module docstring).  Reports the first violated length with a
    differing vertex pair.
    """
    return _verdict(closed_walk_table(g, _certified_length(g)))
