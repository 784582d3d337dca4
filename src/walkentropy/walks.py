"""Exact closed-walk counts and the walk-regularity decision.

Everything here runs on Python's arbitrary-precision integers: the number
of closed walks grows exponentially with the length, and the verdict is a
discrete mathematical claim that floating-point error must not be able to
flip.  Checking lengths 0..n-1 suffices to decide walk-regularity: the
minimal polynomial of the adjacency matrix has degree at most n, so every
higher power's diagonal is a fixed linear combination of the first n.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

from .graphs import Graph

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
    i.e. the integer ``[A^l]_{ii}``.
    """

    L: int
    diag: tuple[tuple[int, ...], ...]

    def trace(self, length: int) -> int:
        return sum(row[length] for row in self.diag)


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
            "witness": None
            if self.witness is None
            else {
                "length": self.witness.length,
                "u": self.witness.u,
                "v": self.witness.v,
                "count_u": self.witness.count_u,
                "count_v": self.witness.count_v,
            },
            "classes": [list(c) for c in self.classes],
        }


def closed_walk_table(g: Graph, L: int) -> ExactWalkTable:
    """Exact diagonals of A^l for l = 0..L by iterated integer multiplication.

    The full matrix is carried between steps (every consecutive power is
    needed anyway) and only the diagonals are kept.  Since A is 0/1, each
    step is a neighbor-sum: ``new[i][j] = sum(old[i][k] for k in N(j))``.
    """
    if L < 1:
        raise ValueError(f"L must be >= 1, got {L}")
    nbrs = g.neighbors()
    n = g.n
    power = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    diag = [[1] for _ in range(n)]
    for _ in range(L):
        power = [[sum(row[k] for k in nbrs[j]) for j in range(n)] for row in power]
        for i in range(n):
            diag[i].append(power[i][i])
    return ExactWalkTable(L, tuple(tuple(row) for row in diag))


def _verdict(table: ExactWalkTable) -> WalkRegularityVerdict:
    """Walk-regularity verdict from a table over lengths 0..n-1.

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
    classes = tuple(tuple(members) for members in sorted(groups.values()))
    return WalkRegularityVerdict(witness is None, witness, classes)


def vertex_classes(g: Graph) -> tuple[tuple[int, ...], ...]:
    """Partition vertices by their closed-walk profile over lengths 0..n-1.

    Vertices in the same class have identical walk counts at *every*
    length (profiles up to n-1 determine all higher powers), hence
    identical subgraph-centrality functions of beta.
    """
    return is_walk_regular(g).classes


def is_walk_regular(g: Graph) -> WalkRegularityVerdict:
    """Decide walk-regularity exactly.

    Checks lengths 0..n-1 only (sufficient, see module docstring) and
    reports the first violated length with a differing vertex pair.
    """
    return _verdict(closed_walk_table(g, max(1, g.n - 1)))
