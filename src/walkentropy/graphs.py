"""Simple-graph representation, edge-list I/O, and the HM(m) generator.

Vertices are the integers 0..n-1.  A :class:`Graph` is immutable and
hashable, so instances can be shared freely across threads and used as
dictionary keys.  The edge-list text format used by :func:`parse_edge_list`
and :func:`serialize_edge_list` is the toolkit's only interchange format:
one ``u v`` pair per line, ``#`` comments, and an optional leading
``n <count>`` header to declare trailing isolated vertices.
"""

from __future__ import annotations

import operator
from collections import Counter
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "Graph",
    "DegreeSummary",
    "EdgeListError",
    "parse_edge_list",
    "serialize_edge_list",
    "degree_summary",
    "hm_graph",
]


class EdgeListError(ValueError):
    """Malformed edge-list text; the message carries the 1-based line number."""


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph: a vertex count and a set of edges.

    Edges are normalized to ``(u, v)`` with ``u < v`` on construction, so
    duplicates and reversed pairs collapse.  Self-loops, out-of-range
    endpoints and endpoints that are not integers (``operator.index``
    fails, as for ``1.9`` or ``"1"``) are rejected.
    """

    n: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or self.n < 1:
            raise ValueError(f"vertex count must be a positive integer, got {self.n!r}")
        normalized = set()
        for u, v in self.edges:
            try:
                u, v = operator.index(u), operator.index(v)
            except TypeError:
                raise ValueError(f"edge ({u!r}, {v!r}) has a non-integer endpoint") from None
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={self.n}")
            normalized.add((u, v) if u < v else (v, u))
        object.__setattr__(self, "edges", frozenset(normalized))

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)

    def degrees(self) -> list[int]:
        deg = [0] * self.n
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg

    def adjacency_matrix(self) -> np.ndarray:
        """Dense symmetric 0/1 adjacency matrix with zero diagonal, built on
        first use and then shared: it is read-only, so copy it to mutate."""
        return self._adjacency

    @cached_property  # unlocked from Python 3.12: a race builds equal copies
    def _adjacency(self) -> np.ndarray:
        a = np.zeros((self.n, self.n))
        for u, v in self.edges:
            a[u, v] = a[v, u] = 1.0
        a.flags.writeable = False
        return a


@dataclass(frozen=True)
class DegreeSummary:
    degrees: tuple[int, ...]
    histogram: dict[int, int]


def degree_summary(g: Graph) -> DegreeSummary:
    """Per-vertex degrees and the degree -> count histogram."""
    deg = g.degrees()
    return DegreeSummary(tuple(deg), dict(sorted(Counter(deg).items())))


def parse_edge_list(text: str) -> Graph:
    """Parse edge-list text into a :class:`Graph`.

    Blank lines and lines starting with ``#`` are skipped.  The first
    non-comment line may be ``n <count>`` to declare the vertex count
    (the only way to express trailing isolated vertices); otherwise the
    count is one more than the largest endpoint seen.  ``(u, v)`` and
    ``(v, u)`` denote the same edge and duplicates are merged.

    Raises :class:`EdgeListError` (with the offending line number) on
    self-loops, non-integer tokens, or endpoints outside ``[0, n)``.
    """
    declared: int | None = None
    pairs: list[tuple[int, int, int]] = []
    header_allowed = True
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if header_allowed and tokens[0] == "n":
            header_allowed = False
            if len(tokens) != 2:
                raise EdgeListError(f"line {lineno}: expected 'n <count>', got {line!r}")
            try:
                declared = int(tokens[1])
            except ValueError:
                raise EdgeListError(
                    f"line {lineno}: non-integer vertex count {tokens[1]!r}"
                ) from None
            if declared < 1:
                raise EdgeListError(f"line {lineno}: vertex count must be positive")
            continue
        header_allowed = False
        if len(tokens) != 2:
            raise EdgeListError(
                f"line {lineno}: expected two vertex ids, got {len(tokens)} tokens"
            )
        try:
            u, v = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise EdgeListError(
                f"line {lineno}: non-integer vertex id in {line!r}"
            ) from None
        if u == v:
            raise EdgeListError(f"line {lineno}: self-loop at vertex {u}")
        if u < 0 or v < 0:
            raise EdgeListError(f"line {lineno}: negative vertex id in {line!r}")
        pairs.append((lineno, u, v))

    if declared is None and not pairs:
        raise EdgeListError("empty edge list and no 'n <count>' header")
    n = declared if declared is not None else 1 + max(max(u, v) for _, u, v in pairs)
    for lineno, u, v in pairs:
        if u >= n or v >= n:
            raise EdgeListError(
                f"line {lineno}: vertex {max(u, v)} out of range for n={n}"
            )
    return Graph(n, frozenset((u, v) for _, u, v in pairs))


def serialize_edge_list(g: Graph) -> str:
    """Deterministic edge-list text: ``n <count>`` header, then sorted edges."""
    lines = [f"n {g.n}"]
    lines.extend(f"{u} {v}" for u, v in g.sorted_edges())
    return "\n".join(lines) + "\n"


def hm_graph(m: int) -> Graph:
    """Hub-matching graph HM(m): m hubs matched into m+1 disjoint m-cliques.

    Vertices 0..m-1 are the hubs.  Block c (0 <= c <= m) occupies vertices
    ``m + c*m`` .. ``m + c*m + m - 1`` and induces a clique K_m; hub i is
    joined to the i-th vertex of every block (a perfect matching per block).
    The result has m^2 + 2m vertices: the m hubs have degree m+1 and the
    m^2 + m clique vertices have degree m, so HM(m) is never degree-regular
    for m >= 1 despite all of its clique vertices (and all of its hubs)
    being mutually interchangeable.
    """
    if m < 1:
        raise ValueError(f"m must be a positive integer, got {m}")
    edges = set()
    for c in range(m + 1):
        base = m + c * m
        for i in range(m):
            for j in range(i + 1, m):
                edges.add((base + i, base + j))
        for i in range(m):
            edges.add((i, base + i))
    return Graph(m * m + 2 * m, frozenset(edges))
