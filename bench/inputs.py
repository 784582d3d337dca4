"""Seeded inputs for the three workloads.

The benchmark builds every graph itself, from ``random.Random(seed)``, and
hands the program only edge-list text (or CLI argv naming edge-list files).
Nothing here calls into ``walkentropy``, so the structural facts the checks
rely on (which vertices are HM hubs, which graphs are circulants) come from
the construction, not from the program under test.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

#: HM(m) ladder: m = 3 .. 9 gives n = 15 .. 99.
HM_LADDER = tuple(range(3, 10))
HM_LADDER_SMOKE = (3, 4)

#: Random corpus strata: every n in 4..14 at every density, three draws each,
#: plus two seeded circulants per n.  The make-up is fixed; only the draws
#: depend on the seed, so corpus-level percentiles move little between seeds.
CORPUS_SIZES = tuple(range(4, 15))
CORPUS_DENSITIES = (0.05, 0.15, 0.25, 0.35, 0.45, 0.6)
CORPUS_DRAWS = 3
CORPUS_CIRCULANTS = 2
CORPUS_SIZES_SMOKE = (4, 5, 6)
CORPUS_DENSITIES_SMOKE = (0.2, 0.5)

#: CLI scan grid: beta in [0, SCAN_BETA_MAX] at SCAN_STEP (4001 points).
SCAN_BETA_MAX = 4.0
SCAN_STEP = 0.001
SCAN_STEP_SMOKE = 0.1
CLI_GRAPH_N = 16
CLI_GRAPH_DENSITY = 0.3

#: Corpus graphs with a vertex-class pair whose closed-walk counts first differ
#: at this length or later are redrawn.  ``find_crossings`` takes the sign at
#: its first grid node (beta = 0.01) from a spectral sum whose true value is
#: about 0.01^l / l! <= 1.4e-15 there, i.e. round-off, and bisects the noise
#: into a false crossing near beta = 1e-13 on some seeds but not others.
#: The fault stays on view through FAULT_TREE_EDGES, which fails the same way
#: in every run.
DEEP_PAIR_LENGTH = 6

#: A 7-vertex tree on which ``find_crossings`` reports a false crossing at
#: beta = 3.7e-13 (and so calls the tree a counterexample).  Fixed, not seeded.
FAULT_TREE_EDGES = ((0, 3), (0, 4), (1, 2), (2, 4), (3, 5), (4, 6))


@dataclass(frozen=True)
class GraphInput:
    """One graph as the program receives it, plus what the checks know about it."""

    label: str
    n: int
    edges: tuple[tuple[int, int], ...]  # u < v, sorted
    text: str  # edge-list text handed to the program
    kind: str  # "hm", "random" or "circulant"
    hubs: tuple[int, ...] = ()  # HM(m) hub vertices after relabelling
    m: int = 0  # HM parameter
    fault: str = ""  # a known program fault this input fails on every run


@dataclass(frozen=True)
class CliCall:
    """One CLI invocation of the cli-mix workload."""

    label: str
    argv: tuple[str, ...]
    command: str
    graph: GraphInput  # the graph the invocation reads or generates
    fmt: str


def _normalize(pairs) -> tuple[tuple[int, int], ...]:
    return tuple(sorted({(min(u, v), max(u, v)) for u, v in pairs}))


def _to_input(rng: random.Random, label: str, n: int, pairs, kind: str, **extra) -> GraphInput:
    edges = _normalize(pairs)
    lines = [f"{u} {v}" if rng.random() < 0.5 else f"{v} {u}" for u, v in edges]
    rng.shuffle(lines)
    text = f"# {label}\nn {n}\n" + "\n".join(lines) + "\n"
    return GraphInput(label, n, edges, text, kind, **extra)


def exact_profiles(n: int, edges, L: int) -> list[tuple[int, ...]]:
    """Rows (A^0)_ii .. (A^L)_ii in exact integers.

    int64 is exact while Delta^L < 2^63 (entries of A^l are at most
    Delta^l and every partial sum is bounded by the final entry); otherwise
    Python integers are used.
    """
    adj = np.zeros((n, n), dtype=np.int64)
    for u, v in edges:
        adj[u, v] = adj[v, u] = 1
    delta = int(adj.sum(axis=1).max())
    if delta > 1 and L * math.log2(delta) >= 62:
        adj = adj.astype(object)
    power = np.eye(n, dtype=adj.dtype)
    cols = [np.diag(power).tolist()]
    for _ in range(L):
        power = power @ adj
        cols.append(np.diag(power).tolist())
    return [tuple(int(cols[l][v]) for l in range(L + 1)) for v in range(n)]


def deepest_pair_length(gi: GraphInput) -> int:
    """Largest first-difference walk length over pairs of distinct walk profiles."""
    profiles = sorted(set(exact_profiles(gi.n, gi.edges, max(1, gi.n - 1))))
    deepest = 0
    for a, p in enumerate(profiles):
        for q in profiles[a + 1:]:
            deepest = max(deepest, next(l for l in range(len(p)) if p[l] != q[l]))
    return deepest


def hm_input(rng: random.Random, m: int, relabel: bool = True) -> GraphInput:
    """HM(m), built here from its definition, with vertices relabelled at random.

    Before relabelling, vertices 0..m-1 are the hubs and block c (0 <= c <= m)
    is the m-clique ``m + c*m .. m + c*m + m - 1``; hub i meets vertex i of
    every block.
    """
    n = m * m + 2 * m
    pairs = []
    for c in range(m + 1):
        base = m + c * m
        pairs += [(base + i, base + j) for i in range(m) for j in range(i + 1, m)]
        pairs += [(i, base + i) for i in range(m)]
    perm = list(range(n))
    if relabel:
        rng.shuffle(perm)
    pairs = [(perm[u], perm[v]) for u, v in pairs]
    return _to_input(rng, f"HM({m})", n, pairs, "hm", hubs=tuple(sorted(perm[:m])), m=m)


def random_connected_input(rng: random.Random, n: int, p: float, label: str) -> GraphInput:
    """Random spanning tree plus every other pair with probability p."""
    verts = list(range(n))
    rng.shuffle(verts)
    pairs = {(verts[i], verts[rng.randrange(i)]) for i in range(1, n)}
    pairs |= {(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p}
    return _to_input(rng, label, n, pairs, "random")


def circulant_input(rng: random.Random, n: int, label: str) -> GraphInput:
    """Connected circulant C_n(S), relabelled at random (still vertex-transitive)."""
    while True:
        jumps = rng.sample(range(1, n // 2 + 1), rng.randint(1, n // 2))
        if math.gcd(n, *jumps) == 1:
            break
    perm = list(range(n))
    rng.shuffle(perm)
    pairs = [(perm[i], perm[(i + s) % n]) for i in range(n) for s in jumps]
    return _to_input(rng, f"{label} S={sorted(jumps)}", n, pairs, "circulant")


def hm_ladder(seed: int, smoke: bool = False) -> list[GraphInput]:
    rng = random.Random(seed)
    return [hm_input(rng, m) for m in (HM_LADDER_SMOKE if smoke else HM_LADDER)]


def fault_tree_input() -> GraphInput:
    return _to_input(random.Random(0), "fault tree n=7", 7, FAULT_TREE_EDGES, "random",
                     fault="false crossing near beta = 0 (see DEEP_PAIR_LENGTH)")


def random_corpus(seed: int, smoke: bool = False) -> list[GraphInput]:
    """Stratified random connected graphs and circulants, then the fault tree last."""
    rng = random.Random(seed)
    sizes = CORPUS_SIZES_SMOKE if smoke else CORPUS_SIZES
    densities = CORPUS_DENSITIES_SMOKE if smoke else CORPUS_DENSITIES
    draws = 1 if smoke else CORPUS_DRAWS
    circulants = 1 if smoke else CORPUS_CIRCULANTS
    corpus = []
    for n in sizes:
        for p in densities:
            for d in range(draws):
                while True:
                    gi = random_connected_input(rng, n, p, f"random n={n} p={p} #{d}")
                    if deepest_pair_length(gi) < DEEP_PAIR_LENGTH:
                        break
                corpus.append(gi)
        for d in range(circulants):
            corpus.append(circulant_input(rng, n, f"circulant n={n} #{d}"))
    rng.shuffle(corpus)
    return corpus + [fault_tree_input()]


def cli_mix(seed: int, workdir: Path, smoke: bool = False) -> list[CliCall]:
    """Write the cli-mix edge-list files into ``workdir`` and return the calls."""
    rng = random.Random(seed)
    g = random_connected_input(rng, CLI_GRAPH_N, CLI_GRAPH_DENSITY, f"random n={CLI_GRAPH_N}")
    hm4 = hm_input(rng, 4)
    hm5 = hm_input(rng, 5)
    hm4_builtin = hm_input(rng, 4, relabel=False)  # what `--hm 4` generates
    workdir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, gi in (("g", g), ("hm4", hm4), ("hm5", hm5)):
        paths[name] = workdir / f"{name}.edges"
        paths[name].write_text(gi.text)
    step = str(SCAN_STEP_SMOKE if smoke else SCAN_STEP)
    scan = ("scan", str(paths["g"]), "--beta-max", str(SCAN_BETA_MAX), "--step", step)

    def call(label, argv, graph, fmt):
        return CliCall(label, tuple(argv), argv[0], graph, fmt)

    return [
        call("check-walk-regular g", ("check-walk-regular", str(paths["g"])), g, "human"),
        call("entropy hm4 json", ("entropy", str(paths["hm4"]), "--beta", "1", "--format", "json"), hm4, "json"),
        call("find-crossings hm5", ("find-crossings", str(paths["hm5"])), hm5, "human"),
        call("verify-counterexample --hm 4 json", ("verify-counterexample", "--hm", "4", "--format", "json"), hm4_builtin, "json"),
        call("scan g csv", scan + ("--format", "csv"), g, "csv"),
        call("scan g json", scan + ("--format", "json"), g, "json"),
    ]
