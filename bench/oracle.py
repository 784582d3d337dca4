"""Checks of the program's outputs against computations made apart from it.

Nothing here imports ``walkentropy``.  Vertex classes and walk counts come
from exact integer matrix powers (or, for HM(m), from its construction),
diagonals of exp(beta*A) from ``scipy.linalg.expm``, and the HM crossing
brackets from a grid scan over ``scipy.linalg.eigh``.  Every check returns a
list of error strings; an empty list means the output passed.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from collections import Counter

import numpy as np
import scipy.linalg

from inputs import GraphInput, exact_profiles

#: The documented contract (README, "Numerical contracts"): a crossing is a
#: root at which the relative diagonal spread is below 1e-8.
CROSSING_SPREAD_TOL = 1e-8
#: Documented bisection width of a crossing bracket.
BRACKET_WIDTH = 1e-12
#: Default maximality tolerance of ``entropy`` / ``verify-counterexample``.
MAXIMALITY_TOL = 1e-10
#: Step of the independent HM sign scan on (0, 10].
HM_SCAN_STEP = 1e-3
#: Half-width of the window across which a crossing pair must change sign.
SIGN_WINDOW = 1e-6
#: A pair difference counts as signed only above this share of the mean centrality.
SIGN_RESOLUTION = 1e-12


def spread(values: np.ndarray) -> float:
    return float((values.max() - values.min()) / values.mean())


class Facts:
    """Independent facts about one input graph, computed once and cached."""

    def __init__(self, gi: GraphInput):
        self.gi = gi
        n = gi.n
        self.adj = np.zeros((n, n))
        for u, v in gi.edges:
            self.adj[u, v] = self.adj[v, u] = 1.0
        deg = [0] * n
        for u, v in gi.edges:
            deg[u] += 1
            deg[v] += 1
        self.degrees = deg
        self.histogram = {str(k): c for k, c in sorted(Counter(deg).items())}
        if gi.kind == "hm":
            hubs = set(gi.hubs)
            rest = tuple(v for v in range(n) if v not in hubs)
            self.classes = tuple(sorted((tuple(gi.hubs), rest)))
            # closed-walk counts at lengths 0, 1, 2 are 1, 0 and the degree
            self.profiles = [(1, 0, d) for d in deg]
            self.first_diff = 2
        else:
            self.profiles = exact_profiles(n, gi.edges, max(1, n - 1))
            groups: dict[tuple[int, ...], list[int]] = {}
            for v, prof in enumerate(self.profiles):
                groups.setdefault(prof, []).append(v)
            self.classes = tuple(tuple(g) for g in sorted(groups.values()))
            self.first_diff = next(
                (l for l in range(len(self.profiles[0]))
                 if len({p[l] for p in self.profiles}) > 1),
                None,
            )
        self.reps = [c[0] for c in self.classes]
        self._expm: dict[float, np.ndarray] = {}

    @property
    def walk_regular(self) -> bool:
        return len(self.classes) == 1

    def diag(self, beta: float) -> np.ndarray:
        if beta not in self._expm:
            self._expm[beta] = np.diag(scipy.linalg.expm(beta * self.adj)).copy()
        return self._expm[beta]

    def hm_brackets(self) -> list[tuple[float, float]]:
        """Sign-change cells of f_hub - f_clique on (0, 10], step HM_SCAN_STEP."""
        lam, vec = scipy.linalg.eigh(self.adj)
        w = vec**2
        hub = self.gi.hubs[0]
        other = next(v for v in range(self.gi.n) if v not in set(self.gi.hubs))
        betas = HM_SCAN_STEP * np.arange(0, int(round(10.0 / HM_SCAN_STEP)) + 1)
        signs = np.sign(np.exp(np.outer(betas, lam)) @ (w[hub] - w[other]))
        signs[0] = 1.0  # hubs have one more closed 2-walk: f_hub > f_clique as beta -> 0+
        cells = np.nonzero(signs[:-1] * signs[1:] < 0)[0]
        return [(float(betas[k]), float(betas[k + 1])) for k in cells]


def _sign_changes(f: Facts, beta: float, pair) -> bool:
    """Some class pair (or the given one) changes sign, above round-off, across beta."""
    lo, hi = f.diag(max(beta - SIGN_WINDOW, beta / 2)), f.diag(beta + SIGN_WINDOW)
    floor = SIGN_RESOLUTION * hi.mean()
    pairs = [pair] if pair is not None else [
        (a, b) for i, a in enumerate(f.reps) for b in f.reps[i + 1:]
    ]
    for a, b in pairs:
        d_lo, d_hi = lo[a] - lo[b], hi[a] - hi[b]
        if abs(d_lo) > floor and abs(d_hi) > floor and d_lo * d_hi < 0:
            return True
    return False


def _check_crossing_at(f: Facts, beta: float, pair=None) -> list[str]:
    errs = []
    s = spread(f.diag(beta))
    if not s <= CROSSING_SPREAD_TOL:
        errs.append(f"crossing at beta={beta!r}: expm spread {s:.3e} > {CROSSING_SPREAD_TOL:g}")
    if not _sign_changes(f, beta, pair):
        errs.append(f"crossing at beta={beta!r}: no class pair {pair} changes sign across it above round-off")
    return errs


def _check_hm_roots(f: Facts, betas: list[float]) -> list[str]:
    brackets = f.hm_brackets()
    errs = []
    if len(betas) != len(brackets):
        errs.append(f"{f.gi.label}: {len(betas)} crossings, independent scan finds {len(brackets)}")
    for b in betas:
        if not any(lo <= b <= hi for lo, hi in brackets):
            errs.append(f"{f.gi.label}: crossing {b!r} outside every independent bracket")
    if f.gi.m == 4 and [round(b, 3) for b in betas] != [0.499, 1.912]:
        errs.append(f"HM(4) crossings {betas} are not the paper's 0.499 and 1.912")
    return errs


def check_report(f: Facts, doc: dict, pairs=None, rounded: bool = False) -> list[str]:
    """Check a ``CounterexampleReport.as_dict()`` (library or CLI JSON)."""
    gi, errs = f.gi, []
    verdict, scan = doc["verdict"], doc["scan"]
    classes = tuple(tuple(c) for c in verdict["classes"])
    if classes != f.classes or tuple(tuple(c) for c in scan["classes"]) != f.classes:
        errs.append(f"{gi.label}: classes {classes} != exact {f.classes}")
    if verdict["walk_regular"] != f.walk_regular or scan["walk_regular"] != f.walk_regular:
        errs.append(f"{gi.label}: walk_regular {verdict['walk_regular']} != exact {f.walk_regular}")
    w = verdict["witness"]
    if f.walk_regular:
        if w is not None:
            errs.append(f"{gi.label}: witness {w} on a walk-regular graph")
    elif w is None:
        errs.append(f"{gi.label}: no witness on a non-walk-regular graph")
    else:
        L, u, v = w["length"], w["u"], w["v"]
        if L != f.first_diff or (w["count_u"], w["count_v"]) != (
            f.profiles[u][L], f.profiles[v][L]
        ) or w["count_u"] == w["count_v"]:
            errs.append(f"{gi.label}: witness {w} disagrees with exact counts (first length {f.first_diff})")
    if doc["degree_histogram"] != f.histogram:
        errs.append(f"{gi.label}: degree histogram {doc['degree_histogram']} != {f.histogram}")

    crossings = scan["crossings"]
    count = len(crossings)
    if (doc["crossing_count"], doc["counterexample"], doc["crossing_bound"], doc["within_crossing_bound"]) != (
        count, (not f.walk_regular) and count >= 1, gi.n - 1, count <= gi.n - 1
    ):
        errs.append(f"{gi.label}: inconsistent summary fields {doc['crossing_count']}, {doc['counterexample']}")
    slack = 4e-12 if rounded else 0.0
    for k, c in enumerate(crossings):
        b = c["beta_star"]
        if not (c["bracket_lo"] - slack <= b <= c["bracket_hi"] + slack) or (
            c["bracket_hi"] - c["bracket_lo"] > BRACKET_WIDTH + slack
        ):
            errs.append(f"{gi.label}: bracket [{c['bracket_lo']!r}, {c['bracket_hi']!r}] around {b!r}")
        errs += _check_crossing_at(f, b, None if pairs is None else pairs[k])
        d = f.diag(b)
        for cls in c["classes"]:
            r = cls["representative"]
            if abs(cls["f"] - d[r]) > 1e-8 * d[r]:
                errs.append(f"{gi.label}: f_{r}({b!r}) = {cls['f']!r}, expm gives {d[r]!r}")

    maximal_at_one = doc["entropy_maximal_at_beta_one"]
    if f.walk_regular and not maximal_at_one:
        errs.append(f"{gi.label}: walk-regular but not maximal at beta = 1")
    if not f.walk_regular and maximal_at_one and spread(f.diag(1.0)) > 1e-6:
        errs.append(f"{gi.label}: reported maximal at beta = 1, expm spread {spread(f.diag(1.0)):.3e}")
    if gi.kind == "circulant" and (not f.walk_regular or crossings or not maximal_at_one):
        errs.append(f"{gi.label}: a circulant must be walk-regular, crossing-free and maximal at 1")
    if gi.kind == "hm":
        if w is None or w["length"] != 2 or sorted((w["count_u"], w["count_v"])) != [gi.m, gi.m + 1]:
            errs.append(f"{gi.label}: witness {w} is not length 2 with counts {gi.m + 1} vs {gi.m}")
        errs += _check_hm_roots(f, [c["beta_star"] for c in crossings])
    return errs


def check_entropy_json(f: Facts, out: str, beta: float) -> list[str]:
    doc = json.loads(out)
    errs = []
    d = f.diag(beta)
    p_ind = d / d.sum()
    h_ind = float(-(p_ind * np.log(p_ind)).sum())
    p = np.array(doc["probabilities"])
    n = f.gi.n
    if p.shape != (n,) or abs(doc["beta"] - beta) > 1e-12:
        return [f"entropy: {p.shape[0]} probabilities at beta {doc['beta']}"]
    if np.abs(p - p_ind).max() > 1e-9 * p_ind.max():
        errs.append("entropy: probabilities disagree with expm")
    if abs(doc["entropy"] - h_ind) > 1e-9 or abs(doc["max_entropy"] - math.log(n)) > 1e-10:
        errs.append(f"entropy: {doc['entropy']!r} vs expm {h_ind!r}")
    if abs(doc["deficit"] - (math.log(n) - h_ind)) > 1e-9 or abs(doc["trace"] - d.sum()) > 1e-9 * d.sum():
        errs.append("entropy: deficit or trace disagrees with expm")
    s_ind = spread(d)
    if abs(doc["spread"] - s_ind) > 1e-9 + 1e-6 * s_ind or doc["is_maximal"] != (s_ind <= MAXIMALITY_TOL):
        errs.append(f"entropy: spread {doc['spread']!r} / maximal {doc['is_maximal']} vs expm {s_ind!r}")
    if f.gi.m == 4 and beta == 1.0:
        fvals = p * doc["trace"]
        hubs = set(f.gi.hubs)
        want = [6.481 if v in hubs else 7.175 for v in range(n)]
        if [round(float(x), 3) for x in fvals] != want:
            errs.append("entropy: HM(4) f(1) is not 6.481 (hubs) and 7.175 (clique vertices)")
    return errs


def _check_scan_rows(f: Facts, rows: list[tuple[float, float, float, float, float, list[float]]],
                     reps: list[int], beta_max: float, step: float) -> list[str]:
    errs = []
    n = f.gi.n
    if reps != f.reps:
        return [f"scan: class representatives {reps} != exact {f.reps}"]
    expected = int(math.floor(beta_max / step + 1e-9)) + 1
    if len(rows) != expected:
        return [f"scan: {len(rows)} rows, expected {expected}"]
    sizes = np.array([len(c) for c in f.classes], dtype=float)
    log_n = math.log(n)
    for k, (beta, h, hmax, deficit, s, fc) in enumerate(rows):
        fc = np.array(fc)
        total = float(sizes @ fc)
        q = fc / total
        h_ind = float(-(sizes * q * np.log(q)).sum())
        s_ind = float((fc.max() - fc.min()) / (total / n))
        bad = (
            abs(beta - k * step) > 1e-9
            or abs(h - h_ind) > 1e-9
            or abs(hmax - log_n) > 1e-10
            or abs(deficit - (log_n - h_ind)) > 1e-9
            or abs(s - s_ind) > 1e-9 + 1e-6 * s_ind
        )
        if bad:
            errs.append(f"scan row {k} (beta={beta}): entropy {h!r} vs class columns {h_ind!r}")
            break
    for k in (0, len(rows) // 2, len(rows) - 1):
        beta, fc = rows[k][0], np.array(rows[k][5])
        d = f.diag(beta)[reps]
        if np.abs(fc - d).max() > 1e-9 * d.max():
            errs.append(f"scan row {k}: class values disagree with expm at beta={beta}")
    return errs


def check_scan_csv(f: Facts, out: str, beta_max: float, step: float) -> list[str]:
    table = list(csv.reader(io.StringIO(out)))
    head = table[0]
    if head[:5] != ["beta", "entropy", "max_entropy", "deficit", "spread"]:
        return [f"scan csv: header {head[:5]}"]
    reps = [int(c[len("f_v"):]) for c in head[5:]]
    rows = [(*map(float, r[:5]), [float(x) for x in r[5:]]) for r in table[1:]]
    return _check_scan_rows(f, rows, reps, beta_max, step)


def check_scan_json(f: Facts, out: str, beta_max: float, step: float) -> list[str]:
    doc = json.loads(out)
    reps = [int(r) for r in doc[0]["class_values"]]
    rows = [
        (r["beta"], r["entropy"], r["max_entropy"], r["deficit"], r["spread"],
         [r["class_values"][str(rep)] for rep in reps])
        for r in doc
    ]
    return _check_scan_rows(f, rows, reps, beta_max, step)


_WITNESS = re.compile(r"witness: length (\d+), vertices (\d+) and (\d+), counts (\d+) vs (\d+)")
_CLASSES = re.compile(r"classes: (\d+) \(representatives: ([\d, ]+)\)")
_CROSSING = re.compile(r"crossing: beta\* = (\S+)  bracket_width = (\S+)  spread = (\S+)")


def check_walk_regular_human(f: Facts, out: str) -> list[str]:
    lines = out.splitlines()
    errs = []
    if lines[0] != f"walk-regular: {'true' if f.walk_regular else 'false'}":
        errs.append(f"check-walk-regular: {lines[0]!r}, exact says {f.walk_regular}")
    if not f.walk_regular:
        m = _WITNESS.fullmatch(lines[1]) if len(lines) > 1 else None
        if m is None:
            return errs + [f"check-walk-regular: no witness line in {out!r}"]
        L, u, v, cu, cv = map(int, m.groups())
        if L != f.first_diff or (cu, cv) != (f.profiles[u][L], f.profiles[v][L]) or cu == cv:
            errs.append(f"check-walk-regular: witness {m.group(0)!r} disagrees with exact counts")
    m = _CLASSES.fullmatch(lines[-1])
    if m is None or int(m.group(1)) != len(f.classes) or [
        int(x) for x in m.group(2).split(", ")
    ] != f.reps:
        errs.append(f"check-walk-regular: {lines[-1]!r}, exact reps {f.reps}")
    return errs


def check_find_crossings_human(f: Facts, out: str) -> list[str]:
    lines = out.splitlines()
    errs = []
    if lines[0] != "walk-regular: false":
        errs.append(f"find-crossings: first line {lines[0]!r} on a non-walk-regular graph")
    betas = []
    for line in lines[1:]:
        m = _CROSSING.fullmatch(line)
        if m is None:  # HM has two classes, so every root is a crossing
            errs.append(f"find-crossings: unexpected line {line!r}")
            continue
        beta, width = float(m.group(1)), float(m.group(2))
        betas.append(beta)
        if width > BRACKET_WIDTH * (1 + 1e-5):
            errs.append(f"find-crossings: bracket width {width} > {BRACKET_WIDTH}")
        errs += _check_crossing_at(f, beta)
    return errs + _check_hm_roots(f, betas)
