"""Spans and counters recorded from outside the program.

:class:`Tracer` replaces every public function of the ``walkentropy``
layers with a timing wrapper, at every module attribute that holds it (so
``walkentropy.temperature.closed_walk_table`` and
``walkentropy.walks.closed_walk_table`` both go through the wrapper), and
restores the originals on :meth:`Tracer.uninstall`.  The program's files are
not modified.

A span is ``(id, name, start, end, parent id, operation id)``.  Self time is
a span's duration minus the durations of its direct children; calls are
single-threaded and nested, so the children never overlap.
"""

from __future__ import annotations

import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("graphs", "walks", "spectral", "entropy", "temperature", "cli")

#: Spans kept in memory for the span file; later spans are only aggregated.
SPAN_CAP = 50_000


def _grid_size(beta_max: float, grid_step: float) -> int:
    """Number of beta grid nodes ``find_crossings`` evaluates (0 included)."""
    steps = int(beta_max / grid_step + 1e-9)
    last = grid_step * steps
    return steps + 1 + (last < beta_max - 1e-12 * max(1.0, beta_max))


class Tracer:
    def __init__(self) -> None:
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.spans: list[tuple] = []
        self.dropped = 0
        self.op = -1  # operation id of the spans being recorded; -1 outside operations
        self._ops = 0
        self._next_id = 0
        self._stack: list[list] = [[0.0, -1]]  # [child time, span id]
        self._wrappers: list[tuple[object, str, object, object]] = []
        self._build()

    # -- spans -------------------------------------------------------------

    def begin(self) -> list:
        frame = [0.0, self._next_id, perf_counter()]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def end(self, name: str, frame: list) -> float:
        t1 = perf_counter()
        self._stack.pop()
        parent = self._stack[-1]
        duration = t1 - frame[2]
        parent[0] += duration
        self.self_s[name] += duration - frame[0]
        self.calls[name] += 1
        if len(self.spans) < SPAN_CAP:
            self.spans.append((frame[1], name, frame[2], t1, parent[1], self.op))
        else:
            self.dropped += 1
        return duration

    def next_op(self) -> None:
        self.op = self._ops
        self._ops += 1

    def reset_totals(self) -> None:
        self.self_s.clear()
        self.calls.clear()
        self.counts.clear()

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, name: str, fn, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            frame = tracer.begin()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(name, frame)
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def _build(self) -> None:
        import walkentropy

        modules = [walkentropy] + [sys.modules[f"walkentropy.{layer}"] for layer in LAYERS]
        counters = {
            "walks.closed_walk_table": self._count_table,
            "temperature.find_crossings": self._count_crossings,
        }
        crossings_sig = inspect.signature(sys.modules["walkentropy.temperature"].find_crossings)
        self._crossings_bind = crossings_sig.bind
        for layer in LAYERS:
            mod = sys.modules[f"walkentropy.{layer}"]
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                wrapper = self._wrap(name, fn, counters.get(name))
                for holder in modules:
                    for hattr, value in vars(holder).items():
                        if value is fn:
                            self._wrappers.append((holder, hattr, fn, wrapper))

    def install(self) -> None:
        for holder, attr, _, wrapper in self._wrappers:
            setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        for holder, attr, fn, _ in self._wrappers:
            setattr(holder, attr, fn)

    # -- counters recorded at the wrappers ---------------------------------

    def _count_table(self, args, kwargs, table) -> None:
        g = args[0] if args else kwargs["g"]
        # one big-integer addition per (step, row, neighbour entry): L * n * 2|E|
        self.counts["walks.table_adds"] += table.L * g.n * 2 * g.num_edges

    def _count_crossings(self, args, kwargs, scan) -> None:
        if scan.walk_regular:
            return
        bound = self._crossings_bind(*args, **kwargs)
        bound.apply_defaults()
        k = len(scan.classes)
        pairs = k * (k - 1) // 2
        grid = _grid_size(bound.arguments["beta_max"], bound.arguments["grid_step"])
        self.counts["temperature.pairs"] += pairs
        self.counts["temperature.grid_points"] += pairs * grid
        self.counts["temperature.candidates"] += len(scan.crossings) + len(scan.pairwise_only)
        self.counts["temperature.crossings"] += len(scan.crossings)


def layer_metrics(tracer: Tracer, pass_s: float) -> dict[str, float]:
    """Per-pass layer totals from the tracer's aggregates."""
    s, c, k = tracer.self_s, tracer.calls, tracer.counts

    def total(prefix: str) -> float:
        return sum(v for name, v in s.items() if name.startswith(prefix + "."))

    layers_self = sum(total(layer) for layer in LAYERS)
    candidates = k["temperature.candidates"]
    return {
        "graphs.parse_s": s["graphs.parse_edge_list"],
        "graphs.parse_calls": c["graphs.parse_edge_list"],
        "graphs.self_s": total("graphs"),
        "walks.table_s": s["walks.closed_walk_table"],
        "walks.table_calls": c["walks.closed_walk_table"],
        "walks.table_adds": k["walks.table_adds"],
        "walks.verdict_s": s["walks.is_walk_regular"],
        "walks.classes_s": s["walks.classes_from_table"] + s["walks.vertex_classes"],
        "walks.self_s": total("walks"),
        "spectral.eigh_s": s["spectral.eigendecompose"],
        "spectral.eigh_calls": c["spectral.eigendecompose"],
        "spectral.diag_s": s["spectral.centrality_diagonal"] + s["spectral.exp_eigenvalues"],
        "spectral.diag_calls": c["spectral.centrality_diagonal"],
        "spectral.self_s": total("spectral"),
        "entropy.report_s": s["entropy.walk_entropy"] + s["entropy.entropy_from_diagonal"],
        "entropy.points": c["entropy.entropy_from_diagonal"],
        "entropy.scan_s": s["entropy.entropy_scan"],
        "entropy.csv_s": s["entropy.scan_csv_lines"],
        "entropy.maximal_s": s["entropy.is_entropy_maximal"],
        "entropy.self_s": total("entropy"),
        "temperature.crossings_self_s": s["temperature.find_crossings"],
        "temperature.pairs": k["temperature.pairs"],
        "temperature.grid_points": k["temperature.grid_points"],
        "temperature.candidates": candidates,
        "temperature.crossings": k["temperature.crossings"],
        "temperature.useful_ratio": k["temperature.crossings"] / candidates if candidates else 0.0,
        "temperature.coarse_grid_warnings": k["temperature.coarse_grid_warnings"],
        "temperature.verify_self_s": s["temperature.verify_counterexample"],
        "temperature.self_s": total("temperature"),
        "cli.main_self_s": total("cli"),
        "cli.output_bytes": k["cli.output_bytes"],
        "trace.pass_s": pass_s,
        "trace.harness_s": pass_s - layers_self,
    }
