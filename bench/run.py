#!/usr/bin/env python3
"""walkentropy benchmark: one command, three workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload {hm-ladder,random-corpus,cli-mix} \
        --seed N --seconds S --trace {0,1} [--smoke]

Run from the root of a checkout; the program is imported from ``src/``
without installing it.  The run repeats whole passes over the workload's
operations until ``--seconds`` have elapsed, then checks every distinct
output against independent computations (``oracle.py``) and prints one
metadata line and, last, one JSON result line.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer metrics from a traced run.
See README.md in this directory for what each metric means.
"""

from __future__ import annotations

import os
import sys

# One BLAS thread: the load is one process using no more threads than nproc,
# and single-threaded BLAS keeps small-matrix timings steady.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import time
import warnings
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKLOADS = ("hm-ladder", "random-corpus", "cli-mix")

SETUP_PROBES = 7
IMPORT_PROBES = 5

END_TO_END_UNITS = {
    "setup_s": "s",
    "pass_s": "s",
    "largest_graph_s": "s",
    "graph_p50_s": "s",
    "graph_p95_s": "s",
    "invocation_p50_s": "s",
    "peak_rss_mb": "MB",
}

sys.path.insert(0, str(HERE))
import inputs  # noqa: E402  (after the BLAS setting, since it loads numpy)


def layer_unit(name: str) -> str:
    for suffix, unit in (("_s", "s"), ("_bytes", "bytes"), ("_ratio", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


def import_program():
    """Import ``walkentropy`` from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "walkentropy" / "__init__.py").is_file():
        sys.exit(f"error: no program at {SRC / 'walkentropy'}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import walkentropy
    import walkentropy.cli

    if Path(walkentropy.__file__).resolve().parent != SRC / "walkentropy":
        sys.exit(f"error: imported walkentropy from {walkentropy.__file__}, not {SRC}")
    return walkentropy


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class LibraryWorkload:
    """One operation = edge-list text -> ``parse_edge_list`` -> ``verify_counterexample``."""

    def __init__(self, we, graphs: list[inputs.GraphInput]):
        self.we = we
        self.graphs = graphs
        self.sizes = [g.n for g in graphs]

    def run(self, i: int):
        """(latency, invocation time, report); the invocation excludes the parse."""
        t0 = time.perf_counter()
        g = self.we.parse_edge_list(self.graphs[i].text)
        t1 = time.perf_counter()
        report = self.we.verify_counterexample(g)
        t2 = time.perf_counter()
        return t2 - t0, t2 - t1, report

    def known_fault(self, i: int) -> str:
        return self.graphs[i].fault

    @staticmethod
    def answer(report) -> str:
        return json.dumps(report.as_dict(), sort_keys=True)

    def check(self, i: int, report, facts) -> list[str]:
        import oracle

        pairs = [c.pair for c in report.scan.crossings]
        return oracle.check_report(facts(self.graphs[i]), report.as_dict(), pairs=pairs)


class CliWorkload:
    """One operation = one ``python -m walkentropy.cli`` process (closed loop, one client).

    With ``in_process`` set (traced runs) the same argv goes through
    ``walkentropy.cli.main`` in this process with stdout captured, so the
    layer wrappers see the calls.
    """

    def __init__(self, we, calls: list[inputs.CliCall], step: float):
        self.we = we
        self.calls = calls
        self.step = step
        self.sizes = [c.graph.n for c in calls]
        self.in_process = False
        self.env = child_env()

    def run(self, i: int):
        """(latency, latency, (exit code, stdout, stderr))."""
        argv = list(self.calls[i].argv)
        if not self.in_process:
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, "-m", "walkentropy.cli", *argv],
                cwd=ROOT, env=self.env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            )
            dt = time.perf_counter() - t0
            return dt, dt, (proc.returncode, proc.stdout.decode(), proc.stderr.decode())
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = self.we.cli.main(argv)
            except SystemExit as exc:
                rc = exc.code
        dt = time.perf_counter() - t0
        return dt, dt, (rc, out.getvalue(), err.getvalue())

    @staticmethod
    def known_fault(i: int) -> str:
        return ""

    @staticmethod
    def answer(result) -> str:
        rc, out, _ = result
        return f"{rc}\n{out}"

    def check(self, i: int, result, facts) -> list[str]:
        import oracle

        call = self.calls[i]
        rc, out, err = result
        if rc != 0:
            return [f"{call.label}: exit code {rc}: {err.strip()[-300:]}"]
        f = facts(call.graph)
        if call.command == "check-walk-regular":
            return oracle.check_walk_regular_human(f, out)
        if call.command == "entropy":
            return oracle.check_entropy_json(f, out, 1.0)
        if call.command == "find-crossings":
            return oracle.check_find_crossings_human(f, out)
        if call.command == "verify-counterexample":
            return oracle.check_report(f, json.loads(out), rounded=True)
        if call.fmt == "csv":
            return oracle.check_scan_csv(f, out, inputs.SCAN_BETA_MAX, self.step)
        return oracle.check_scan_json(f, out, inputs.SCAN_BETA_MAX, self.step)


def build_workload(we, name: str, seed: int, smoke: bool, workdir: Path):
    if name == "hm-ladder":
        return LibraryWorkload(we, inputs.hm_ladder(seed, smoke))
    if name == "random-corpus":
        return LibraryWorkload(we, inputs.random_corpus(seed, smoke))
    step = inputs.SCAN_STEP_SMOKE if smoke else inputs.SCAN_STEP
    return CliWorkload(we, inputs.cli_mix(seed, workdir, smoke), step)


def run_pass(workload, tracer=None):
    """One pass over every operation, traced when a tracer is given.

    Returns (wall, latencies, invocation times, results, CoarseGridWarnings).
    """
    lat, inv, results = [], [], []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if tracer is not None:
            tracer.install()
            pass_frame = tracer.begin()
        t0 = time.perf_counter()
        for i in range(len(workload.sizes)):
            if tracer is not None:
                tracer.next_op()
                op_frame = tracer.begin()
            try:
                dt, di, res = workload.run(i)
            except Exception as exc:  # a failed operation is counted, not fatal
                dt, di, res = float("nan"), float("nan"), exc
            if tracer is not None:
                tracer.end("bench.op", op_frame)
            lat.append(dt)
            inv.append(di)
            results.append(res)
        wall = time.perf_counter() - t0
        if tracer is not None:
            tracer.op = -1
            tracer.end("bench.pass", pass_frame)
            tracer.uninstall()
    coarse = sum(issubclass(w.category, workload.we.CoarseGridWarning) for w in caught)
    return wall, lat, inv, results, coarse


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "walkentropy").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def probe_seconds(argv: list[str], env) -> float:
    """Wall time from spawning a fresh process to its first line on stdout."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE)
    try:
        line = proc.stdout.readline()
        dt = time.perf_counter() - t0
        proc.stdout.read()
    finally:
        proc.stdout.close()
        rc = proc.wait()
    if rc != 0 or not line:
        raise RuntimeError(f"probe {argv[1:]} failed with exit code {rc}")
    return dt


def setup_seconds(args, probes: int) -> float:
    """Median time for a fresh process to import the program and build the inputs."""
    argv = [sys.executable, str(HERE / "run.py"), "--probe", "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", "0"] + (["--smoke"] if args.smoke else [])
    return median(probe_seconds(argv, dict(os.environ)) for _ in range(probes))


def import_seconds(probes: int) -> float:
    """Median fresh ``import walkentropy`` minus median bare interpreter start-up."""
    env = child_env()
    bare, imported = [], []
    for _ in range(probes):
        bare.append(probe_seconds([sys.executable, "-c", "print()"], env))
        imported.append(probe_seconds([sys.executable, "-c", "import walkentropy; print()"], env))
    return median(imported) - median(bare)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="smallest inputs, one pass of each kind")
    ap.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    we = import_program()
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        workload = build_workload(we, args.workload, args.seed, args.smoke, workdir)
        if args.probe:  # set-up probe: report readiness and stop
            print("ready", flush=True)
            return 0
        measure(args, workload)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workload) -> None:
    tracer = None
    if args.trace:
        from tracing import Tracer, layer_metrics

        tracer = Tracer()
        if isinstance(workload, CliWorkload):
            workload.in_process = True

    untraced_walls, traced_walls, lat, inv = [], [], [], []
    layer_rows: list[dict[str, float]] = []
    pending: dict[tuple[int, str], object] = {}  # distinct (op, answer) still to check
    outcomes: list[tuple[int, str | None]] = []  # (op, answer key, or None if it raised)
    pass_digests: list[str] = []
    raised: list[str] = []

    start = time.perf_counter()
    passes = 0
    while True:
        # Traced runs alternate untraced and traced passes, so the overhead is
        # measured in the same process and mode.
        traced = tracer is not None and passes % 2 == 1
        if traced:
            tracer.reset_totals()
        wall, p_lat, p_inv, results, coarse = run_pass(workload, tracer if traced else None)
        passes += 1
        if traced:
            tracer.counts["temperature.coarse_grid_warnings"] += coarse
            if isinstance(workload, CliWorkload):
                tracer.counts["cli.output_bytes"] += sum(len(r[1].encode()) for r in results
                                                          if not isinstance(r, Exception))
            layer_rows.append(layer_metrics(tracer, wall))
            traced_walls.append(wall)
        else:
            untraced_walls.append(wall)
            lat += p_lat
            inv += p_inv
        digest = hashlib.sha256()
        for i, res in enumerate(results):
            if isinstance(res, Exception):
                outcomes.append((i, None))
                raised.append(f"op {i}: {type(res).__name__}: {res}")
                continue
            key = hashlib.sha256(workload.answer(res).encode()).hexdigest()
            digest.update(key.encode())
            pending.setdefault((i, key), res)
            outcomes.append((i, key))
        pass_digests.append(digest.hexdigest())
        elapsed = time.perf_counter() - start
        enough = passes >= (2 if tracer is not None else 1)
        if enough and (args.smoke or elapsed + wall / 2 >= args.seconds):
            break  # another pass would likely end after the deadline

    # Peak memory of the measured work, read before the checks load scipy
    # and before the probes (which are children too) run.
    if isinstance(workload, CliWorkload) and not workload.in_process:
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    probes = 1 if args.smoke else None
    if tracer is not None:
        metrics = {name: median(row[name] for row in layer_rows) for name in layer_rows[0]}
        metrics["trace.overhead_s"] = median(traced_walls) - median(untraced_walls)
        metrics["cli.import_s"] = import_seconds(probes or IMPORT_PROBES)
        units = {name: layer_unit(name) for name in metrics}
    else:
        largest = max(workload.sizes)
        ops = len(workload.sizes)
        biggest = [t for k, t in enumerate(lat) if workload.sizes[k % ops] == largest]
        metrics = {
            "setup_s": setup_seconds(args, probes or SETUP_PROBES),
            "pass_s": median(untraced_walls),
            "largest_graph_s": median(biggest),
            "graph_p50_s": median(lat),
            "graph_p95_s": statistics.quantiles(lat, n=20, method="inclusive")[18],
            "invocation_p50_s": median(inv),
            "peak_rss_mb": peak_kb / 1024.0,
        }
        units = END_TO_END_UNITS

    # Checks, outside every timed region: each distinct output is checked once.
    import numpy
    import scipy

    import oracle

    facts_cache: dict[inputs.GraphInput, oracle.Facts] = {}

    def facts(gi: inputs.GraphInput) -> oracle.Facts:
        if gi not in facts_cache:
            facts_cache[gi] = oracle.Facts(gi)
        return facts_cache[gi]

    verdicts: dict[tuple[int, str], list[str]] = {}
    for (i, key), res in pending.items():
        try:
            verdicts[(i, key)] = workload.check(i, res, facts)
        except Exception as exc:  # a malformed output fails its check
            verdicts[(i, key)] = [f"op {i}: output could not be checked: {type(exc).__name__}: {exc}"]
    failures = [o for o in outcomes if o[1] is None or verdicts[o]]
    errors = list(raised)
    for o in dict.fromkeys(f for f in failures if f[1] is not None):
        fault = workload.known_fault(o[0])
        errors += [f"known fault ({fault}): {e}" if fault else e for e in verdicts[o]]
    # A known program fault fails its operation but does not make the run incorrect.
    correct = all(workload.known_fault(o[0]) for o in failures)

    if tracer is not None:
        write_spans(args, tracer)

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "smoke": args.smoke,
        "git_sha": git_sha(),
        "src_sha256": src_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "passes": passes,
        "traced_passes": len(traced_walls),
        "ops_per_pass": len(workload.sizes),
        "elapsed_s": round(time.perf_counter() - start, 3),
        # answers of the first traced pass, or of the first pass when untraced
        "answers_sha256": pass_digests[1 if tracer is not None else 0],
        "distinct_pass_answers": len(set(pass_digests)),
        "spans_kept": len(tracer.spans) if tracer else 0,
        "spans_dropped": tracer.dropped if tracer else 0,
        "errors": errors[:20],
    }
    print(json.dumps({"metadata": meta}))
    print(json.dumps({
        "correct": correct,
        "attempted": len(outcomes),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))


def write_spans(args, tracer) -> None:
    WORK.mkdir(exist_ok=True)
    path = WORK / f"spans-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps({
        "fields": ["id", "name", "start", "end", "parent", "op"],
        "dropped": tracer.dropped,
        "spans": tracer.spans,
    }))


if __name__ == "__main__":
    sys.exit(main())
