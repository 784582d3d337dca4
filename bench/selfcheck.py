#!/usr/bin/env python3
"""Self-check of the benchmark: one short pass of the smallest inputs per workload.

    python3 bench/selfcheck.py

For every workload it runs ``run.py --smoke`` untraced and traced and
confirms that
  * the last stdout line is the result object with exactly the keys
    ``correct``, ``attempted``, ``failed`` and ``metrics``, and the run is
    correct (only known program faults may fail);
  * every metric named in BENCHMARK.json is printed, with its unit, and no
    other (end-to-end metrics untraced, per-layer metrics traced);
  * the traced and the untraced pass gave identical answers;
and finally that ``run.py`` exits non-zero, printing no result, in a
directory that holds only BENCHMARK.json and the benchmark's own files.
Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems: list[str] = []
    for workload in (w["name"] for w in spec["workloads"]):
        digests = {}
        for trace in (0, 1):
            tag = f"{workload} trace={trace}"
            before = len(problems)
            proc = run(["--workload", workload, "--seed", "1", "--seconds", "1",
                        "--trace", str(trace), "--smoke"], ROOT)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                problems.append(f"{tag}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
                continue
            result = json.loads(lines[-1])
            meta = json.loads(lines[-2])["metadata"]
            digests[trace] = meta["answers_sha256"]
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{tag}: result keys {sorted(result)}")
            if not result["correct"] or result["attempted"] < 1:
                problems.append(f"{tag}: incorrect run: {meta['errors']}")
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            if printed != wanted[trace]:
                missing = sorted(set(wanted[trace]) - set(printed))
                extra = sorted(set(printed) - set(wanted[trace]))
                units = sorted(k for k in printed if k in wanted[trace] and printed[k] != wanted[trace][k])
                problems.append(f"{tag}: missing {missing}, extra {extra}, wrong units {units}")
            bad = [k for k, v in result["metrics"].items() if not isinstance(v["value"], (int, float))]
            if bad:
                problems.append(f"{tag}: non-numeric values {bad}")
            print(f"{'ok  ' if len(problems) == before else 'FAIL'} {tag}: attempted {result['attempted']}, "
                  f"failed {result['failed']}, {len(printed)} metrics")
        if len(digests) == 2 and digests[0] != digests[1]:
            problems.append(f"{workload}: traced and untraced answers differ")

    bare = ROOT / ".bench_work" / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(["--workload", spec["workloads"][0]["name"], "--seed", "1",
                    "--seconds", "1", "--trace", "0"], bare)
        if proc.returncode == 0 or '"metrics"' in proc.stdout:
            problems.append("run.py did not fail in a directory without the program")
        else:
            print(f"ok   without the program: exit {proc.returncode}, no result printed")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for p in problems:
        print(f"FAIL {p}")
    print("self-check passed" if not problems else f"self-check failed: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
