"""Command-line interface.

Commands
    gen-hm M                  emit the hub-matching graph HM(M) as an edge list
    check-walk-regular        exact walk-regularity verdict
    entropy --beta B          walk entropy at a single temperature
    scan                      entropy over a beta grid (the one CSV output)
    find-crossings            all maximal-entropy temperatures in (0, beta-max]
    verify-counterexample     combined report including conjecture checks

Input is an edge-list file, ``-`` for stdin, or ``--hm M`` to generate the
hub-matching graph in-process.  All numerical work lives in the library;
this module only parses flags, dispatches, and formats.

Exit status: 0 success, 1 usage or input error, 2 computation error
(overflow, eigensolver failure, a grid or adjacency matrix too large to
build), 141 (128 + SIGPIPE) when the reader closes stdout before the output
is written, buffered or not, with nothing on stderr.  Output is
deterministic: machine formats carry 12 significant digits, human output 6;
warnings go to stderr.  CSV values are ``'%.12g' % x`` and human values
``'%.6g' % x``; a JSON number is ``repr(float('%.12g' % x))``, as
``json.dumps`` prints the rounded float.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .entropy import _scan_table, walk_entropy
from .graphs import Graph, hm_graph, parse_edge_list, serialize_edge_list
from .spectral import (
    CentralityOverflowError,
    EigendecompositionError,
    eigendecompose,
)
from .temperature import find_crossings, verify_counterexample
from .walks import is_walk_regular

# MemoryError: a grid or an adjacency matrix too large to build, e.g. --step 1e-12
_COMPUTATION_ERRORS = (CentralityOverflowError, EigendecompositionError, MemoryError)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # usage errors exit 1 (argparse defaults to 2, which we reserve for
    # computation failures)
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _finite(text: str) -> float:
    """argparse type for numeric flags: a finite float."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text}")
    return value


def _machine(x: float) -> str:
    return f"{x:.12g}"


def _human(x: float) -> str:
    return f"{x:.6g}"


def _round12(x: float) -> float:
    """The machine-format rounding: 12 significant digits."""
    return float(f"{x:.12g}")


def _round_floats(obj):
    if isinstance(obj, float):
        return _round12(obj)
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_round_floats(v) for v in obj]
    return obj


def _print_json(doc) -> None:
    print(json.dumps(_round_floats(doc), indent=2))


def _csv_lines(table: np.ndarray, class_reps: list[int]) -> list[str]:
    """Header and one ``%.12g`` row per row of a scan table.

    Column order is fixed: beta, entropy, max_entropy, deficit, spread,
    then one centrality column per vertex-class representative.
    """
    header = "beta,entropy,max_entropy,deficit,spread" + "".join(
        f",f_v{r}" for r in class_reps
    )
    row = ",".join(["%.12g"] * table.shape[1])
    return [header] + [row % tuple(cells) for cells in table.tolist()]


def _load_graph(args) -> Graph:
    has_input = getattr(args, "input", None) is not None
    has_hm = getattr(args, "hm", None) is not None
    if has_input == has_hm:
        raise UsageError(
            "provide exactly one input: an edge-list path ('-' for stdin) or --hm M"
        )
    if has_hm:
        return hm_graph(args.hm)
    if args.input == "-":
        return parse_edge_list(sys.stdin.read())
    try:
        text = Path(args.input).read_text()
    except OSError as exc:
        raise UsageError(f"cannot read {args.input}: {exc}") from exc
    return parse_edge_list(text)


def _print_verdict(verdict) -> None:
    print(f"walk-regular: {'true' if verdict.is_walk_regular else 'false'}")
    if verdict.witness is not None:
        w = verdict.witness
        print(
            f"witness: length {w.length}, vertices {w.u} and {w.v}, "
            f"counts {w.count_u} vs {w.count_v}"
        )


def _cmd_gen_hm(args) -> int:
    sys.stdout.write(serialize_edge_list(hm_graph(args.m)))
    return 0


def _cmd_check_walk_regular(args) -> int:
    verdict = is_walk_regular(_load_graph(args))
    if args.format == "json":
        _print_json(verdict.as_dict())
        return 0
    _print_verdict(verdict)
    reps = ", ".join(str(c[0]) for c in verdict.classes)
    print(f"classes: {len(verdict.classes)} (representatives: {reps})")
    return 0


def _cmd_entropy(args) -> int:
    report = walk_entropy(_load_graph(args), args.beta)
    if args.format == "json":
        _print_json(report.as_dict())
    else:
        print(f"beta = {_human(report.beta)}")
        print(f"entropy = {_human(report.entropy)}")
        print(f"max_entropy = {_human(report.max_entropy)}")
        print(f"deficit = {_human(report.deficit)}")
        print(f"spread = {_human(report.spread)}")
        print(f"maximal = {'true' if report.is_maximal else 'false'}")
    return 0


def _repr_may_differ(x: np.ndarray) -> np.ndarray:
    """A mask that covers every x where ``'%.12g' % x`` is not
    ``repr(_round12(x))``, the number ``json.dumps`` prints.

    For a normal double the digits agree: 12 digits round-trip, so repr
    finds the same shortest ones.  The forms differ only where the rounded
    value is integral, so below 1e16 (repr appends ``.0``, and writes
    e+12 to e+15 positionally), which x within 1e-11 relative of an
    integer covers; and for subnormals, where 12 digits need not
    round-trip, which |x| < 1e-307 covers.
    """
    a = np.abs(x)
    return (a < 1e-307) | ((a < 1e16) & (np.abs(x - np.rint(x)) <= 1e-11 * a))


def _write_scan_json(table: np.ndarray, reps: list[int]) -> None:
    """Scan rows as ``json.dumps(_round_floats(rows), indent=2)`` prints them.

    Each row is one %-template: ``%.12g`` for every value, except ``%s``
    with ``repr(_round12(x))`` where the two differ, which is checked only
    where :func:`_repr_may_differ` says they may.
    """
    assert np.isfinite(table).all(), "scan values are finite"
    keys = ("beta", "entropy", "max_entropy", "deficit", "spread")

    def template(cols: tuple[int, ...]) -> str:
        specs = ["%.12g"] * table.shape[1]
        for j in cols:
            specs[j] = "%s"
        values = ",\n".join(f'      "{r}": {spec}' for r, spec in zip(reps, specs[5:]))
        fields = [f'    "{k}": {spec}' for k, spec in zip(keys, specs)]
        fields.append(f'    "class_values": {{\n{values}\n    }}')
        return "  {\n" + ",\n".join(fields) + "\n  }"

    rows = table.tolist()
    fixed: dict[int, list[int]] = {}
    for i, j in np.argwhere(_repr_may_differ(table)).tolist():
        token = repr(_round12(rows[i][j]))
        if token != "%.12g" % rows[i][j]:
            rows[i][j] = token
            fixed.setdefault(i, []).append(j)
    templates = {(): template(())}
    out = []
    for i, cells in enumerate(rows):
        cols = tuple(fixed.get(i, ()))
        if cols not in templates:
            templates[cols] = template(cols)
        out.append(templates[cols] % tuple(cells))
    sys.stdout.write("[\n" + ",\n".join(out) + "\n]\n")


def _cmd_scan(args) -> int:
    g = _load_graph(args)
    d = eigendecompose(g)
    reps = [c[0] for c in is_walk_regular(g).classes]
    table = _scan_table(d, args.beta_min, args.beta_max, args.step, reps)
    if args.format == "csv":
        sys.stdout.write("\n".join(_csv_lines(table, reps)) + "\n")
    elif args.format == "json":
        _write_scan_json(table, reps)
    else:
        # beta, entropy, deficit, spread; "%12.6g" is f"{_human(x):>12}"
        lines = [f"{'beta':>12} {'entropy':>12} {'deficit':>12} {'spread':>12}"]
        lines += ["%12.6g %12.6g %12.6g %12.6g" % tuple(r) for r in table[:, [0, 1, 3, 4]].tolist()]
        sys.stdout.write("\n".join(lines) + "\n")
    return 0


def _cmd_find_crossings(args) -> int:
    scan = find_crossings(_load_graph(args), args.beta_max, args.step)
    if args.format == "json":
        _print_json(scan.as_dict())
        return 0
    if scan.walk_regular:
        print("walk-regular: true (entropy maximal for every beta >= 0)")
        return 0
    print("walk-regular: false")
    if not scan.crossings:
        print(f"no maximal-entropy temperatures found in (0, {_human(args.beta_max)}]")
    for c in scan.crossings:
        print(
            f"crossing: beta* = {_machine(c.beta_star)}  "
            f"bracket_width = {_human(c.bracket[1] - c.bracket[0])}  "
            f"spread = {_human(c.max_spread_at_root)}"
        )
    for p in scan.pairwise_only:
        print(
            f"pairwise-only: beta = {_machine(p.beta)}  pair = {p.pair}  "
            f"spread = {_human(p.spread)}"
        )
    return 0


def _cmd_verify_counterexample(args) -> int:
    report = verify_counterexample(_load_graph(args), args.beta_max, args.step)
    if args.format == "json":
        _print_json(report.as_dict())
        return 0
    _print_verdict(report.verdict)
    hist = ", ".join(f"{d}: {c}" for d, c in sorted(report.degree_histogram.items()))
    print(f"degree histogram: {{{hist}}}")
    if report.scan.walk_regular:
        print("crossings: all beta (walk-regular)")
    else:
        print(f"crossings found: {report.crossing_count}")
        for c in report.scan.crossings:
            print(
                f"  beta* = {_machine(c.beta_star)}  "
                f"spread = {_human(c.max_spread_at_root)}"
            )
    print(f"counterexample: {'true' if report.is_counterexample else 'false'}")
    print(
        "entropy maximal at beta = 1: "
        f"{'true' if report.entropy_maximal_at_beta_one else 'false'}"
    )
    print(
        f"crossing count {report.crossing_count} <= n-1 = {report.crossing_bound}: "
        f"{'true' if report.within_crossing_bound else 'false'}"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="walkentropy", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def io_options(formats: tuple[str, ...]) -> argparse.ArgumentParser:
        parent = _Parser(add_help=False)  # --format offers only what a command prints
        parent.add_argument("input", nargs="?", help="edge-list file, or '-' for stdin")
        parent.add_argument(
            "--hm", type=int, metavar="M", help="use the hub-matching graph HM(M) as input"
        )
        parent.add_argument(
            "--format", choices=formats, default="human", help="output format (default: human)"
        )
        return parent

    io_csv = io_options(("csv", "json", "human"))
    io_no_csv = io_options(("json", "human"))

    grid_parent = _Parser(add_help=False)
    grid_parent.add_argument("--beta-max", type=_finite, default=10.0, help="scan end (default 10)")
    grid_parent.add_argument("--step", type=_finite, default=0.01, help="grid step (default 0.01)")

    p = sub.add_parser("gen-hm", help="emit the hub-matching graph HM(M)")
    p.add_argument("m", type=int, help="family parameter (positive)")
    p.set_defaults(func=_cmd_gen_hm)

    p = sub.add_parser(
        "check-walk-regular", parents=[io_no_csv], help="exact walk-regularity verdict"
    )
    p.set_defaults(func=_cmd_check_walk_regular)

    p = sub.add_parser("entropy", parents=[io_no_csv], help="walk entropy at one temperature")
    p.add_argument("--beta", type=_finite, required=True, help="temperature (>= 0)")
    p.set_defaults(func=_cmd_entropy)

    p = sub.add_parser("scan", parents=[io_csv], help="entropy over a beta grid")
    p.add_argument("--beta-min", type=_finite, default=0.0, help="grid start (default 0)")
    p.add_argument("--beta-max", type=_finite, default=10.0, help="grid end (default 10)")
    p.add_argument("--step", type=_finite, default=0.01, help="grid step (default 0.01)")
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser(
        "find-crossings",
        parents=[io_no_csv, grid_parent],
        help="all maximal-entropy temperatures in (0, beta-max]",
    )
    p.set_defaults(func=_cmd_find_crossings)

    p = sub.add_parser(
        "verify-counterexample",
        parents=[io_no_csv, grid_parent],
        help="walk-regularity, crossings, and conjecture checks",
    )
    p.set_defaults(func=_cmd_verify_counterexample)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    stdout = sys.stdout
    if isinstance(getattr(stdout, "buffer", None), io.RawIOBase):
        # unbuffered stdout (python -u, PYTHONUNBUFFERED): a raw write into a
        # pipe whose reader has gone may be short, and TextIOWrapper drops the
        # rest unnoticed; a BufferedWriter writes on and meets the broken pipe
        raw = io.FileIO(stdout.fileno(), "w", closefd=False)
        sys.stdout = io.TextIOWrapper(
            io.BufferedWriter(raw), stdout.encoding, stdout.errors, line_buffering=True
        )
    try:
        try:
            code = args.func(args)
        except _COMPUTATION_ERRORS as exc:
            print(f"computation error: {exc}", file=sys.stderr)
            code = 2
        except (UsageError, ValueError) as exc:  # EdgeListError is a ValueError
            print(f"error: {exc}", file=sys.stderr)
            code = 1
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout: end as a writer killed by SIGPIPE would,
        # silently; what is still buffered then goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    finally:
        if sys.stdout is not stdout:
            buffered, sys.stdout = sys.stdout, stdout
            buffered.close()  # fd 1 stays open: this FileIO does not own it
    return code


if __name__ == "__main__":
    sys.exit(main())
