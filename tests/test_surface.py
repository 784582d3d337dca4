"""The frozen public surface: CLI stdout bytes, exit codes and exported names.

``tests/data/cli_golden/cases.json`` lists each argv (with its stdin, if
any) and its exit code; ``<name>.out`` beside it holds the stdout it
printed when the set was recorded.  A change to any of these bytes is a
deliberate contract change: record the new output together with the
change that makes it, never to get a test green.

The public API is what a command reaches: replaying the recorded runs must
enter every exported function and every public method or property of each
exported class.  A helper only tests use belongs in ``tests/conftest.py``.
"""

import functools
import inspect
import io
import json
import sys
from pathlib import Path

import pytest

import walkentropy
from walkentropy.cli import main

GOLDEN = Path(__file__).resolve().parent / "data" / "cli_golden"
CASES = json.loads((GOLDEN / "cases.json").read_text())

PUBLIC_API = [
    "BRACKET_WIDTH",
    "CROSSING_SPREAD_TOL",
    "CentralityOverflowError",
    "CoarseGridWarning",
    "CounterexampleReport",
    "CrossingReport",
    "CrossingScan",
    "EdgeListError",
    "EigendecompositionError",
    "EntropyReport",
    "ExactWalkTable",
    "Graph",
    "PairwiseCrossing",
    "SpectralDecomposition",
    "WalkRegularityVerdict",
    "WalkRegularityWitness",
    "__version__",
    "closed_walk_table",
    "eigendecompose",
    "find_crossings",
    "hm_graph",
    "is_walk_regular",
    "parse_edge_list",
    "serialize_edge_list",
    "verify_counterexample",
    "walk_entropy",
]

#: Public members no recorded command enters, each with the reason it stays.
UNREACHED = {
    "Graph.num_edges": "bench/tracing.py reads it to count walk-table work",
}


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_cli_bytes_match_the_recorded_output(capsys, monkeypatch, case):
    if case["stdin"] is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(case["stdin"]))
    code = main(case["argv"])
    expected = (GOLDEN / f"{case['name']}.out").read_bytes().decode()
    assert (code, capsys.readouterr().out) == (case["exit"], expected)


@pytest.mark.parametrize("command", ["find-crossings", "scan"])
def test_grid_too_large_for_memory_is_a_computation_error(capsys, command):
    # numpy refuses the 72.8 TiB grid before touching any memory; its
    # refusal is worded as the grid the program refuses itself
    code = main([command, "--hm", "4", "--step", "1e-12"])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err == "computation error: beta grid [0, 10] at step 1e-12 is too large\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("scan", "--beta-max", "1e300", "--step", "1e-300"),  # inf steps
        ("scan", "--beta-max", "1", "--step", "1e-300"),
        ("scan", "--beta-max", "1e20", "--step", "1"),
        ("find-crossings", "--beta-max", "1", "--step", "1e-300"),
    ],
    ids=lambda argv: " ".join(argv),
)
def test_grid_too_large_to_build_is_a_computation_error(capsys, argv):
    # refused before numpy is asked, whose ValueError would exit 1
    code = main([argv[0], "--hm", "4", *argv[1:]])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    beta_max, step = argv[2], argv[4]
    assert err == (
        f"computation error: beta grid [0, {float(beta_max):g}] at step "
        f"{float(step):g} is too large\n"
    )


def test_public_api_is_pinned():
    assert sorted(walkentropy.__all__) == PUBLIC_API


def _public_members() -> dict:
    """Code object -> name of each exported function and of each public
    method, property or cached property defined on an exported class."""
    members = {}
    for name in walkentropy.__all__:
        obj = getattr(walkentropy, name)
        if inspect.isfunction(obj):
            members[obj.__code__] = name
        elif inspect.isclass(obj):
            for attr, value in vars(obj).items():
                if isinstance(value, property):
                    value = value.fget
                elif isinstance(value, functools.cached_property):
                    value = value.func
                if not attr.startswith("_") and inspect.isfunction(value):
                    members[value.__code__] = f"{name}.{attr}"
    return members


def test_public_members_include_cached_properties(monkeypatch):
    class Probe:
        @functools.cached_property
        def value(self):
            return 1

    monkeypatch.setattr(walkentropy, "Probe", Probe, raising=False)
    monkeypatch.setattr(walkentropy, "__all__", [*walkentropy.__all__, "Probe"])
    assert _public_members()[Probe.value.func.__code__] == "Probe.value"


def test_every_public_member_is_reached_by_a_command(capsys, monkeypatch):
    members = _public_members()
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        for case in CASES:
            if case["stdin"] is not None:
                monkeypatch.setattr("sys.stdin", io.StringIO(case["stdin"]))
            main(case["argv"])
    finally:
        sys.setprofile(previous)
    capsys.readouterr()
    unreached = sorted(name for code, name in members.items() if code not in entered)
    assert unreached == sorted(UNREACHED)
