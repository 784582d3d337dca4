"""CLI surface: dispatch, formats, exit codes, determinism; package surface."""

import contextlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import walkentropy
from conftest import TWO_K4, TWO_K4_K2, cartesian_product, complete_graph, path_graph
from walkentropy import cli, entropy, graphs, spectral, temperature, walks
from walkentropy.cli import _round_floats, _write_scan_json, main
from walkentropy.graphs import hm_graph, parse_edge_list, serialize_edge_list


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGenHm:
    def test_emits_h4_edge_list(self, capsys):
        code, out, _ = run(capsys, "gen-hm", "4")
        assert code == 0
        g = parse_edge_list(out)
        assert g.n == 24
        assert g.num_edges == 50

    def test_round_trips_through_parser(self, capsys):
        code, out, _ = run(capsys, "gen-hm", "2")
        g = parse_edge_list(out)
        assert serialize_edge_list(g) == out

    def test_rejects_m_zero(self, capsys):
        code, _, err = run(capsys, "gen-hm", "0")
        assert code == 1
        assert "positive" in err


class TestCheckWalkRegular:
    def test_k4_true(self, tmp_path, capsys):
        path = tmp_path / "k4.edges"
        path.write_text(serialize_edge_list(complete_graph(4)))
        code, out, _ = run(capsys, "check-walk-regular", str(path))
        assert code == 0
        assert "walk-regular: true" in out

    def test_hm_flag_false_with_witness(self, capsys):
        code, out, _ = run(capsys, "check-walk-regular", "--hm", "4")
        assert code == 0
        assert "walk-regular: false" in out
        assert "length 2" in out
        assert "5 vs 4" in out

    def test_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("0 1\n1 2\n0 2\n"))
        code, out, _ = run(capsys, "check-walk-regular", "-")
        assert code == 0
        assert "walk-regular: true" in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "check-walk-regular", "--hm", "4", "--format", "json")
        doc = json.loads(out)
        assert doc["walk_regular"] is False
        assert doc["witness"]["length"] == 2

    def test_csv_unsupported(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["check-walk-regular", "--hm", "4", "--format", "csv"])
        out, err = capsys.readouterr()
        assert (exc.value.code, out) == (1, "")
        assert "--format" in err and "'csv'" in err


class TestInputResolution:
    def test_missing_input(self, capsys):
        code, _, err = run(capsys, "check-walk-regular")
        assert code == 1
        assert "exactly one input" in err

    def test_both_inputs(self, tmp_path, capsys):
        path = tmp_path / "g.edges"
        path.write_text("0 1\n")
        code, _, err = run(capsys, "check-walk-regular", str(path), "--hm", "4")
        assert code == 1
        assert "exactly one input" in err

    def test_unreadable_file(self, capsys):
        code, _, err = run(capsys, "check-walk-regular", "/no/such/file")
        assert code == 1
        assert "cannot read" in err

    def test_malformed_edge_list_reports_line(self, tmp_path, capsys):
        path = tmp_path / "bad.edges"
        path.write_text("0 1\n2 2\n")
        code, _, err = run(capsys, "check-walk-regular", str(path))
        assert code == 1
        assert "line 2" in err


class TestEntropy:
    def test_human(self, capsys):
        code, out, _ = run(capsys, "entropy", "--hm", "4", "--beta", "1")
        assert code == 0
        assert "entropy = 3.17737" in out
        assert "maximal = false" in out

    def test_float_beta_is_not_maximal_however_small_the_spread(self, capsys):
        # HM(4) is not walk-regular, so no float beta > 0 is maximal (a
        # crossing is transcendental), though the spread here is 1.05e-11
        argv = ("entropy", "--hm", "4", "--beta", "0.499001413")
        _, out, _ = run(capsys, *argv)
        assert "spread = 1.05215e-11\nmaximal = false\n" in out
        _, out, _ = run(capsys, *argv, "--format", "json")
        doc = json.loads(out)
        assert f"{doc['spread']:.6g}" == "1.05215e-11"
        assert doc["is_maximal"] is False
        _, out, _ = run(capsys, "entropy", "--hm", "4", "--beta", "0")
        assert out.endswith("maximal = true\n")

    def test_json_probabilities_sum_to_one(self, capsys):
        code, out, _ = run(
            capsys, "entropy", "--hm", "4", "--beta", "1", "--format", "json"
        )
        doc = json.loads(out)
        assert doc["is_maximal"] is False
        assert sum(doc["probabilities"]) == pytest.approx(1.0, abs=1e-9)

    def test_csv_single_row(self, capsys):
        # the CSV row at one temperature is a one-row scan
        code, out, _ = run(
            capsys, "scan", "--hm", "4", "--beta-min", "0.5", "--beta-max", "0.5", "--format", "csv"
        )
        lines = out.strip().splitlines()
        assert lines[0].startswith("beta,entropy,max_entropy,deficit,spread")
        assert len(lines) == 2

    @pytest.mark.parametrize(
        "fmt, beta_text",
        [("human", "beta = 0\n"), ("json", '"beta": 0.0,'), ("csv", "\n0,")],
    )
    def test_minus_zero_beta_prints_zero(self, capsys, fmt, beta_text):
        # -0.0 reads as 0.0, the beta that the CSV row always printed
        if fmt == "csv":  # the one-row scan
            argv = ("scan", "--hm", "4", "--beta-min", "-0", "--beta-max", "-0")
        else:
            argv = ("entropy", "--hm", "4", "--beta", "-0")
        code, out, _ = run(capsys, *argv, "--format", fmt)
        assert code == 0
        assert beta_text in out
        assert "-0" not in out

    def test_overflow_is_computation_error(self, capsys):
        code, _, err = run(capsys, "entropy", "--hm", "4", "--beta", "200")
        assert code == 2
        assert "computation error" in err

    def test_negative_beta_is_usage_error(self, capsys):
        code, _, err = run(capsys, "entropy", "--hm", "4", "--beta", "-1")
        assert code == 1

    def test_trace_overflow_is_computation_error(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(TWO_K4))
        code, out, err = run(capsys, "entropy", "-", "--beta", "236.45")
        assert (code, out) == (2, "")
        assert "trace of exp(beta*A) overflows double precision at beta=236.45" in err

    @pytest.mark.parametrize(
        "fault, message",
        [
            ("no-convergence", "eigensolver did not converge: no convergence"),
            ("perturbed-vector", "eigenpair residual .* exceeds 1e-10"),
            ("scaled-vector", "eigenvector basis is not orthonormal"),
        ],
    )
    def test_eigensolver_failure_is_computation_error(self, capsys, monkeypatch, fault, message):
        real = np.linalg.eigh

        def eigh(a):
            if fault == "no-convergence":
                raise np.linalg.LinAlgError("no convergence")
            lam, u = real(a)
            if fault == "perturbed-vector":
                u[0, 0] += 1e-3  # off by far more than the residual bound
            else:
                u[:, 0] *= 1 + 1e-6  # still an eigenvector, no longer of norm 1
            return lam, u

        monkeypatch.setattr(np.linalg, "eigh", eigh)
        with pytest.raises(spectral.EigendecompositionError, match=message):
            spectral.eigendecompose(hm_graph(4))
        code, out, err = run(capsys, "entropy", "--hm", "4", "--beta", "1")
        assert (code, out) == (2, "")
        assert re.fullmatch(f"computation error: {message}.*\n", err)

    def test_beta_not_a_number_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["entropy", "--hm", "4", "--beta", "abc"])
        assert exc.value.code == 1
        assert "argument --beta: invalid float value: 'abc'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, fmt",
    [
        *((("entropy", "--beta", "1"), fmt) for fmt in ("human", "json")),
        *((("scan", "--beta-max", "1", "--step", "0.5"), fmt) for fmt in ("human", "json", "csv")),
        (("scan", "--beta-min", "1", "--beta-max", "1"), "csv"),
    ],
    ids=[
        "entropy-human", "entropy-json", "scan-human", "scan-json", "scan-csv", "scan-row-csv"
    ],
)
def test_one_vertex_entropy_is_positive_zero(capsys, monkeypatch, argv, fmt):
    # the entropy of the one-point distribution is 0, printed without a sign
    monkeypatch.setattr("sys.stdin", io.StringIO("n 1\n"))
    code, out, err = run(capsys, argv[0], "-", *argv[1:], "--format", fmt)
    assert (code, err) == (0, "")
    assert "0" in out
    assert "-0" not in out


class TestScan:
    def test_csv_columns_for_h4(self, capsys):
        code, out, _ = run(
            capsys,
            "scan",
            "--hm",
            "4",
            "--beta-max",
            "0.05",
            "--format",
            "csv",
        )
        lines = out.strip().splitlines()
        assert lines[0] == "beta,entropy,max_entropy,deficit,spread,f_v0,f_v4"
        assert len(lines) == 7

    def test_deterministic_output(self, capsys):
        args = ("scan", "--hm", "3", "--beta-max", "2", "--step", "0.5", "--format", "csv")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    def test_json(self, capsys):
        code, out, _ = run(
            capsys,
            "scan",
            "--hm",
            "1",
            "--beta-max",
            "1",
            "--step",
            "0.5",
            "--format",
            "json",
        )
        doc = json.loads(out)
        assert [row["beta"] for row in doc] == [0.0, 0.5, 1.0]
        assert set(doc[0]["class_values"]) == {"0", "1"}

    def test_invalid_step(self, capsys):
        code, _, err = run(capsys, "scan", "--hm", "1", "--step", "0")
        assert code == 1

    def test_json_round_trips(self, capsys):
        code, out, _ = run(
            capsys, "scan", "--hm", "4", "--beta-max", "3", "--step", "0.01", "--format", "json"
        )
        assert code == 0
        assert len(json.loads(out)) == 301
        assert json.dumps(json.loads(out), indent=2) + "\n" == out

    def test_fresh_process_json_equals_in_process(self, capsys, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("0 1\n1 2\n2 3\n3 0\n0 2\n3 4\n4 5\n")
        argv = ("scan", str(path), "--beta-max", "4", "--step", "0.001", "--format", "json")
        _, expected, _ = run(capsys, *argv)
        src = str(Path(walkentropy.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-m", "walkentropy.cli", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, check=False,
        )
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert proc.stdout.decode() == expected
        assert expected.count("\n    \"beta\": ") == 4001

    @pytest.mark.parametrize("fmt", ["csv", "json", "human"])
    def test_fresh_process_equals_in_process(self, capsys, fmt):
        # integral betas and f = 1 at beta = 0 take the JSON ".0" path
        argv = ("scan", "--hm", "4", "--beta-min", "0", "--beta-max", "3", "--step", "0.25")
        argv += ("--format", fmt)
        _, expected, _ = run(capsys, *argv)
        src = str(Path(walkentropy.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-m", "walkentropy.cli", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, check=False,
        )
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert proc.stdout.decode() == expected
        assert expected.count("\n") == {"csv": 14, "json": 145, "human": 14}[fmt]
        if fmt == "json":
            assert '"beta": 1.0,' in expected and '"0": 1.0,' in expected

    @pytest.mark.parametrize("fmt", ["human", "csv", "json"])
    def test_trace_overflow_is_computation_error(self, capsys, tmp_path, fmt):
        path = tmp_path / "2k4.edges"
        path.write_text(TWO_K4)
        grid = ("--beta-min", "236.4", "--beta-max", "236.5", "--step", "0.1")
        code, out, err = run(capsys, "scan", str(path), *grid, "--format", fmt)
        assert (code, out) == (2, "")
        assert err == (
            "computation error: trace of exp(beta*A) overflows double precision at beta=236.4\n"
        )


def _scan_json(table: np.ndarray, reps: list[int]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        _write_scan_json(table, reps)
    return out.getvalue()


class TestScanJsonNumbers:
    """The scan JSON writer prints each number as ``json.dumps`` prints its
    12-digit rounding, ``repr(float('%.12g' % x))``, for every finite double."""

    @given(st.floats(allow_nan=False, allow_infinity=False))
    @example(0.0)
    @example(-0.0)
    @example(5e-324)
    @example(-5e-324)
    @example(1e-310)
    @example(2.225073858507201e-308)  # largest subnormal
    @example(2.2250738585072014e-308)  # smallest normal
    @example(1.0)
    @example(-7.0)
    @example(3.0000000000001)  # rounds to an integer
    @example(0.99999999999996)
    @example(123456789012.0)
    @example(999999999999.4)
    @example(999999999999.6)  # rounds to 1e12
    @example(1 - 2.0**-53)
    @example(-(1 - 2.0**-53))
    @example(9999999999999998.0)
    @example(1.7976931348623157e308)
    def test_token_is_repr_of_the_rounding(self, x):
        table = np.array([[x, 0.5, x, -x, x, x, 2.5], [0.25, x, 1.0, 0.5, -x, 3.0, x]])
        text = _scan_json(table, [0, 7])
        tokens = re.findall(r'": ([-0-9][^,\n]*)', text)
        assert tokens == [repr(float("%.12g" % v)) for v in table.ravel().tolist()]
        rows = [
            dict(zip(("beta", "entropy", "max_entropy", "deficit", "spread"), r[:5]))
            | {"class_values": {"0": r[5], "7": r[6]}}
            for r in table.tolist()
        ]
        assert text == json.dumps(_round_floats(rows), indent=2) + "\n"

    @pytest.mark.parametrize("e", range(11, 18))
    def test_powers_of_ten(self, e):
        for x in (10.0**e, -(10.0**e), 1.2345678901234567 * 10.0**e, 10.0**e - 1):
            table = np.full((1, 6), x)
            tokens = re.findall(r'": ([-0-9][^,\n]*)', _scan_json(table, [0]))
            assert tokens == [repr(float("%.12g" % x))] * 6


class TestFindCrossings:
    def test_h4_human(self, capsys):
        code, out, _ = run(capsys, "find-crossings", "--hm", "4")
        assert code == 0
        assert out.count("crossing:") == 2
        assert "0.499001412933" in out
        assert "1.91202350518" in out

    def test_h4_json_fields(self, capsys):
        code, out, _ = run(capsys, "find-crossings", "--hm", "4", "--format", "json")
        doc = json.loads(out)
        assert doc["walk_regular"] is False
        assert len(doc["crossings"]) == 2
        first = doc["crossings"][0]
        assert first["beta_star"] == pytest.approx(0.499001412933, abs=1e-9)
        # endpoints are rounded to 12 significant digits on output, so the
        # width check needs one ulp of slack at that precision
        assert first["bracket_hi"] - first["bracket_lo"] <= 2e-12
        assert {c["representative"] for c in first["classes"]} == {0, 4}

    def test_walk_regular_marker(self, capsys, tmp_path):
        path = tmp_path / "k5.edges"
        path.write_text(serialize_edge_list(complete_graph(5)))
        code, out, _ = run(capsys, "find-crossings", str(path))
        assert code == 0
        assert "maximal for every beta" in out

    def test_none_found(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("0 1\n0 2\n0 3\n"))
        code, out, _ = run(capsys, "find-crossings", "-")
        assert code == 0
        assert "no maximal-entropy temperatures" in out

    def test_pairwise_only_lines(self, capsys, monkeypatch):
        # HM(4)□P3: hub and clique cross in each P3 layer, but the P3 centre
        # and ends still differ there, so both roots are pairwise-only
        g = cartesian_product(hm_graph(4), path_graph(3))
        monkeypatch.setattr("sys.stdin", io.StringIO(serialize_edge_list(g)))
        code, out, _ = run(capsys, "find-crossings", "-")
        assert code == 0
        assert out.splitlines() == [
            "walk-regular: false",
            "no maximal-entropy temperatures found in (0, 10]",
            "pairwise-only: beta = 0.499001412933  pair = (0, 12)  spread = 0.110617",
            "pairwise-only: beta = 1.91202350518  pair = (0, 12)  spread = 0.609432",
        ]

    @pytest.mark.parametrize("command", ["find-crossings", "verify-counterexample"])
    def test_trace_overflow_at_beta_max_is_computation_error(self, command):
        # a fresh process, so a numpy RuntimeWarning would reach stderr
        src = str(Path(walkentropy.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-m", "walkentropy.cli", command, "-", "--beta-max", "236.5"],
            input=TWO_K4_K2.encode(), capture_output=True, env=env, check=False,
        )
        assert (proc.returncode, proc.stdout) == (2, b"")
        assert proc.stderr == (
            b"computation error: trace of exp(beta*A) overflows double precision at beta=236.5\n"
        )

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("verify-counterexample", "200"), "trace of exp(beta*A) overflows double precision at beta=200"),
            (("find-crossings", "800"), "trace of exp(beta*A) overflows double precision at beta=800"),
        ],
        ids=["verify-counterexample", "find-crossings"],
    )
    def test_peak_overflow_message(self, capsys, argv, message):
        # exp(beta * lambda_max) itself overflows at beta_max, so the trace is infinite
        code, out, err = run(capsys, argv[0], "--hm", "4", "--beta-max", argv[1])
        assert (code, out, err) == (2, "", f"computation error: {message}\n")


class TestVerifyCounterexample:
    def test_h4_human(self, capsys):
        code, out, _ = run(capsys, "verify-counterexample", "--hm", "4")
        assert code == 0
        assert "counterexample: true" in out
        assert "entropy maximal at beta = 1: false" in out
        assert "crossing count 2 <= n-1 = 23: true" in out

    def test_h4_json(self, capsys):
        code, out, _ = run(
            capsys, "verify-counterexample", "--hm", "4", "--format", "json"
        )
        doc = json.loads(out)
        assert doc["counterexample"] is True
        assert doc["crossing_count"] == 2
        assert doc["degree_histogram"] == {"4": 20, "5": 4}

    def test_k6_false(self, capsys, tmp_path):
        path = tmp_path / "k6.edges"
        path.write_text(serialize_edge_list(complete_graph(6)))
        code, out, _ = run(capsys, "verify-counterexample", str(path))
        assert code == 0
        assert "counterexample: false" in out

    def test_deterministic(self, capsys):
        args = ("verify-counterexample", "--hm", "4", "--format", "json")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second


def test_usage_error_exit_code_is_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 1


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("entropy", "--hm", "4", "--beta", "nan"), "--beta"),
        (("scan", "--hm", "4", "--beta-max", "inf"), "--beta-max"),
        (("find-crossings", "--hm", "4", "--beta-max", "nan"), "--beta-max"),
    ],
    ids=[
        "entropy-beta-nan",
        "scan-beta-max-inf",
        "find-crossings-beta-max-nan",
    ],
)
def test_bad_number_is_usage_error(capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 1
    assert f"argument {flag}: must be" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ("check-walk-regular",),
        ("entropy", "--beta", "1"),
        ("scan",),
        ("find-crossings",),
        ("verify-counterexample",),
    ],
    ids=lambda argv: argv[0],
)
def test_no_command_takes_tol(capsys, monkeypatch, argv):
    # the spread each command tests is printed; its tolerance is a constant
    stdin = io.StringIO(serialize_edge_list(hm_graph(4)))
    monkeypatch.setattr("sys.stdin", stdin)
    with pytest.raises(SystemExit) as exc:
        main([*argv, "-", "--tol", "1"])
    assert exc.value.code == 1
    assert "unrecognized arguments: --tol 1" in capsys.readouterr().err
    assert stdin.tell() == 0  # refused before the input is read


@pytest.mark.parametrize(
    "command, extra",
    [
        ("check-walk-regular", ()),
        # both would fail in the computation: a 72.8 TiB grid, exp overflow
        ("find-crossings", ("--step", "1e-12")),
        ("verify-counterexample", ("--beta-max", "800")),
        ("entropy", ("--beta", "1")),
    ],
)
def test_csv_is_rejected_before_any_work(capsys, monkeypatch, command, extra):
    def no_input(args):
        raise AssertionError("the graph was loaded")

    monkeypatch.setattr(cli, "_load_graph", no_input)
    with pytest.raises(SystemExit) as exc:
        main([command, "--hm", "4", *extra, "--format", "csv"])
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (1, "")
    # argparse's own refusal; its exact sentence varies across Python versions
    assert "--format" in err and "'csv'" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("gen-hm", "4"),
        ("check-walk-regular", "--hm", "4"),
        ("entropy", "--hm", "4", "--beta", "1", "--format", "json"),
        ("scan", "--hm", "4", "--beta-max", "2", "--step", "0.5", "--format", "csv"),
        ("find-crossings", "--hm", "4", "--format", "json"),
        ("verify-counterexample", "--hm", "4"),
    ],
    ids=lambda argv: argv[0],
)
def test_closed_stdout_exits_141_silently(argv):
    # the read end is closed before the program starts, so its first write fails
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = str(Path(walkentropy.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "walkentropy.cli", *argv],
            stdout=write_end, stderr=subprocess.PIPE, env=env, check=False,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (141, b"")


def test_closed_reader_of_large_output_exits_141_silently():
    # about 380 kB of CSV, more than a pipe buffer holds; the reader closes
    # its end without reading any of it
    argv = ("scan", "--hm", "4", "--beta-max", "4", "--step", "0.001", "--format", "csv")
    src = str(Path(walkentropy.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "walkentropy.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(), err) == (141, b"")


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "PYTHONUNBUFFERED"])
def test_reader_closing_part_way_exits_141_silently(unbuffered):
    # the reader takes the first bytes of about 380 kB of CSV, then closes its
    # end while the program is still writing; unbuffered, that write comes
    # back short rather than failing, and must still end the run with 141
    argv = ("scan", "--hm", "4", "--beta-max", "4", "--step", "0.001", "--format", "csv")
    src = str(Path(walkentropy.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen(
        [sys.executable, "-m", "walkentropy.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.read(10) == b"beta,entro"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(), err) == (141, b"")


@pytest.mark.parametrize(
    "text, digits",
    [("0 100000000\n", 9), ("0 " + "1" * 4000 + "\n", 4000)],
    ids=["71-PiB", "past-numpy-dimension-limit"],
)
def test_vertex_count_too_large_for_the_matrix_is_computation_error(
    capsys, monkeypatch, text, digits
):
    # numpy refuses both n x n arrays without allocating: one too large to
    # allocate (MemoryError), one too large to index (ValueError)
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, out, err = run(capsys, "check-walk-regular", "-")
    assert (code, out) == (2, "")
    message = f"adjacency matrix for a vertex count with {digits} digits is too large"
    assert err == f"computation error: {message}\n"


class TestToleranceDefaults:
    def test_entropy_default_decides_a_near_crossing(self, capsys):
        argv = ("entropy", "--hm", "4", "--beta", "0.499001418")
        _, out, _ = run(capsys, *argv)
        assert "spread = 7.99222e-10" in out
        assert "maximal = false" in out
        _, out, _ = run(capsys, *argv, "--format", "json")
        doc = json.loads(out)
        assert doc["spread"] > 1e-10
        assert doc["is_maximal"] is False


def test_readme_find_crossings_example_is_current(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"```text\n\$ walkentropy find-crossings --hm 4\n(.*?)```", readme, re.S)
    assert block is not None
    assert run(capsys, "find-crossings", "--hm", "4") == (0, block.group(1), "")


def test_readme_library_example_runs_as_written(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"## Library example\n\n```python\n(.*?)```", readme, re.S)
    assert block is not None
    exec(block.group(1), {})
    assert capsys.readouterr().out.count("\n") == 2  # one line per HM(4) crossing


def test_package_reexports_each_module_all():
    for module in (graphs, walks, spectral, entropy, temperature):
        for name in module.__all__:
            assert getattr(walkentropy, name) is getattr(module, name)
            assert walkentropy.__all__.count(name) == 1
