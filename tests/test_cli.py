import contextlib
import io
import json
import math
import os
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypbm import sim
from hypbm.cli import build_parser, main
from hypbm.kernels import EvaluationPoint, heat_kernel
from hypbm.tails import radial_density, tail


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestKernelCommand:
    def test_reference_point(self, capsys):
        code, out, _ = run_cli(capsys, "kernel", "--d", "3", "--t", "1", "--r", "1")
        assert code == 0
        header, row = out.strip().splitlines()
        assert header == "d,t,r,q,log_q"
        assert row.startswith("3,1.0,1.0,0.0198757484")

    def test_density_zero_at_origin(self, capsys):
        code, out, _ = run_cli(capsys, "density", "--d", "3", "--t", "1", "--r", "0")
        assert code == 0
        assert out.strip().splitlines()[1] == "3,1.0,0.0,0.0"

    def test_tight_tolerance_even_kernel_converges(self, capsys):
        argv = ["kernel", "--d", "8", "--t", "10", "--r", "0"]
        code, out, _ = run_cli(capsys, *argv, "--rel-tol", "1e-13")
        assert code == 0
        tight = float(out.strip().splitlines()[1].split(",")[4])
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        default = float(out.strip().splitlines()[1].split(",")[4])
        assert tight == pytest.approx(default, abs=1e-9)

    @pytest.mark.parametrize(
        "argv",
        [
            "--d 2 --t 1 --r 1e17",
            "--d 2 --t 1e300 --r 2e300",
            "--d 4 --t 1e300 --r 2e300",
            "--d 8 --t 1 --r 1e100",
            "--d 4 --t 1 --r 1e154",
            "--d 4 --t 1 --r 1.7e308",
            "--d 2 --t 1 --r 1.7e308",
            "--d 4 --t 2e307 --r 1",
            "--d 6 --t 1e307 --r 1",
        ],
    )
    def test_even_kernel_at_huge_radius(self, capsys, argv):
        # the decay and the fold's polynomial growth in s ~ r are factored
        # out, so log q keeps its leading terms to double precision; where
        # r^2/(2t) overflows, log q is -inf, as for odd d. (d-1)^2 t/8 is
        # formed from its constant first, so it stays finite up to t = 8 *
        # 1.8e308/(d-1)^2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "kernel", *argv.split())
        assert code == 0 and err == ""
        _, d, _, t, _, r = argv.split()
        d, t, r = int(d), float(t), float(r)
        want = -r * (r / (2.0 * t)) - (d - 1) * r / 2.0 - (d - 1) ** 2 / 8.0 * t
        assert float(out.strip().splitlines()[1].split(",")[4]) == pytest.approx(want, rel=1e-14)

    @pytest.mark.parametrize("command", ["kernel", "density"])
    def test_rows_match_scalar_calls_in_order(self, capsys, command):
        code, out, _ = run_cli(capsys, command, "--d", "2..9", "--t", "0.1,1,10", "--r", "0,0.001,0.5,2,10")
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        want = [(d, t, r) for d in range(2, 10) for t in (0.1, 1.0, 10.0) for r in (0.0, 0.001, 0.5, 2.0, 10.0)]
        assert [(int(row[0]), float(row[1]), float(row[2])) for row in rows] == want
        for row, (d, t, r) in zip(rows, want):
            if command == "kernel":
                q = heat_kernel(d, EvaluationPoint(t, r))
                assert row[3:] == [repr(q.value), repr(q.log)]
            else:
                assert row[3:] == [repr(radial_density(d, EvaluationPoint(t, r)))]

    def test_invalid_radius_in_a_list_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "kernel", "--d", "4", "--t", "1", "--r", "0.5,-1")
        assert code == 2 and out == ""
        assert "r must be finite and nonnegative, got -1.0" in err

    def test_even_kernel_at_subnormal_time(self, capsys):
        # from t = 5e-323 to 1e-318 no even kernel converged: exit 1 with "no
        # convergence"; at r = 0, q = 1/(2 pi t) = e^735 lies beyond the
        # double range, an overflow that exits 1 as below
        t, r = 1e-320, 4e-159
        code, out, err = run_cli(capsys, "kernel", "--d", "2,4", "--t", repr(t), "--r", repr(r))
        assert code == 0 and err == ""
        for d, row in zip((2, 4), out.strip().splitlines()[1:]):
            want = -0.5 * d * (math.log(2.0 * math.pi) + math.log(t)) - r * (r / (2.0 * t))
            assert float(row.split(",")[4]) == pytest.approx(want, rel=1e-12)
        code, out, err = run_cli(capsys, "kernel", "--d", "2", "--t", repr(t), "--r", "0")
        assert code == 1 and err == "hypbm: numerical failure: math range error\n"

    def test_kernel_beyond_the_double_range_exits_1(self, capsys):
        # log q is finite, q itself overflows: no inf is printed
        code, out, err = run_cli(capsys, "kernel", "--d", "10", "--t", "1e-100", "--r", "0")
        assert code == 1 and out == ""
        assert "math range error" in err


class TestTailCommand:
    def test_d2_center(self, capsys):
        code, out, _ = run_cli(capsys, "tail", "--d", "2", "--t", "100", "--x", "0")
        assert code == 0
        row = out.strip().splitlines()[1].split(",")
        assert 0.5 < float(row[3]) < 0.6
        assert row[5] == "even_decomposition"

    def test_negative_x_list(self, capsys):
        code, out, _ = run_cli(capsys, "tail", "--d", "3", "--t", "4", "--x", "-1,0,1")
        assert code == 0
        vals = [float(line.split(",")[3]) for line in out.strip().splitlines()[1:]]
        assert vals == sorted(vals, reverse=True)

    def test_x_range(self, capsys):
        code, out, _ = run_cli(capsys, "tail", "--d", "3", "--t", "4", "--x-range", "-1:1:0.5")
        assert code == 0
        assert len(out.strip().splitlines()) == 6  # header + 5 values

    def test_x_range_values_do_not_accumulate_rounding(self, capsys):
        code, out, _ = run_cli(capsys, "tail", "--d", "3", "--t", "4", "--x-range", "0:1:0.1")
        assert code == 0
        xs = [line.split(",")[2] for line in out.strip().splitlines()[1:]]
        assert xs == ["0.0", "0.1", "0.2", "0.3", "0.4", "0.5", "0.6", "0.7", "0.8", "0.9", "1.0"]

    def test_rows_match_scalar_tails_in_order(self, capsys):
        code, out, _ = run_cli(capsys, "tail", "--d", "2,3,4", "--t", "1,10", "--x", "-3,-0.5,0,2")
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        want = [(d, t, x) for d in (2, 3, 4) for t in (1.0, 10.0) for x in (-3.0, -0.5, 0.0, 2.0)]
        assert [(int(r[0]), float(r[1]), float(r[2])) for r in rows] == want
        for r, (d, t, x) in zip(rows, want):
            est = tail(d, t, x)
            assert r[3:] == [repr(est.value), repr(est.error_estimate), est.method]

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "tail", "--d", "3", "--t", "1", "--x", "0", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["meta"]["tool"] == "hypbm"
        assert payload["rows"][0]["method"] == "closed_form_d3"


class TestSweepCommand:
    def test_log_range_schema(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--d", "3", "--t-log-range", "10:1000:5")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "d,t,delta,argmax_x,evaluations"
        assert len(lines) == 6
        deltas = [float(line.split(",")[2]) for line in lines[1:]]
        assert all(d > 0 for d in deltas)
        assert deltas == sorted(deltas, reverse=True)


class TestSimulateCommand:
    def test_schema_and_determinism(self, capsys, tmp_path):
        args = (
            "simulate", "--d", "3", "--t", "2", "--x", "0",
            "--paths", "2000", "--step", "0.01", "--seed", "7",
        )
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main([*args, "--out", str(f1)]) == 0
        assert main([*args, "--out", str(f2)]) == 0
        assert f1.read_bytes() == f2.read_bytes()
        header = f1.read_text().splitlines()[0]
        assert header == "d,t,x,estimate,standard_error,paths,seed"

    def test_output_does_not_depend_on_thread_count(self, capsys, monkeypatch, tmp_path):
        # 40000 paths: five blocks of the simulator, the last one partial, which
        # fall into different runs on one and on two threads
        args = ["simulate", "--d", "3", "--t", "1", "--x", "-1,0,1", "--paths", "40000", "--step", "0.01", "--seed", "3"]
        outs = []
        for threads in (1, 2):
            monkeypatch.setattr(sim, "_threads", lambda blocks, n=threads: min(n, blocks))
            code, stdout, _ = run_cli(capsys, *args)
            assert code == 0
            path = tmp_path / f"{threads}.csv"
            assert main([*args, "--out", str(path)]) == 0
            outs.append((stdout, path.read_bytes()))
        assert outs[0] == outs[1]
        assert outs[0][0].encode() == outs[0][1]

    def test_nan_x_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "simulate", "--d", "3", "--t", "1", "--x", "nan", "--paths", "10")
        assert code == 2 and out == ""
        assert err == "hypbm: invalid argument: x must not be NaN, got nan\n"

    @pytest.mark.parametrize("flag", ["--abs-tol", "--rel-tol"])
    def test_rejects_quadrature_tolerances(self, flag):
        # the simulator runs no quadrature, and the kernels test their
        # integral by rel_tol alone: the flag would do nothing
        argvs = [["simulate", "--d", "3", "--t", "1", "--x", "0", "--paths", "10"]]
        if flag == "--abs-tol":
            argvs += [[command, "--d", "2", "--t", "1", "--r", "1"] for command in ("kernel", "density")]
        for argv in argvs:
            with pytest.raises(SystemExit) as exc:
                main([*argv, flag, "1e-6"])
            assert exc.value.code == 2, argv[0]


class TestVerifyCommand:
    def test_identities_suite(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "identities")
        assert code == 0
        assert all(line.startswith("PASS") for line in out.strip().splitlines())

    def test_millson_suite_covers_even_d(self, capsys):
        # q_d from q_{d-2} by one numerical recursion step: an oracle for the
        # descent quadrature that shares none of its range rule
        code, out, _ = run_cli(capsys, "verify", "millson")
        assert code == 0
        names = [line.split(":")[0] for line in out.strip().splitlines()]
        assert names == [f"PASS recursion consistency d={d}" for d in (5, 7, 4, 6, 8)]

    @pytest.mark.parametrize("t", ["1e-18", "1e-310"])
    def test_normalization_at_tiny_time(self, capsys, t):
        code, out, _ = run_cli(capsys, "verify", "normalization", "--d", "2", "--t", t)
        assert code == 0 and out.startswith(f"PASS normalization d=2 t={float(t)}")

    def test_unknown_suite_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "nonsense"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv,message",
        [
            ("normalization --d 2 --t 0", "t must be finite and positive, got 0.0"),
            ("normalization --d 2 --t nan", "t must be finite and positive, got nan"),
            ("normalization --d 2 --t -1", "t must be finite and positive, got -1.0"),
            ("normalization --d 2 --t inf", "t must be finite and positive, got inf"),
            ("normalization --d 1", "dimension must be an integer >= 2, got 1"),
            ("davies --d 1", "dimension must be an integer >= 2, got 1"),
        ],
    )
    def test_invalid_suite_arguments_exit_2(self, capsys, argv, message):
        # rejected before any integral runs: no made-up FAIL row, no numpy warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "verify", *argv.split())
        assert code == 2 and out == ""
        assert err == f"hypbm: invalid argument: {message}\n"


    @pytest.mark.parametrize(
        "argv", ["davies --t 1", "millson --d 3", "normalization --x 1", "identities --d 9"]
    )
    def test_option_the_suite_does_not_take_exits_2(self, capsys, argv):
        # each of these ran the suite's defaults and exited 0, the option unread
        suite, option = argv.split()[:2]
        code, out, err = run_cli(capsys, "verify", *argv.split())
        assert code == 2 and out == ""
        assert err == f"hypbm: invalid argument: verify {suite} takes no {option}\n"


class TestErrorPaths:
    def test_invalid_arguments_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["tail", "--d", "3"])  # missing --t/--x
        assert exc.value.code == 2

    def test_numerical_failure_exit_1(self, capsys):
        # tolerances no double-precision quadrature can meet
        code = main(["kernel", "--d", "2", "--t", "1", "--r", "1", "--rel-tol", "1e-300"])
        assert code == 1
        assert "numerical failure" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["tail", "--d", "3", "--t", "-4", "--x", "0"],
            ["tail", "--d", "3", "--t", "0", "--x", "0"],
            ["tail", "--d", "3", "--t", "1", "--x", "nan"],
            ["kernel", "--d", "1", "--t", "1", "--r", "1"],
            ["kernel", "--d", "2", "--t", "-1", "--r", "1"],
        ],
    )
    def test_invalid_values_exit_2(self, capsys, argv):
        code = main(argv)
        assert code == 2
        err = capsys.readouterr().err
        assert "invalid argument" in err and "numerical failure" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            "verify normalization --d 5..3",
            "verify cross-oracle --x ,",
            "kernel --d 3 --t , --r 1",
            "tail --d 3 --t , --x 0",
            "sweep --d 3 --t ,",
        ],
    )
    def test_empty_list_exits_2(self, capsys, argv):
        # each of these printed nothing, a header or PASS rows over no point, and exited 0
        with pytest.raises(SystemExit) as exc:
            main(argv.split())
        assert exc.value.code == 2 and capsys.readouterr().out == ""

    @pytest.mark.parametrize(
        "argv",
        [
            "tail --d 3 --t 1 --x-range 0:1e30:1",
            "tail --d 3 --t 1 --x-range 0:1:1e-12",
            "kernel --d 2..2000000000 --t 1 --r 1",
            "sweep --d 2..600000,2..600000 --t 1",
            "sweep --d 3 --t-log-range 1:10:1000001",
        ],
    )
    def test_range_beyond_a_million_points_exits_2(self, capsys, argv):
        # the parsers count the points before building a list: the first
        # raised decimal.InvalidOperation, the others built the whole list
        with pytest.raises(SystemExit) as exc:
            main(argv.split())
        assert exc.value.code == 2 and capsys.readouterr().out == ""

    @pytest.mark.parametrize("argv", [["--t", "1e300", "--x", "1"], ["--t", "1e21", "--x", "-3"]])
    def test_odd_tail_at_huge_time_is_gaussian(self, capsys, argv):
        # every boundary term's O(t) exponents cancel exactly into e^{-x^2/2}:
        # the tail is Phi(x) to within O(t^{-1/2})
        code, out, err = run_cli(capsys, "tail", "--d", "5", *argv)
        assert code == 0 and err == ""
        x = float(argv[3])
        assert float(out.strip().splitlines()[1].split(",")[3]) == pytest.approx(0.5 * math.erfc(x / math.sqrt(2.0)), abs=1e-8)

    def test_odd_tail_past_the_double_range_is_numerical_failure(self, capsys):
        # n^2 t and T overflow: the tail must fail loudly, neither print NaN
        # nor escape as an OverflowError
        code, out, err = run_cli(capsys, "tail", "--d", "5", "--t", "1e308", "--x", "0")
        assert code == 1
        assert "numerical failure" in err and out == ""

    @pytest.mark.parametrize("d", ["2", "4"])
    def test_even_tail_at_the_largest_x_is_zero(self, capsys, d):
        # the threshold sqrt(t) (x - boundary_x) overflows to inf at 1.7e308
        # and 2T at 1e308: the tail is exactly 0, with no numerical failure
        # and no numpy warning
        for x in ("1.7e308", "1e308"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code, out, err = run_cli(capsys, "tail", "--d", d, "--t", "3", "--x", x)
            assert code == 0 and err == ""
            assert out.strip().splitlines()[1].split(",")[3] == "0.0"

    def test_odd_tail_far_beyond_the_bulk_is_zero(self, capsys):
        # every boundary term's Gaussian factor e^{-T^2/(2t)} is beyond the double range
        code, out, _ = run_cli(capsys, "tail", "--d", "5", "--t", "1", "--x", "1e300")
        assert code == 0
        assert out.strip().splitlines()[1].split(",")[3] == "0.0"


@pytest.mark.parametrize("package", ["scipy", "mpmath"])
def test_import_leaves_module_unloaded(package):
    # scipy and mpmath are test and benchmark references only; scipy alone
    # takes longer to import than the rest of hypbm
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = f"import sys, hypbm.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == {package!r}))"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def _readme_cli_lines() -> list[str]:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```")[1]
    lines = [line for line in block.splitlines() if line.startswith("hypbm ")]
    assert lines, "README's CLI block has no hypbm lines"
    return lines


class TestReadme:
    @pytest.mark.parametrize("line", _readme_cli_lines())
    def test_cli_example_parses(self, line):
        build_parser().parse_args(shlex.split(line, comments=True)[1:])


_FUZZ_VALUES = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, 5e-324, 1e-300, 1e-3, 1e300, 1.7e308]),
    st.floats(min_value=-20.0, max_value=1e4),
    st.floats(allow_nan=True, allow_infinity=True),
)


class TestFuzz:
    @given(
        command=st.sampled_from(["kernel", "density", "tail"]),
        d=st.integers(min_value=-1, max_value=12),
        t=_FUZZ_VALUES,
        v=_FUZZ_VALUES,
    )
    @settings(max_examples=300, deadline=None)
    def test_exit_codes_and_tail_range(self, command, d, t, v):
        flag = "--x" if command == "tail" else "--r"
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()), warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning fails the example
            try:
                code = main([command, f"--d={d}", f"--t={t!r}", f"{flag}={v!r}"])
            except SystemExit as exc:  # argparse rejects the arguments
                code = exc.code
        assert code in (0, 1, 2)
        if code == 0 and command == "tail":
            value = float(stdout.getvalue().splitlines()[1].split(",")[3])
            assert math.isfinite(value) and 0.0 <= value <= 1.0
