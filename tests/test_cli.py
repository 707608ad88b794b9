import hashlib
import json
import math
import os
import subprocess
import sys
import threading
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from covdev import bounded_ratio, cli, diag_trace_moment, load_profile, montecarlo, oracle, shapes
from covdev.cli import dumps_canonical, main


def run_cli(capsys, *argv):
    status = main(list(argv))
    out = capsys.readouterr()
    return status, out.out, out.err


def payload_of(stdout: str) -> dict:
    return json.loads(stdout)["payload"]


def strip_timestamp(stdout: str) -> str:
    return "\n".join(line for line in stdout.splitlines() if '"timestamp"' not in line)


def cli_process_env() -> dict:
    """The environment for running `python -m covdev.cli` in a subprocess."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


@pytest.fixture
def profile_file(tmp_path):
    path = tmp_path / "prof.csv"
    path.write_text("1,2\n3,4\n")
    return str(path)


class TestCanonicalJson:
    def test_seventeen_digit_floats(self):
        text = dumps_canonical({"x": 1 / 3})
        assert "0.33333333333333331" in text

    def test_round_trip(self):
        obj = {"a": [1.5, 2, None, True], "b": {"c": "q\"uote"}}
        assert json.loads(dumps_canonical(obj)) == obj

    def test_non_finite_as_strings(self):
        assert json.loads(dumps_canonical({"b": math.inf}))["b"] == "inf"

    @pytest.mark.parametrize("obj, text", [({}, "{}"), (float("nan"), '"nan"')])
    def test_edge_values(self, obj, text):
        assert dumps_canonical(obj) == text

    def test_unsupported_object_raises(self):
        with pytest.raises(TypeError, match="cannot serialize object"):
            dumps_canonical(object())


class TestParamsCommand:
    def test_constant_sigma_c(self, capsys):
        status, out, _ = run_cli(capsys, "params", "--family", "constant", "--d", "2", "--n", "2")
        assert status == 0
        p = payload_of(out)
        assert p["params"]["sigma_C"] == pytest.approx(math.sqrt(2))
        assert p["schatten"][0]["p"] == 2

    def test_zero_profile(self, capsys, tmp_path):
        path = tmp_path / "zero.json"
        path.write_text("[[0,0],[0,0]]")
        status, out, _ = run_cli(capsys, "params", "--profile", str(path))
        assert status == 0
        p = payload_of(out)
        assert all(v == 0 for k, v in p["params"].items())

    def test_malformed_csv_exit_2(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2\n3\n")
        status, out, err = run_cli(capsys, "params", "--profile", str(path))
        assert status == 2
        p = payload_of(out)
        assert p["error"]["line"] == 2
        assert err  # diagnostics on stderr

    def test_missing_profile_exit_2(self, capsys):
        status, out, _ = run_cli(capsys, "params")
        assert status == 2
        assert "error" in payload_of(out)

    def test_profile_with_non_bounded_ratio_family_exit_2(self, capsys, profile_file):
        status, out, err = run_cli(
            capsys, "params", "--family", "constant", "--d", "2", "--n", "2", "--profile", profile_file
        )
        assert status == 2
        assert payload_of(out)["error"]["type"] == "ValueError"
        assert "--profile" in payload_of(out)["error"]["message"]
        assert "Traceback" not in err

    @pytest.mark.parametrize("first_cell", ["1.5", "1"])
    def test_cell_beyond_float64_exit_2(self, capsys, tmp_path, first_cell):
        # "1.5" makes a float profile, "1" an exact one; neither has a float64
        # value for a 400-digit integer
        path = tmp_path / "huge.csv"
        path.write_text(f"{first_cell},{'9' * 400}\n")
        status, out, err = run_cli(capsys, "params", "--profile", str(path))
        assert status == 2
        assert payload_of(out)["error"]["type"] == "ProfileDomainError"
        assert "Traceback" not in err

    @pytest.mark.parametrize("family, extra, unread", [
        ("constant", ("--b", "1,2"), "--b"),
        ("iid_rows", ("--b", "1,2", "--a", "1,2"), "--a"),
        ("rank_one", ("--a", "1,2", "--b", "1,2", "--K", "3"), "--K"),
    ])
    def test_family_option_not_read_exit_2(self, capsys, family, extra, unread):
        status, out, err = run_cli(capsys, "params", "--family", family, "--d", "2", "--n", "2", *extra)
        assert status == 2
        assert payload_of(out)["error"]["type"] == "ValueError"
        assert unread in payload_of(out)["error"]["message"]
        assert "Traceback" not in err

    @pytest.mark.parametrize("family, extra, message", [
        ("iid_columns", (), "iid_columns requires --b"),
        ("iid_rows", ("--b", ""), "iid_rows requires --b"),
        ("rank_one", ("--a", "1,2"), "rank_one requires --a and --b"),
        ("bounded_ratio", ("--K", "2"), "bounded_ratio requires --K and a base --profile"),
    ])
    def test_family_option_missing_exit_2(self, capsys, family, extra, message):
        status, out, err = run_cli(capsys, "params", "--family", family, "--d", "2", "--n", "2", *extra)
        assert status == 2
        assert payload_of(out)["error"] == {"type": "ValueError", "message": message}
        assert "Traceback" not in err

    @pytest.mark.parametrize("family, extra, cell", [
        ("iid_rows", ("--b", "1,1/0"), "1/0"),
        ("rank_one", ("--a", "0/0", "--b", "1,1"), "0/0"),
    ])
    def test_family_vector_zero_denominator_exit_2(self, capsys, family, extra, cell):
        status, out, err = run_cli(capsys, "params", "--family", family, "--d", "2", "--n", "2", *extra)
        assert status == 2
        assert payload_of(out)["error"] == {"type": "ValueError", "message": f"zero denominator in {cell!r}"}
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv, kind, message", [
        (("iid_columns", "--d", "3", "--n", "2", "--b", "1,2"), "ValueError", "iid_columns needs a length-3 vector"),
        (("iid_rows", "--d", "2", "--n", "3", "--b", "1,2"), "ValueError", "iid_rows needs a length-3 vector"),
        (("rank_one", "--d", "2", "--n", "3", "--a", "1,2", "--b", "1,2"), "ValueError",
         "rank_one needs vectors of lengths 2 and 3"),
        (("rank_one", "--d", "3", "--n", "2", "--a", "1,2", "--b", "1,2"), "ValueError",
         "rank_one needs vectors of lengths 3 and 2"),
        (("constant", "--d", "0", "--n", "2"), "ProfileDomainError", "d and n must be positive"),
        (("iid_rows", "--d", "2", "--n", "0", "--b", "1"), "ProfileDomainError", "d and n must be positive"),
        (("bounded_ratio", "--d", "0", "--n", "2", "--K", "2", "--profile", "@"), "ProfileDomainError",
         "d and n must be positive"),
        (("iid_columns", "--d", "2", "--n", "2", "--b", "1,-2"), "ProfileDomainError",
         "family vectors must be nonnegative"),
        (("rank_one", "--d", "2", "--n", "2", "--a=-0.5,1", "--b", "1,2"), "ProfileDomainError",
         "family vectors must be nonnegative"),
        (("bounded_ratio", "--d", "2", "--n", "2", "--K", "0.5", "--profile", "@"), "ValueError",
         "bounded_ratio requires K >= 1"),
        (("bounded_ratio", "--d", "2", "--n", "2", "--K", "nan", "--profile", "@"), "ValueError",
         "bounded_ratio requires K >= 1"),
        (("bounded_ratio", "--d", "2", "--n", "3", "--K", "2", "--profile", "@"), "ValueError",
         "bounded_ratio needs a base profile of matching dimensions"),
        (("constant", "--d", "2"), "ValueError", "--family requires --d and --n"),
    ])
    def test_family_input_fault_exit_2(self, capsys, profile_file, argv, kind, message):
        # "@" stands for the 2x2 base profile
        args = [profile_file if a == "@" else a for a in argv]
        status, out, err = run_cli(capsys, "params", "--family", *args)
        assert status == 2
        assert payload_of(out)["error"] == {"type": kind, "message": message}
        assert "Traceback" not in err

    def test_envelope_fields(self, capsys, profile_file):
        _, out, _ = run_cli(capsys, "params", "--profile", profile_file)
        env = json.loads(out)
        assert env["command"] == "params"
        assert len(env["profile_digest"]) == 64
        assert env["tool_version"]


# (file name, content, error type, message, line or None): one fault of a profile file each
PROFILE_FILE_FAULTS = [
    ("empty_cell.csv", "1,,2\n", "ProfileFormatError", "line 1: bad cell ''", 1),
    ("blank_first_line.csv", "\n1,2\n", "ProfileFormatError", "blank line before any data", 1),
    ("nan.json", "[[NaN]]", "ProfileFormatError", "non-finite JSON constant 'NaN'", None),
    ("trailing_data.json", "[[1,2]] x", "ProfileFormatError",
     "invalid JSON: Extra data: line 1 column 9 (char 8)", 1),
    ("missing_key.json", '{"d": 2}', "ProfileFormatError", "missing key 'n'", None),
    ("short_row.json", '{"d": 1, "n": 2, "entries": [[1]]}', "ProfileFormatError",
     "entries rows must all have n=2 cells", None),
    ("no_rows.json", "[]", "ProfileDomainError", "empty matrix", None),
    ("row_not_array.json", "[1,2]", "ProfileFormatError", "row 1 is not an array", 1),
    ("bool_cell.json", "[[true]]", "ProfileFormatError", "row 1: unsupported cell type bool", 1),
    ("null_cell.json", "[[null]]", "ProfileFormatError", "row 1: unsupported cell type NoneType", 1),
    ("nested_cell.json", "[[[1]]]", "ProfileFormatError", "row 1: unsupported cell type list", 1),
    # not "[" or "{" first, so read as CSV whatever the file's name
    ("scalar.json", '"str"', "ProfileFormatError", "line 1: bad cell '\"str\"'", 1),
]


class TestProfileFileErrors:
    @pytest.mark.parametrize("name, text, kind, message, line", PROFILE_FILE_FAULTS,
                             ids=[row[0] for row in PROFILE_FILE_FAULTS])
    def test_fault_exit_2_with_envelope(self, capsys, tmp_path, name, text, kind, message, line):
        path = tmp_path / name
        path.write_text(text)
        status, out, err = run_cli(capsys, "params", "--profile", str(path))
        assert status == 2
        want = {"type": kind, "message": message}
        if line is not None:
            want["line"] = line
        assert payload_of(out)["error"] == want
        assert "Traceback" not in err

    @pytest.mark.parametrize("name, text", [
        ("csv.json", "1,2\n"),
        ("array.csv", "[[1, 2]]"),
        ("object", ' \n{"d": 1, "n": 2, "entries": [[1, 2]]}'),
    ], ids=["csv.json", "array.csv", "object"])
    def test_format_read_from_the_content_not_the_name(self, capsys, tmp_path, name, text):
        path = tmp_path / name
        path.write_text(text)
        status, out, _ = run_cli(capsys, "params", "--profile", str(path))
        assert status == 0
        assert payload_of(out)["profile"] == {"d": 1, "n": 2, "exact": True}

    @pytest.mark.parametrize("name, data, message, line", [
        ("bracket.csv", b"[1,2\n", "invalid JSON: Expecting ',' delimiter: line 2 column 1 (char 5)", 2),
    ], ids=["bracket.csv"])
    def test_other_parsers_error_for_a_misleading_first_character(self, capsys, tmp_path, name, data, message, line):
        path = tmp_path / name
        path.write_bytes(data)
        status, out, err = run_cli(capsys, "params", "--profile", str(path))
        assert status == 2 and "Traceback" not in err
        assert payload_of(out)["error"] == {"type": "ProfileFormatError", "message": message, "line": line}


    @pytest.mark.parametrize("name, data", [
        ("bom.csv", b"\xef\xbb\xbf1,2\n"),
        ("bom.json", b"\xef\xbb\xbf[[1, 2]]"),
    ], ids=["bom.csv", "bom.json"])
    def test_byte_order_mark_is_dropped(self, capsys, tmp_path, name, data):
        path = tmp_path / name
        path.write_bytes(data)
        status, out, _ = run_cli(capsys, "params", "--profile", str(path))
        assert status == 0
        assert payload_of(out)["profile"] == {"d": 1, "n": 2, "exact": True}
        assert json.loads(out)["profile_digest"] == hashlib.sha256(data).hexdigest()  # of the bytes as read


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [
        ["examples", "--family", "constant", "--grid", "10"],
        ["params", "--family", "constant", "--d", "2", "--n", "2", "--p", "x"],
        ["bounds", "--family", "constant", "--d", "abc", "--n", "2"],
        ["bounds", "--family", "constant", "--d", "2", "--n", "2", "--no-such-option"],
        ["examples", "--family", "mystery"],
        ["params", "--profile", "B.json", "--profile-format", "json"],
    ])
    def test_rejected_arguments_exit_2_with_envelope(self, capsys, argv):
        status, out, err = run_cli(capsys, *argv)
        assert status == 2
        env = json.loads(out)
        assert env["command"] == argv[0]
        assert env["payload"]["error"]["type"] == "UsageError"
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [[], ["no-such-command"]])
    def test_no_subcommand_has_null_command(self, capsys, argv):
        status, out, _ = run_cli(capsys, *argv)
        assert status == 2
        assert json.loads(out)["command"] is None

    @pytest.mark.parametrize("argv", [["--help"], ["--version"], ["bounds", "--help"]])
    def test_help_and_version_exit_0(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out

    @pytest.mark.parametrize("arg", [b"\x01", b"\xff"])  # a control character, a byte that is not UTF-8
    def test_unprintable_argument_gives_strict_utf8_json(self, arg):
        argv = [sys.executable, "-m", "covdev.cli", "params", "--family", "constant", "--d", "2", "--n", "2"]
        run = subprocess.run([*map(os.fsencode, argv), arg], capture_output=True, env=cli_process_env(), timeout=60)
        assert run.returncode == 2
        envelope = json.loads(run.stdout.decode("utf-8"))  # strict: a raw surrogate byte would raise
        assert envelope["payload"]["error"]["message"] == "unrecognized arguments: " + os.fsdecode(arg)


class TestBoundsCommand:
    def test_family_digest_hashes_the_csv_text(self, capsys):
        _, out, _ = run_cli(capsys, "bounds", "--family", "constant", "--d", "7", "--n", "5")
        assert json.loads(out)["profile_digest"] == hashlib.sha256(b"1,1,1,1,1\n" * 7).hexdigest()

    def test_iid_rows_case_and_leading(self, capsys):
        status, out, _ = run_cli(
            capsys, "bounds", "--family", "iid_rows", "--d", "4", "--n", "2", "--b", "1,2"
        )
        assert status == 0
        reports = {r["bound_name"]: r for r in payload_of(out)["reports"]}
        main_r = reports["main_upper_bound"]
        assert main_r["case_taken"] == "beta_gt_1"
        l4sq = math.sqrt(1 + 16)
        assert main_r["leading_term"] == pytest.approx(1.5 * (2 * 2 * l4sq + 4 * 4))
        assert set(main_r["branch_totals"]) == {"beta_le_1", "beta_gt_1"}

    def test_rank_one_gets_all_comparators(self, capsys):
        _, out, _ = run_cli(
            capsys, "bounds", "--family", "rank_one", "--d", "2", "--n", "3",
            "--a", "1,2", "--b", "3,1,2",
        )
        names = {r["bound_name"] for r in payload_of(out)["reports"]}
        assert {"main_upper_bound", "chz_bound", "free_probability_bound",
                "lower_bound_opnorm", "kl_comparator", "schatten_upper_bound",
                "diagonal_bound", "lower_bound_schatten"} <= names

    def test_zero_profile_warns(self, capsys, tmp_path):
        path = tmp_path / "z.csv"
        path.write_text("0,0\n0,0\n")
        _, out, _ = run_cli(capsys, "bounds", "--profile", str(path))
        for r in payload_of(out)["reports"]:
            assert r["total"] == 0
        assert any(r["warnings"] for r in payload_of(out)["reports"])


class TestFloatRangeEdge:
    @staticmethod
    def _csv(tmp_path, name, v):
        path = tmp_path / name
        path.write_text(f"{v!r},{v!r}\n{v!r},{v / 2!r}\n")
        return str(path)

    @pytest.mark.filterwarnings("error")
    def test_params_and_bounds_near_1e200(self, capsys, tmp_path):
        runs = {}
        for name, v in (("big", 1e200), ("unit", 1.0)):
            for command in ("params", "bounds"):
                status, out, err = run_cli(capsys, command, "--profile", self._csv(tmp_path, name, v), "--p", "2,6")
                assert status == 0 and "Traceback" not in err and '"nan"' not in out
                runs[command, name] = payload_of(out)
        for command in ("params", "bounds"):
            params = runs[command, "big"]["params"]
            assert params["sigma_inf"] == "inf"  # about 1e400
            assert params["beta_inf"] == runs[command, "unit"]["params"]["beta_inf"]
        reports, unit_reports = runs["bounds", "big"]["reports"], runs["bounds", "unit"]["reports"]
        assert all(r["total"] == "inf" for r in reports)
        assert [r["case_taken"] for r in reports] == [r["case_taken"] for r in unit_reports]
        assert reports[0]["case_taken"] == "beta_gt_1"

    @pytest.mark.parametrize("option", [("--epsilon", "1e-320"), ("--const", "1e200")])
    def test_c_eps_squared_beyond_float_range_is_inf(self, capsys, option):
        family = ("--family", "constant", "--d", "2", "--n", "2")
        status, out, err = run_cli(capsys, "bounds", *family, *option)
        assert status == 0 and "Traceback" not in err
        totals = {r["bound_name"]: r["total"] for r in payload_of(out)["reports"]}
        assert totals["main_upper_bound"] == totals["chz_bound"] == "inf"
        status, out, err = run_cli(capsys, "examples", "--family", "rank_one", "--grid", "3x5,4x4", *option)
        assert status == 0 and "Traceback" not in err
        assert len(payload_of(out)["grid"]) == 2
        status, out, err = run_cli(capsys, "compare", *family, "--samples", "10", *option)
        assert status == 0 and "Traceback" not in err
        bounds = payload_of(out)["bounds"]
        assert bounds["main_upper_bound"]["total"] == bounds["chz_bound"]["total"] == "inf"

    @pytest.mark.parametrize("const, zero", [("1e200", False), ("1e308", False), ("1e200", True)])
    def test_zero_factor_beside_infinite_c_eps_is_finite(self, capsys, tmp_path, const, zero):
        # C(eps)^2 is inf at 1e200 (C(eps) too at 1e308); d = 1 gives L = log 1 = 0,
        # and the all-zero profile sigma_* = 0, so the terms are 0, not 0 * inf
        source = ("--family", "constant", "--d", "1", "--n", "3")
        if zero:
            path = tmp_path / "zero.csv"
            path.write_text("0,0\n0,0\n")
            source = ("--profile", str(path))
        status, out, err = run_cli(capsys, "bounds", *source, "--const", const)
        assert status == 0 and "Traceback" not in err and '"nan"' not in out
        reports = {r["bound_name"]: r for r in payload_of(out)["reports"]}
        for name in ("main_upper_bound", "chz_bound"):
            assert dict(reports[name]["error_terms"]) == {"sqrt_log": 0, "log": 0}
            assert reports[name]["total"] == reports[name]["leading_term"]
        assert all(math.isfinite(t) for t in reports["main_upper_bound"]["branch_totals"].values())

    @pytest.mark.filterwarnings("error")
    def test_bounded_ratio_base_near_1e200(self, capsys, tmp_path):
        # the column norms of the base pass 1e154 (their squares overflow) while the result is finite
        path = tmp_path / "huge.csv"
        path.write_text("1e200,1\n1e200,1\n")
        status, out, err = run_cli(
            capsys, "params", "--family", "bounded_ratio", "--d", "2", "--n", "2", "--K", "2", "--profile", str(path)
        )
        assert status == 0 and err == ""
        assert payload_of(out)["params"]["sigma_C"] == pytest.approx(math.sqrt(2) * 1e200)
        norms = np.hypot.reduce(bounded_ratio(load_profile(path.read_text()), 2.0).as_array(), axis=0)
        assert np.all(np.isfinite(norms)) and norms.max() <= 2.0 * norms.min() * (1 + 1e-12)


class TestSimulateCommand:
    def test_estimates_and_csv(self, capsys, profile_file, tmp_path):
        csv_path = tmp_path / "est.csv"
        status, out, _ = run_cli(
            capsys, "simulate", "--profile", profile_file,
            "--seed", "7", "--samples", "10", "--p", "2", "--csv", str(csv_path),
        )
        assert status == 0
        ests = payload_of(out)["estimates"]
        assert ests[0]["target"] == "opnorm"
        assert ests[1]["target"] == "schatten_trace(2)"
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "target,mean,stderr,samples,seed"
        assert len(lines) == 3

    @pytest.mark.parametrize("option, message", [
        (("--samples", "1"), "samples must be >= 2 for a standard error"),
        (("--seed", "-1"), "seed must fit in an unsigned 64-bit integer"),
    ])
    def test_bad_config_exit_2(self, capsys, profile_file, option, message):
        status, out, err = run_cli(capsys, "simulate", "--profile", profile_file, *option)
        assert status == 2 and "Traceback" not in err
        assert payload_of(out)["error"] == {"type": "ValueError", "message": message}

    def test_deterministic_payload_bytes(self, capsys, profile_file):
        _, out1, _ = run_cli(capsys, "simulate", "--profile", profile_file, "--seed", "3", "--samples", "8")
        _, out2, _ = run_cli(capsys, "simulate", "--profile", profile_file, "--seed", "3", "--samples", "8")
        assert strip_timestamp(out1) == strip_timestamp(out2)

    def test_odd_p_exit_2_before_sampling(self, capsys, profile_file, monkeypatch):
        def no_sampling(*a):
            raise AssertionError("sampled before validating --p")

        monkeypatch.setattr(np.linalg, "eigvalsh", no_sampling)
        status, out, _ = run_cli(capsys, "simulate", "--profile", profile_file, "--samples", "5", "--p", "2,3")
        assert status == 2
        assert payload_of(out)["error"]["message"] == "p must be an even integer >= 2, got 3"

    def test_eigensolver_failure_exit_2(self, capsys, profile_file, monkeypatch):
        def fail(M):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        status, out, err = run_cli(capsys, "simulate", "--profile", profile_file, "--samples", "5", "--p", "2")
        assert status == 2
        error = payload_of(out)["error"]
        assert error["type"] == "EigenConvergenceError"
        assert "sample 0" in error["message"]
        assert "Traceback" not in err

    def test_memory_error_exit_2(self, capsys, profile_file, monkeypatch):
        def exhausted(M):
            raise MemoryError("cannot allocate workspace")

        monkeypatch.setattr(np.linalg, "eigvalsh", exhausted)
        status, out, err = run_cli(capsys, "compare", "--profile", profile_file, "--samples", "5")
        assert status == 2
        assert payload_of(out)["error"] == {"type": "MemoryError", "message": "cannot allocate workspace"}
        assert "Traceback" not in err

    def test_bare_memory_error_names_its_type(self, capsys, profile_file, monkeypatch):
        def exhausted(M):
            raise MemoryError()

        monkeypatch.setattr(np.linalg, "eigvalsh", exhausted)
        status, out, err = run_cli(capsys, "simulate", "--profile", profile_file, "--samples", "5")
        assert status == 2
        assert payload_of(out)["error"] == {"type": "MemoryError", "message": "MemoryError"}
        assert err == "covdev: MemoryError\n"

    def test_memory_error_in_threaded_chunks_exit_2(self, capsys, monkeypatch):
        def exhausted(M):
            raise MemoryError("cannot allocate workspace")

        monkeypatch.setattr(np.linalg, "eigvalsh", exhausted)
        monkeypatch.setattr(montecarlo, "_workers", lambda d, n: 3)
        threads = threading.active_count()
        # 40 samples of 20x400 take 3 chunks at the default budget; 3 threads split
        # it into chunks of 5 samples, 8 in all.
        status, out, err = run_cli(
            capsys, "simulate", "--family", "constant", "--d", "20", "--n", "400", "--samples", "40", "--p", "2"
        )
        assert status == 2
        assert payload_of(out)["error"] == {"type": "MemoryError", "message": "cannot allocate workspace"}
        assert "Traceback" not in err
        assert threading.active_count() == threads


class TestOracleCommand:
    def test_moments_with_shape_sum(self, capsys, profile_file):
        status, out, _ = run_cli(capsys, "oracle", "--profile", profile_file, "--p", "2", "--shape-sum")
        assert status == 0
        p = payload_of(out)
        vals = {m["kind"]: m for m in p["moments"]}
        assert vals["offdiag"]["exact"] == "146"
        assert vals["diag"]["exact"] == "708"
        assert vals["full"]["exact"] == "854"
        assert p["shape_sums"][0]["matches"] is True
        assert p["shape_sums"][0]["difference"] == 0

    def test_cap_exit_2(self, capsys, profile_file):
        status, out, _ = run_cli(capsys, "oracle", "--profile", profile_file, "--p", "12", "--cap", "100")
        assert status == 2

    def test_walk_node_cap_exit_2(self, capsys):
        argv = ["oracle", "--family", "constant", "--d", "3", "--n", "3", "--p", "4", "--cap", "100"]
        status, out, err = run_cli(capsys, *argv)
        assert status == 2
        assert payload_of(out)["error"] == {
            "type": "ResourceLimitError", "message": "direct expansion visits more than 100 walk nodes",
        }
        assert "Traceback" not in err

    @pytest.mark.parametrize("cap, status", [(9479, 2), (9480, 0)])
    def test_cap_bounds_the_walk_with_diagonal_steps(self, capsys, cap, status):
        # on the constant 4x4 profile at p = 4 that walk takes 9,480 nodes, the one without 3,472
        argv = ["oracle", "--family", "constant", "--d", "4", "--n", "4", "--p", "4", "--cap", str(cap)]
        got, out, err = run_cli(capsys, *argv)
        assert got == status and "Traceback" not in err
        if status == 2:
            assert payload_of(out)["error"] == {
                "type": "ResourceLimitError", "message": "direct expansion visits more than 9479 walk nodes",
            }
        else:
            assert [m["kind"] for m in payload_of(out)["moments"]] == ["offdiag", "diag", "full"]

    def test_shape_sum_above_shape_cap_exit_2(self, capsys, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text("1\n")
        status, out, err = run_cli(capsys, "oracle", "--profile", str(path), "--p", "9", "--shape-sum")
        assert status == 2
        assert payload_of(out)["error"] == {"type": "ResourceLimitError", "message": "shape order 9 above cap 8"}
        assert "Traceback" not in err

    def test_values_beyond_float_range_print_inf(self, capsys, tmp_path):
        path = tmp_path / "huge.csv"
        path.write_text(f"{10**200}\n1\n")
        status, out, err = run_cli(capsys, "oracle", "--profile", str(path), "--p", "2", "--shape-sum")
        assert status == 0 and "Traceback" not in err
        p = payload_of(out)
        vals = {m["kind"]: m for m in p["moments"]}
        assert vals["offdiag"] == {"kind": "offdiag", "p": 2, "value": "inf", "exact": str(2 * 10**400)}
        assert vals["diag"]["exact"] == str(2 * 10**800 + 2) and vals["full"]["value"] == "inf"
        assert p["shape_sums"] == [{"p": 2, "value": "inf", "difference": 0.0, "matches": True,
                                    "exact": str(2 * 10**400)}]

    def test_float_shape_sum_is_the_rounded_oracle_moment(self, capsys, tmp_path):
        path = tmp_path / "float.csv"
        path.write_text("0.1,0.2\n0.3,0.7\n")
        status, out, _ = run_cli(capsys, "oracle", "--profile", str(path), "--p", "6", "--shape-sum")
        assert status == 0
        p = payload_of(out)
        assert p["shape_sums"] == [{"p": 6, "value": p["moments"][0]["value"], "difference": 0, "matches": True}]
        assert '"difference": 0,' in out

    def test_shape_sum_beyond_the_float_range_matches(self, capsys, tmp_path):
        # both sums round to inf; their exact difference is 0, not inf - inf
        path = tmp_path / "huge.csv"
        path.write_text("1e200,2e200\n3e200,1\n")
        status, out, _ = run_cli(capsys, "oracle", "--profile", str(path), "--p", "2", "--shape-sum")
        assert status == 0
        assert payload_of(out)["shape_sums"] == [{"p": 2, "value": "inf", "difference": 0, "matches": True}]

    def test_sub_ulp_shape_sum_mismatch_is_caught(self, capsys, tmp_path, monkeypatch):
        # the shape sum and the oracle moment are compared exactly, not as rounded floats
        true_sum = shapes.trace_moment_via_shapes
        monkeypatch.setattr(shapes, "trace_moment_via_shapes", lambda B, p: true_sum(B, p) + Fraction(1, 2**4000))
        path = tmp_path / "float.csv"
        path.write_text("0.1,0.2\n0.3,0.7\n")
        status, out, _ = run_cli(capsys, "oracle", "--profile", str(path), "--p", "2", "--shape-sum")
        assert status == 0
        p = payload_of(out)
        assert p["shape_sums"][0]["value"] == p["moments"][0]["value"]  # equal once rounded
        assert p["shape_sums"][0]["matches"] is False
        assert p["shape_sums"][0]["difference"] == 0  # below the float range
        assert Fraction(p["shape_sums"][0]["difference_exact"]) == Fraction(1, 2**4000)

    def test_exact_results_beyond_the_int_digit_limit(self, capsys, tmp_path):
        # the p = 4 diagonal moment of 1/10^600 has a 4,801-digit denominator
        path = tmp_path / "tiny.csv"
        path.write_text(f"1/{10**600}\n")
        status, out, err = run_cli(capsys, "oracle", "--profile", str(path), "--p", "4")
        assert status == 0 and "Traceback" not in err
        exact = {m["kind"]: m["exact"] for m in payload_of(out)["moments"]}
        num, den = (int(Decimal(t)) for t in exact["diag"].split("/"))
        assert Fraction(num, den) == diag_trace_moment(load_profile(path.read_bytes()), 4)
        path.write_text("1/1" + "0" * 5000 + "\n")  # a 5,001-digit input cell
        status, out, err = run_cli(capsys, "oracle", "--profile", str(path), "--p", "4")
        assert status == 2 and payload_of(out)["error"]["type"] == "ProfileFormatError"

    def test_recursion_depth_exit_2(self, capsys):
        status, out, err = run_cli(capsys, "oracle", "--family", "constant", "--d", "2", "--n", "2", "--p", "1200")
        assert status == 2
        assert payload_of(out)["error"]["type"] == "RecursionError"
        assert "Traceback" not in err

    def test_wide_row_exit_0(self, capsys):
        status, out, err = run_cli(capsys, "oracle", "--family", "constant", "--d", "1", "--n", "1500", "--p", "1")
        assert status == 0 and "Traceback" not in err
        assert [m["exact"] for m in payload_of(out)["moments"]] == ["0", "0", "0"]


class TestShapesCommand:
    def test_census_p2(self, capsys):
        status, out, _ = run_cli(capsys, "shapes", "--p", "2")
        assert status == 0
        p = payload_of(out)
        assert p["count"] == 1
        assert p["shapes"][0]["L"] == 1
        assert p["shapes"][0]["multiplicities"] == [2, 2]

    def test_census_with_profile(self, capsys, profile_file):
        _, out, _ = run_cli(capsys, "shapes", "--p", "2", "--profile", profile_file)
        assert payload_of(out)["shapes"][0]["W_exact"] == "146"

    def test_closed_stdout_exit_2_without_traceback(self):
        # the p = 7 census is far larger than a pipe's buffer, so the write meets the closed pipe
        with subprocess.Popen([sys.executable, "-m", "covdev.cli", "shapes", "--p", "7"],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=cli_process_env()) as proc:
            proc.stdout.close()
            err = proc.stderr.read().decode()
            assert proc.wait(timeout=120) == 2
        assert "Traceback" not in err and "Exception ignored" not in err
        assert err.startswith("covdev: ")

    def test_weight_beyond_float_range_prints_inf(self, capsys, tmp_path):
        path = tmp_path / "huge.csv"
        path.write_text(f"{10**200}\n1\n")
        status, out, err = run_cli(capsys, "shapes", "--p", "2", "--profile", str(path))
        assert status == 0 and "Traceback" not in err
        entry = payload_of(out)["shapes"][0]
        assert (entry["W"], entry["W_exact"]) == ("inf", str(2 * 10**400))

    def test_weight_beyond_the_int_digit_limit(self, capsys, tmp_path):
        path = tmp_path / "tiny.csv"
        path.write_text(f"1/{10**600},1/{10**600}\n1/{10**600},1/{10**600}\n")
        status, out, err = run_cli(capsys, "shapes", "--p", "4", "--profile", str(path))
        assert status == 0 and "Traceback" not in err
        B = load_profile(path.read_bytes())
        for entry, s in zip(payload_of(out)["shapes"], shapes.enumerate_shapes(4)):
            num, _, den = entry["W_exact"].partition("/")
            assert Fraction(int(Decimal(num)), int(Decimal(den or 1))) == shapes.W_value(s, B)


class TestExamplesCommand:
    def test_rank_one_leading_dominance(self, capsys):
        # ||b||_4^2 <= ||b||_2 ||b||_inf makes the main leading term the smallest
        status, out, _ = run_cli(
            capsys, "examples", "--family", "rank_one", "--grid", "50x50", "--seed", "1"
        )
        assert status == 0
        row = payload_of(out)["grid"][0]
        assert row["leading"]["main_upper_bound"] <= row["leading"]["chz_bound"] * (1 + 1e-12)

    def test_bounded_ratio_k1_selects_le_branch(self, capsys):
        _, out, _ = run_cli(capsys, "examples", "--family", "bounded_ratio", "--grid", "20x30")
        row = payload_of(out)["grid"][0]
        assert row["beta_inf"] <= 1 + 1e-9
        assert row["case"] == "beta_le_1"

    def test_iid_columns_leading_agreement(self, capsys):
        _, out, _ = run_cli(capsys, "examples", "--family", "iid_columns", "--grid", "30x40")
        row = payload_of(out)["grid"][0]
        ratio = row["ratios"]["main_over_chz"]
        assert 0.2 <= ratio <= 1.0 + 1e-12

    def test_unknown_family(self, capsys):
        status, out, _ = run_cli(capsys, "examples", "--family", "mystery")
        assert status == 2


    @pytest.mark.parametrize("family", ["constant", "iid_columns", "iid_rows", "rank_one", "bounded_ratio"])
    @pytest.mark.parametrize("grid", ["-1x5", "0x5", "5x0", "3x3,2x-4"])
    def test_nonpositive_size_exit_2(self, capsys, family, grid):
        status, out, err = run_cli(capsys, "examples", "--family", family, f"--grid={grid}")
        assert status == 2 and "Traceback" not in err
        assert payload_of(out)["error"] == {"type": "ProfileDomainError", "message": "d and n must be positive"}


class TestVerifyCommand:
    def test_all_pass_exit_0(self, capsys):
        status, out, _ = run_cli(
            capsys, "verify", "--d", "3", "--n", "3", "--pmax", "3", "--profiles", "5"
        )
        assert status == 0
        p = payload_of(out)
        assert p["all_pass"] is True
        names = {c["name"] for c in p["checks"]}
        assert names == {
            "joint_moment_table", "shape_sum_vs_oracle", "opnorm_shape_ceiling",
            "schatten_shape_ceiling", "diag_ratio_window",
        }

    def test_corrupted_l_fails_exit_1(self, capsys, monkeypatch):
        true_l = shapes.L_value
        monkeypatch.setattr(shapes, "L_value", lambda s: 2 * true_l(s))
        status, out, err = run_cli(
            capsys, "verify", "--d", "2", "--n", "2", "--pmax", "2", "--profiles", "3"
        )
        assert status == 1
        checks = {c["name"]: c for c in payload_of(out)["checks"]}
        assert checks["shape_sum_vs_oracle"]["pass"] is False
        assert checks["shape_sum_vs_oracle"]["mismatches"] > 0
        assert "Traceback" not in err

    @pytest.mark.parametrize("option", [("--profiles", "-1"), ("--profiles", "0"), ("--pmax", "0"),
                                        ("--d", "0"), ("--d", "-1"), ("--n", "0")])
    def test_nothing_to_check_exit_2(self, capsys, monkeypatch, option):
        monkeypatch.setattr(cli, "_random_rational_profile", lambda *a: pytest.fail("verify drew a profile"))
        monkeypatch.setattr(oracle, "joint_moment_table", lambda *a: pytest.fail("verify started its checks"))
        status, out, err = run_cli(capsys, "verify", "--d", "2", "--n", "2", *option)
        assert status == 2
        if option[0] in ("--d", "--n"):
            kind, message = "ProfileDomainError", "d and n must be positive"
        else:
            kind, message = "ValueError", "verify needs --profiles >= 1 and --pmax >= 1"
        assert payload_of(out)["error"] == {"type": kind, "message": message}
        assert err == f"covdev: {message}\n"

    @pytest.mark.parametrize("module, name, check, per_profile", [
        (shapes, "W_value", "opnorm_shape_ceiling", lambda: sum(len(shapes.enumerate_shapes(p)) for p in (2, 3, 4))),
        (shapes, "W_value", "schatten_shape_ceiling", lambda: sum(len(shapes.enumerate_shapes(p)) for p in (2, 4))),
        (oracle, "diag_trace_moment", "diag_ratio_window", lambda: 4),
    ], ids=["opnorm_ceiling", "schatten_ceiling", "diag_window"])
    def test_inflated_engine_fails_its_check_exit_1(self, capsys, monkeypatch, module, name, check, per_profile):
        # inflated far past every ceiling and window, so each check fails once per nonzero profile and
        # shape (every one at p = 2..4, the even orders for Schatten) or diagonal order (2, 4, 6, 8)
        true_fn = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, **k: 10**40 * (true_fn(*a, **k) + 1))
        status, out, err = run_cli(capsys, "verify", "--d", "2", "--n", "2", "--pmax", "4", "--profiles", "3")
        assert status == 1 and "Traceback" not in err
        p = payload_of(out)
        checks = {c["name"]: c for c in p["checks"]}
        assert p["all_pass"] is False
        rng = np.random.default_rng(0)  # verify's default seed draws these profiles
        nonzero = sum(not cli._random_rational_profile(rng, 2, 2).is_zero for _ in range(3))
        assert nonzero > 0
        assert checks[check]["pass"] is False and checks[check]["violations"] == nonzero * per_profile()

    def test_p1_vacuous(self, capsys):
        status, out, _ = run_cli(capsys, "verify", "--pmax", "1", "--profiles", "2")
        assert status == 0

    def test_thin_profiles_pass(self, capsys):
        # one column: the shape engine's contractions once wrapped mod 2^64 here
        status, out, _ = run_cli(
            capsys, "verify", "--d", "3", "--n", "1", "--pmax", "6", "--profiles", "40", "--seed", "3"
        )
        assert status == 0, payload_of(out)["checks"]


class TestCompareCommand:
    def test_structure(self, capsys, profile_file):
        status, out, _ = run_cli(
            capsys, "compare", "--profile", profile_file, "--seed", "1", "--samples", "10"
        )
        assert status == 0
        p = payload_of(out)
        assert {"estimate", "bounds", "ratios"} <= set(p)
        assert p["ratios"]["empirical_over_lower"] > 0


    def test_main_upper_bound_as_bounds_prints_it(self, capsys, profile_file):
        options = ("--profile", profile_file, "--const", "2.5", "--epsilon", "0.3")
        _, out, _ = run_cli(capsys, "bounds", *options)
        main_report = next(r for r in payload_of(out)["reports"] if r["bound_name"] == "main_upper_bound")
        assert set(main_report["branch_totals"]) == {"beta_le_1", "beta_gt_1"}
        _, out, _ = run_cli(capsys, "compare", *options, "--samples", "10")
        assert payload_of(out)["bounds"]["main_upper_bound"] == main_report


class TestEmptyOrderList:
    @pytest.mark.parametrize("argv, key", [
        (["params", "--family", "constant", "--d", "2", "--n", "2", "--p", ","], "schatten"),
        (["examples", "--family", "constant", "--grid", ","], "grid"),
        (["oracle", "--family", "constant", "--d", "2", "--n", "2", "--p", ","], "moments"),
        (["oracle", "--family", "constant", "--d", "2", "--n", "2", "--p", ",", "--shape-sum"], "shape_sums"),
        (["shapes", "--p", ","], "shapes"),
    ], ids=["params", "examples", "oracle", "oracle_shape_sum", "shapes"])
    def test_explicit_empty_list_computes_nothing(self, capsys, argv, key):
        status, out, _ = run_cli(capsys, *argv)
        assert status == 0
        assert payload_of(out)[key] == []


class TestCapBelowOne:
    @pytest.mark.parametrize("cap", ["0", "-1"])
    @pytest.mark.parametrize("argv", [
        ["oracle", "--family", "constant", "--d", "2", "--n", "2", "--p", "2"],
        ["shapes", "--p", "2"],
    ], ids=["oracle", "shapes"])
    def test_bad_input_exit_2(self, capsys, argv, cap):
        # a cap below 1 is an invalid option, not a resource running out
        status, out, err = run_cli(capsys, *argv, "--cap", cap)
        assert status == 2 and "Traceback" not in err
        assert payload_of(out)["error"] == {"type": "ValueError", "message": f"cap must be >= 1, got {cap}"}


class TestOrderBelowOne:
    @pytest.mark.parametrize("argv", [
        ["oracle", "--family", "constant", "--d", "2", "--n", "2", "--p", "0"],
        ["shapes", "--p", "0"],
    ], ids=["oracle", "shapes"])
    def test_bad_input_exit_2(self, capsys, argv):
        # every engine that refuses an order names it
        status, out, err = run_cli(capsys, *argv)
        assert status == 2 and "Traceback" not in err
        env = json.loads(out)
        assert (env["command"], env["profile_digest"]) == (argv[0], None)
        assert env["payload"] == {"error": {"type": "ValueError", "message": "p must be >= 1, got 0"}}


class TestDeterminism:
    def test_bounds_byte_identical(self, capsys, profile_file):
        _, out1, _ = run_cli(capsys, "bounds", "--profile", profile_file, "--p", "2,4")
        _, out2, _ = run_cli(capsys, "bounds", "--profile", profile_file, "--p", "2,4")
        assert strip_timestamp(out1) == strip_timestamp(out2)

    def test_stdout_is_json(self, capsys, profile_file):
        for argv in (["params", "--profile", profile_file], ["shapes", "--p", "3"]):
            _, out, _ = run_cli(capsys, *argv)
            json.loads(out)
