import json
import os
import pathlib
import resource
import subprocess
import sys

import pytest

from mixbound.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"
SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
# eight hull faces that share four coordinate changes
OCTAGON = "u1+u1^2+u1^3u2+u1^3u2^2+u1^2u2^3+u1u2^3+u2^2+u2"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestAnalyze:
    def test_triangle_bounds(self, capsys):
        code, out, _ = run(
            capsys, "analyze", "--prime", "2", "--poly", "u2+u1+u1^3u2"
        )
        assert code == 0
        data = json.loads(out)
        assert data["bounds"] == {
            "lower": 2, "upper": 2, "exact": 2, "conditional": False,
        }

    def test_largest_prime_gets_eisenstein(self, capsys):
        code, out, _ = run(capsys, "analyze", "--prime", "65521", "--poly", "1+u1+u2")
        assert code == 0
        cert = json.loads(out)["irreducibility"]
        assert cert["method"] == "eisenstein" and cert["g"] == "1+u2"

    def test_quartic_note(self, capsys):
        code, out, _ = run(capsys, "analyze", "--prime", "2", "--poly", "1+u1+u2+u2^2")
        data = json.loads(out)
        assert code == 0
        assert data["bounds"]["lower"] == 2 and data["bounds"]["upper"] == 3
        assert any("exactly 3" in note for note in data["notes"])

    def test_swapped_form_gets_note(self, capsys):
        code, out, _ = run(capsys, "analyze", "--prime", "2", "--poly", "1+u1+u1^2+u2")
        data = json.loads(out)
        assert any("exactly 3" in note for note in data["notes"])
        assert any("exchange" in note for note in data["notes"])

    def test_pentagon_discrepancy_note(self, capsys):
        code, out, _ = run(
            capsys, "analyze", "--prime", "2", "--poly", "u1^6+u1^5u2+u1^3u2^2+u2+u2^3"
        )
        data = json.loads(out)
        assert data["bounds"]["exact"] == 4
        assert any("quoted as 5" in note for note in data["notes"])

    def test_monomial_exit_3(self, capsys):
        code, _, err = run(capsys, "analyze", "--prime", "2", "--poly", "u1")
        assert code == 3
        assert "degenerate" in err

    def test_segment_exit_3_with_report(self, capsys):
        code, out, _ = run(capsys, "analyze", "--prime", "2", "--poly", "1+u1")
        assert code == 3
        assert json.loads(out)["verdict"] == "not mixing"

    def test_parse_error_exit_2(self, capsys):
        code, _, err = run(capsys, "analyze", "--prime", "2", "--poly", "1+")
        assert code == 2
        assert "parse error" in err

    def test_non_decimal_digit_is_a_parse_error(self, capsys):
        # '²' is a digit to str.isdigit() but not one int() reads
        code, out, err = run(capsys, "analyze", "--prime", "2", "--poly", "u1²+1")
        assert code == 2 and out == ""
        assert err == "parse error: unexpected character '²' (line 1, column 3)\n"

    def test_oversized_exponent_is_a_parse_error(self, capsys):
        # more digits than int() converts by default
        poly = "1+u1^" + "9" * 5000
        code, out, err = run(capsys, "analyze", "--prime", "2", "--poly", poly)
        assert code == 2 and out == ""
        assert err == "parse error: integer too long (5000 digits) (line 1, column 6)\n"

    def test_non_prime_rejected(self, capsys):
        code, _, err = run(capsys, "analyze", "--prime", "4", "--poly", "1+u1")
        assert code == 2

    def test_json_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--prime", "2", "--poly", "1+u1+u2", "--json"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --json" in capsys.readouterr().err

    def test_zero_poly_exit_3(self, capsys):
        code, _, err = run(capsys, "analyze", "--prime", "2", "--poly", "u1+u1")
        assert code == 3

    def test_octagon_stdout_bytes(self, capsys):
        code, out, err = run(capsys, "analyze", "--prime", "3", "--poly", OCTAGON)
        assert (code, err) == (0, "")
        assert out == (GOLDEN / "octagon_analyze.json").read_text()

    def test_pretty_output(self, capsys):
        code, out, _ = run(
            capsys, "analyze", "--prime", "2", "--poly", "u2+u1+u1^3u2", "--pretty"
        )
        assert code == 0
        assert "bounds" in out and "F1" in out

    def test_figure_files(self, capsys, tmp_path):
        svg = tmp_path / "fig.svg"
        tikz = tmp_path / "fig.tex"
        code, _, _ = run(
            capsys, "analyze", "--prime", "2", "--poly", "u2+u1+u1^3u2",
            "--svg", str(svg), "--tikz", str(tikz),
        )
        assert code == 0
        assert svg.read_text() == (GOLDEN / "figure1.svg").read_text()
        assert tikz.read_text().startswith("\\begin{tikzpicture}")


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze"],
        ["shape-test", "--shape", "(0,0);(1,0);(0,1)"],
        ["seq-diagnose", "--tuple", "(0,0);(1,0)"],
        ["render"],
    ],
    ids=lambda argv: argv[0],
)
@pytest.mark.parametrize(
    "prime, message",
    [
        ("4", "4 is not prime"),
        ("9", "9 is not prime"),
        ("1", "prime modulus must lie in [2, 2^16), got 1"),
    ],
    ids=["4", "9", "1"],
)
def test_bad_prime_exit_2(capsys, argv, prime, message):
    code, out, err = run(capsys, *argv, "--prime", prime, "--poly", "1+u1+u2")
    assert (code, out, err) == (2, "", f"invalid input: {message}\n")


class TestShapeTest:
    def test_certified(self, capsys):
        code, out, _ = run(
            capsys, "shape-test", "--prime", "2", "--poly", "1+u1+u2",
            "--shape", "(0,0);(1,0);(0,1)",
        )
        assert code == 0
        data = json.loads(out)
        assert data["kind"] == "certified_non_mixing"
        assert data["witness"]["k"] == 1
        assert data["witness"]["coefficients"] == ["1", "1", "1"]

    def test_certified_at_the_largest_prime(self, capsys):
        code, out, _ = run(
            capsys, "shape-test", "--prime", "65521", "--poly", "1+u1+u2",
            "--shape", "(0,0);(1,0);(0,1)",
        )
        assert code == 0
        data = json.loads(out)
        assert data["kind"] == "certified_non_mixing"
        assert data["witness"]["k"] == 1
        assert data["witness"]["coefficients"] == ["1", "1", "1"]
        assert data["witness"]["quotient"] == "1"

    def test_geometrically_mixing(self, capsys):
        code, out, _ = run(
            capsys, "shape-test", "--prime", "2", "--poly", "1+u1+u2+u2^2",
            "--shape", "(0,0);(1,0);(0,1)",
        )
        data = json.loads(out)
        assert data["kind"] == "geometrically_mixing"

    def test_relation_found(self, capsys):
        code, out, _ = run(
            capsys, "shape-test", "--prime", "2", "--poly", "1+u1+u2+u2^2",
            "--shape", "(0,0);(1,0);(0,2)",
        )
        data = json.loads(out)
        assert data["kind"] == "relation_found"
        assert data["witness"]["coefficients"] == ["1", "1", "u2^-1+1"]
        assert data["witness"]["constant"] is False
        assert data["budget"] == {"kmax": 16, "windows": [0, 1, 2]}

    def test_two_point_shape_uses_search(self, capsys):
        code, out, _ = run(
            capsys, "shape-test", "--prime", "2", "--poly", "1+u1+u2",
            "--shape", "(0,0);(1,1)", "--kmax", "2", "--windows", "0",
        )
        assert code == 0
        assert json.loads(out)["kind"] in ("geometrically_mixing", "unresolved")

    def test_kmax_above_limit_is_invalid_input(self, capsys):
        code, out, err = run(
            capsys, "shape-test", "--prime", "2", "--poly", "1+u1+u2",
            "--shape", "(0,0);(1,0);(0,1)", "--kmax", "100000000",
        )
        assert (code, out) == (2, "")
        assert err == "invalid input: kmax must be at most 512\n"

    def test_malformed_shape_exit_2(self, capsys):
        code, _, err = run(
            capsys, "shape-test", "--prime", "2", "--poly", "1+u1+u2",
            "--shape", "(0,0);(oops)",
        )
        assert code == 2

    def test_shape_error_points_at_its_chunk(self, capsys):
        code, out, err = run(
            capsys, "shape-test", "--prime", "2", "--poly", "1+u1+u2",
            "--shape", "(0,0);(1,0);(a,1)",
        )
        assert (code, out) == (2, "")
        assert err == "parse error: non-integer coordinate in '(a,1)' (line 1, column 14)\n"

    def test_bad_windows_exit_2(self, capsys):
        code, _, _ = run(
            capsys, "shape-test", "--prime", "2", "--poly", "1+u1+u2",
            "--shape", "(0,0);(1,0)", "--windows", "x",
        )
        assert code == 2

    @pytest.mark.parametrize(
        "windows, column",
        [("0,1,x", 5), ("0,-1", 3), ("1, 2,  y", 8), ("0,,1.5", 5), (",", 1), ("", 1)],
    )
    def test_bad_window_points_at_its_entry(self, capsys, windows, column):
        code, out, err = run(
            capsys, "shape-test", "--prime", "2", "--poly", "1+u1+u2",
            "--shape", "(0,0);(1,0)", "--windows", windows,
        )
        assert (code, out) == (2, "")
        assert err == f"parse error: bad window list {windows!r} (line 1, column {column})\n"

    def test_window_list_keeps_its_syntax(self, capsys):
        # empty entries are skipped and int() reads each entry, spaces and
        # a sign included
        code, out, _ = run(
            capsys, "shape-test", "--prime", "2", "--poly", "1+u1+u2",
            "--shape", "(0,0);(1,1)", "--kmax", "2", "--windows", " +1,, 0 ,",
        )
        assert code == 0
        assert json.loads(out)["budget"]["windows"] == [1, 0]


def run_child(*argv, preexec_fn=None):
    """(exit code, stdout, stderr) of `mixbound` run in a child process."""
    done = subprocess.run(
        [sys.executable, "-m", "mixbound.cli", *argv],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, timeout=300, preexec_fn=preexec_fn,
    )
    return done.returncode, done.stdout, done.stderr


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (256 << 20, 256 << 20))


class TestSeqDiagnoseChild:
    def test_wide_exponents_fit_in_256_mb(self):
        # the face norms come from the hull alone, so exponents of 2^20
        # cost no dense Newton polygon
        code, out, err = run_child(
            "seq-diagnose", "--prime", "65521",
            "--poly", "1+u1^1048576+u2^1048576+u1*u2", "--tuple", "(0,0);(1,0);(0,1)",
            preexec_fn=_limit_address_space,
        )
        assert (code, err) == (0, "")
        assert len(json.loads(out)[0]["alignments"]) == 3


class TestShapeTestChild:
    # f = (1+u1+u2)(1+u1+u1 u2^2) over F_2, certified reducible by analyze
    REDUCIBLE = "1+u2+u1*u2+u1*u2^2+u1*u2^3+u1^2+u1^2*u2^2"

    def test_reducible_f_is_not_geometrically_mixing(self):
        # R-1 = 4 >= 3 once printed geometrically_mixing here; the search
        # finds a relation with polynomial coefficients instead
        code, out, _ = run_child(
            "shape-test", "--prime", "2", "--poly", self.REDUCIBLE,
            "--shape", "(0,0);(1,0);(0,1)",
        )
        out = json.loads(out)
        assert code == 0
        assert out["kind"] == "relation_found" and "conditional" not in out
        assert out["witness"]["coefficients"] == [
            "1+u2+u1*u2+u1*u2^2", "u1+u1*u2^2", "u1*u2^2",
        ]

    def test_reducible_f_unresolved_names_the_factor(self):
        code, out, _ = run_child(
            "shape-test", "--prime", "2", "--poly", self.REDUCIBLE,
            "--shape", "(0,0);(1,0);(0,1)", "--kmax", "1", "--windows", "0",
        )
        out = json.loads(out)
        assert code == 0 and out["kind"] == "unresolved"
        assert out["reason"] == (
            "no relation found within the search budget; f is reducible, with "
            "factor 1+u2+u1, so the geometric test does not apply"
        )

    @pytest.mark.parametrize("shape", ["(0,0);(-1,0);(0,-1)", "(0,0);(1,0);(2,0)"])
    def test_shapes_that_peel_to_nothing(self, shape):
        # the point-reflected and the collinear shape used to end unresolved
        code, out, _ = run_child(
            "shape-test", "--prime", "2", "--poly", "1+u1+u2", "--shape", shape,
        )
        out = json.loads(out)
        assert code == 0
        assert out["kind"] == "geometrically_mixing" and "conditional" not in out
        assert out["reason"] == (
            "shape differences are not positively proportional to the hull triangle's"
        )

    def test_unverified_f_is_marked_conditional(self):
        code, out, _ = run_child(
            "shape-test", "--prime", "5", "--poly", "1+u1^2+u2^2+u1*u2^3",
            "--shape", "(0,0);(1,0);(2,0);(0,1)",
        )
        out = json.loads(out)
        assert code == 0
        assert out["kind"] == "geometrically_mixing" and out["conditional"] is True

    def test_degenerate_input_keeps_exit_3(self):
        code, out, err = run_child(
            "shape-test", "--prime", "2", "--poly", "1+u1", "--shape", "(0,0);(1,1)",
        )
        assert (code, out) == (3, "")
        assert err == "degenerate input: prefilter needs a non-degenerate hull\n"


class TestSeqDiagnose:
    def test_tuple_flags(self, capsys):
        code, out, _ = run(
            capsys, "seq-diagnose", "--prime", "2", "--poly", "1+u1+u2",
            "--tuple", "(0,0);(1,0);(0,1)", "--tuple", "(0,0);(2,0);(0,2)",
        )
        assert code == 0
        data = json.loads(out)
        assert [d["label"] for d in data] == [1, 2]
        assert all(a["offset"] == 0 for d in data for a in d["alignments"])

    def test_family_file(self, capsys, tmp_path):
        fam = tmp_path / "family.txt"
        fam.write_text("1: (0,0);(1,0);(0,1)\n4: (0,0);(4,0);(0,4)\n")
        code, out, _ = run(
            capsys, "seq-diagnose", "--prime", "2", "--poly", "1+u1+u2",
            "--file", str(fam),
        )
        assert code == 0
        assert [d["label"] for d in json.loads(out)] == [1, 4]

    def test_family_file_error_names_its_line(self, capsys, tmp_path):
        fam = tmp_path / "family.txt"
        fam.write_text("1: (0,0);(1,0);(0,1)\n\n  3: (0,0); (b,1)\n")
        code, out, err = run(
            capsys, "seq-diagnose", "--prime", "2", "--poly", "1+u1+u2",
            "--file", str(fam),
        )
        assert (code, out) == (2, "")
        assert err == "parse error: non-integer coordinate in '(b,1)' (line 3, column 14)\n"

    def test_octagon_stdout_bytes(self, capsys):
        code, out, err = run(
            capsys, "seq-diagnose", "--prime", "3", "--poly", OCTAGON,
            "--tuple", "(0,0);(3,1);(1,3)", "--tuple", "(0,0);(5,0);(0,5);(2,2)",
        )
        assert (code, err) == (0, "")
        assert out == (GOLDEN / "octagon_seq_diagnose.json").read_text()

    def test_no_tuples_exit_2(self, capsys):
        code, _, _ = run(capsys, "seq-diagnose", "--prime", "2", "--poly", "1+u1+u2")
        assert code == 2

    def test_missing_file_exit_2(self, capsys):
        code, _, err = run(
            capsys, "seq-diagnose", "--prime", "2", "--poly", "1+u1+u2",
            "--file", "/nonexistent/family.txt",
        )
        assert code == 2
        assert "file error" in err


class TestVolochScan:
    def test_scan_json(self, capsys):
        code, out, _ = run(capsys, "voloch-scan", "--mmax", "128")
        assert code == 0
        data = json.loads(out)
        assert data["solutions"] == []
        assert data["frobenius_checked"] == list(range(8))
        assert data["frobenius_failures"] == []

    def test_mmax_above_limit_is_invalid_input(self, capsys):
        code, out, err = run(capsys, "voloch-scan", "--mmax", "100000000")
        assert code == 2
        assert out == ""
        assert err == "invalid input: mmax must be at most 65536\n"


class TestVerifyPaper:
    def test_exit_0_and_all_pass(self, capsys):
        code, out, _ = run(capsys, "verify-paper")
        assert code == 0
        data = json.loads(out)
        assert data["passed"] == data["total"] >= 24
        assert all(c["pass"] for c in data["checks"])


class TestRenderCommand:
    def test_golden_figure(self, capsys, tmp_path):
        out_path = tmp_path / "f1.svg"
        code, _, _ = run(
            capsys, "render", "--prime", "2", "--poly", "u2+u1+u1^3u2",
            "--out", str(out_path),
        )
        assert code == 0
        assert out_path.read_text() == (GOLDEN / "figure1.svg").read_text()

    def test_stdout_and_newton(self, capsys):
        code, out, _ = run(
            capsys, "render", "--prime", "2", "--poly", "u2+u1+u1^3u2",
            "--newton", "ord",
        )
        assert code == 0
        assert out.count("<circle") == 3

    def test_degenerate_exit_3(self, capsys):
        code, _, _ = run(capsys, "render", "--prime", "2", "--poly", "1+u1")
        assert code == 3
