import json
import pathlib

from mixbound.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"
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

    def test_non_prime_rejected(self, capsys):
        code, _, err = run(capsys, "analyze", "--prime", "4", "--poly", "1+u1")
        assert code == 2

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

    def test_malformed_shape_exit_2(self, capsys):
        code, _, err = run(
            capsys, "shape-test", "--prime", "2", "--poly", "1+u1+u2",
            "--shape", "(0,0);(oops)",
        )
        assert code == 2

    def test_bad_windows_exit_2(self, capsys):
        code, _, _ = run(
            capsys, "shape-test", "--prime", "2", "--poly", "1+u1+u2",
            "--shape", "(0,0);(1,0)", "--windows", "x",
        )
        assert code == 2


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
