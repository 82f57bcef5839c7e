"""The external witness re-checker, `tests/recheck.py`, on printed reports.

Every `shape-test` op pinned in `perfbench/expected.json`, and a seeded
run of certified searches over small random polygons, print reports whose
witness the re-checker accepts; altered reports fail it.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import recheck
from conftest import load_perfbench, random_nonmonomial
from mixbound import geometry
from mixbound.cli import main

workloads = load_perfbench("workloads")
SHAPE_OPS = [
    op for ops in workloads.CLI_WORKLOADS.values() for op in ops if op.argv[0] == "shape-test"
]


def shape_test(capsys, *argv):
    """(stdout, --poly, --prime) of one in-process shape-test run."""
    assert main(["shape-test", *argv]) == 0
    flags = dict(zip(argv[::2], argv[1::2]))
    return capsys.readouterr().out, flags["--poly"], int(flags["--prime"])


@pytest.mark.parametrize("op", SHAPE_OPS, ids=lambda op: op.id)
def test_pinned_shape_reports_recheck(op, capsys):
    out, poly, p = shape_test(capsys, *op.argv[1:])
    expected = workloads.load_expected()[op.id]
    assert hashlib.sha256(out.encode()).hexdigest() == expected["stdout_sha256"]
    assert recheck.witness_problems(json.loads(out), poly, p) == []


def test_random_certified_witnesses_recheck(rng, capsys):
    # the support of f, or the support dilated by p: there the relation
    # is f^p = f^(p-1) f, and its quotient has many terms.  The test
    # spells f itself, so the command's input does not go through
    # mixbound's printer
    done, long_quotients = 0, 0
    while done < 60:
        p = rng.choice([2, 3, 5, 7, 11, 13])
        f = random_nonmonomial(rng, p, max_terms=4, span=2)
        if geometry.convex_hull(f.support()).degeneracy != geometry.POLYGON:
            continue
        d = rng.choice([1, p])
        poly = "+".join(f"{c}*u1^{a}*u2^{b}" for (a, b), c in f.terms())
        shape = ";".join(f"({d * a},{d * b})" for a, b in sorted(f.support()))
        out, _, _ = shape_test(capsys, "--prime", str(p), "--poly", poly,
                               "--shape", shape, "--kmax", "1", "--windows", "0")
        report = json.loads(out)
        assert recheck.witness_problems(report, poly, p) == [], out
        assert report["kind"] == "certified_non_mixing", out
        done += 1
        long_quotients += "+" in report["witness"]["quotient"]
    assert long_quotients >= 20


def _tampered(report, **witness):
    return {**report, "witness": {**report["witness"], **witness}}


def test_tampered_report_fails(capsys):
    out, poly, p = shape_test(capsys, "--prime", "2", "--poly", "1+u1+u2",
                              "--shape", "(0,0);(1,0);(0,1)", "--kmax", "1", "--windows", "0")
    report = json.loads(out)
    assert report["kind"] == "certified_non_mixing"
    assert recheck.witness_problems(report, poly, p) == []
    for change in (
        {"quotient": "u1"},
        {"quotient": None},
        {"coefficients": ["1", "1", "u2"]},
        {"coefficients": ["1", "0", "1"]},
        {"coefficients": ["0", "0", "0"], "quotient": "0"},
        # at k = 2 the relation is (1+u1+u2)^2, whose quotient is not 1
        {"k": 2},
        {"k": 0},
    ):
        assert recheck.witness_problems(_tampered(report, **change), poly, p), change
    # a relation with a polynomial coefficient does not certify
    out, poly, p = shape_test(capsys, "--prime", "2", "--poly", "1+u1+u2+u2^2",
                              "--shape", "(0,0);(1,0);(0,2)")
    report = json.loads(out)
    assert report["kind"] == "relation_found"
    assert recheck.witness_problems(report, poly, p) == []
    assert recheck.witness_problems({**report, "kind": "certified_non_mixing"}, poly, p)
    assert recheck.witness_problems(_tampered(report, constant=True), poly, p)


@pytest.mark.parametrize(
    "text, terms",
    [
        ("0", {}),
        ("u2^-1+1", {(0, -1): 1, (0, 0): 1}),
        ("2*u1^-1*u2^2", {(-1, 2): 2}),
        ("-u1 + 3 u2^ -2 + u1", {(0, -2): 3}),
        ("u1^3u2+t+4", {(3, 1): 1, (1, 0): 1, (0, 0): 4}),
    ],
)
def test_reader(text, terms):
    assert recheck.read_poly(text, 5) == terms


@pytest.mark.parametrize("text", ["", "1++u1", "+u1", "u1+", "u1^", "1+*u1", "--u1", "x"])
def test_reader_rejects(text):
    with pytest.raises(ValueError):
        recheck.read_poly(text, 5)


def test_script_exit_codes(capsys):
    out, poly, p = shape_test(capsys, "--prime", "2", "--poly", "1+u1+u2",
                              "--shape", "(0,0);(1,0);(0,1)")
    bad = json.dumps(_tampered(json.loads(out), quotient="u1"))
    script = Path(recheck.__file__)
    codes = [
        subprocess.run([sys.executable, str(script), "--prime", str(p), "--poly", poly],
                       input=text, capture_output=True, text=True,
                       env={**os.environ, "PYTHONPATH": ""}).returncode
        for text in (out, bad)
    ]
    assert codes == [0, 1]
