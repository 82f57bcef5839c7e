"""The external re-checker, `tests/recheck.py`, on printed reports.

Every `shape-test` op pinned in `perfbench/expected.json`, and a seeded
run of certified searches over small random polygons, print reports whose
witness the re-checker accepts; altered reports fail it.  Every
`eisenstein` certificate of the `corpus` inputs, of the paper's examples
and of seeded random inputs passes its Eisenstein re-check, which agrees
with `mixing.verify_eisenstein` on altered certificates.  The `reducible`
certificate of the corpus and those of seeded random products pass their
re-check by division, which agrees with `mixing.verify_reducible` on
altered certificates and names every wrong one a fault lets through.
"""

import functools
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import recheck
from conftest import load_perfbench, random_nonmonomial
from mixbound import geometry, mixing
from mixbound.cli import main
from mixbound.fieldpoly import FpPoly
from mixbound.laurent import LaurentPoly
from mixbound.parse import parse_poly
from mixbound.report import build_report

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


def analyze_report(f):
    """The `analyze` report of f, as printed and read back."""
    return json.loads(json.dumps(build_report(mixing.order_bounds(f))))


@functools.lru_cache(maxsize=None)
def corpus_reports():
    """(text, analyze report) for the `corpus` inputs at seeds 1-3."""
    return [(text, analyze_report(parse_poly(text, p)))
            for seed in (1, 2, 3) for p, text in workloads.corpus_inputs(seed)]


def test_corpus_eisenstein_reports_recheck():
    methods = Counter()
    for text, report in corpus_reports():
        cert = report["irreducibility"]
        if cert["method"] == "eisenstein":
            methods["inverted" if cert["inverted"] else "plain"] += 1
        assert recheck.eisenstein_problems(report) == [], text
    assert methods == {"plain": 162, "inverted": 81}


def test_corpus_and_octagon_norms_recheck():
    octagon = json.loads((Path(__file__).parent / "golden" / "octagon_analyze.json").read_text())
    reports = [("octagon", octagon), *corpus_reports()]
    for text, report in reports:
        assert recheck.norm_problems(report) == [], text
    axes = Counter(r["valuation"]["coeff_axis"] for _, rep in reports for r in rep["newton"])
    assert axes[1] > 0 and axes[2] > 0


def test_altered_norms_are_flagged():
    # one entry of one face's extended_norm negated, doubled, or swapped
    # with the same entry of another face; alterations that leave the
    # entry as it was are not counted
    rng = random.Random(39)
    altered = Counter()
    for _, report in corpus_reports():
        for kind in ("negated", "doubled", "swapped"):
            records = [dict(r, extended_norm=dict(r["extended_norm"])) for r in report["newton"]]
            i, j = rng.sample(range(len(records)), 2)
            key = rng.choice(("log_u1", "log_u2"))
            norm, other = records[i]["extended_norm"], records[j]["extended_norm"]
            old = norm[key]
            if kind == "swapped":
                norm[key], other[key] = other[key], old
            else:
                scale = -1 if kind == "negated" else 2
                norm[key] = {"num": scale * old["num"], "den": old["den"]}
            if norm[key] == old:
                continue
            altered[kind] += 1
            assert recheck.norm_problems({**report, "newton": records}), (kind, report["poly"])
    assert altered == {"negated": 775, "doubled": 758, "swapped": 753}


def test_script_checks_face_norms(monkeypatch, capsys):
    assert main(["analyze", "--prime", "2", "--poly", "1+u1+u2"]) == 0
    report = json.loads(capsys.readouterr().out)
    record = report["newton"][0]
    bad = {**report, "newton": [{**record, "extended_norm": {
        "log_u1": record["extended_norm"]["log_u2"], "log_u2": record["extended_norm"]["log_u1"]}},
        *report["newton"][1:]]}
    codes = []
    for text in (json.dumps(report), json.dumps(bad)):
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        codes.append(recheck.main([]))
    assert codes == [0, 1]
    assert capsys.readouterr().out.startswith("face 0: extended_norm is not the scaled normal")


@pytest.mark.parametrize("poly", ["u1^2+u1u2^2+u2^3+u2", "u1^6+u1^5u2+u1^3u2^2+u2+u2^3"],
                         ids=["quadrilateral", "pentagon"])
def test_paper_examples_recheck(poly, capsys):
    assert main(["analyze", "--prime", "2", "--poly", poly]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["irreducibility"]["method"] == "eisenstein"
    assert recheck.eisenstein_problems(report) == []


@functools.lru_cache(maxsize=None)
def random_eisenstein_inputs():
    """Seeded random Laurent polynomials with an Eisenstein certificate:
    at least 500, of which at least 100 inverted."""
    rng = random.Random(36)
    found, inverted = [], 0
    while len(found) < 500 or inverted < 100:
        p = rng.choice((2, 3, 5, 7, 11, 13, 101))
        terms = {(rng.randint(-2, 8), rng.randint(-2, 8)): rng.randint(1, p - 1)
                 for _ in range(rng.randint(2, 8))}
        if len(terms) < 2:
            continue
        f = LaurentPoly(terms, p)
        cert = mixing.eisenstein_certify(f)
        if cert is not None:
            found.append((f, cert))
            inverted += cert.inverted
    return found


def test_random_eisenstein_certificates_recheck():
    for f, cert in random_eisenstein_inputs():
        report = analyze_report(f)
        assert report["irreducibility"] == {"method": "eisenstein", **mixing.METHODS[
            "eisenstein"].fields(cert)}
        assert recheck.eisenstein_problems(report) == [], f.to_string()


def test_tampered_eisenstein_certificates_agree_with_verify():
    # each certificate with its orientation flipped, or with g replaced by
    # a polynomial of degree 0 to 2: a linear one, u2^2, a random quadratic
    rng = random.Random(37)
    verdicts = Counter()
    for f, cert in random_eisenstein_inputs():
        p = f.p
        changes = [{"main_axis": 3 - cert.main_axis}, {"inverted": not cert.inverted},
                   {"main_axis": 3 - cert.main_axis, "inverted": not cert.inverted},
                   {"g": FpPoly([1], p)}, {"g": FpPoly([0, 0, 1], p)},
                   {"g": FpPoly([rng.randrange(p), 1], p)},
                   {"g": FpPoly([rng.randrange(p), rng.randrange(p), 1], p)}]
        for change in changes:
            tampered = cert._replace(**change)
            report = {"prime": p, "poly": f.to_string(), "irreducibility": {
                "method": "eisenstein", **mixing.METHODS["eisenstein"].fields(tampered)}}
            accepted = recheck.eisenstein_problems(report) == []
            assert accepted == mixing.verify_eisenstein(f, tampered), (f.to_string(), change)
            verdicts[accepted] += 1
    # 500 inputs times 7 changes; a change that keeps every condition is
    # accepted by both
    assert verdicts == {False: 3330, True: 170}


def test_eisenstein_problems_name_the_failed_condition():
    # u1^2+u2 over F_5 meets the criterion with g = u2 in the plain u1-view
    report = {"prime": 5, "poly": "u2+u1^2", "irreducibility": {
        "method": "eisenstein", "main_axis": 1, "inverted": False, "g": "u2"}}
    assert recheck.eisenstein_problems(report) == []

    def problems(poly=None, **cert):
        return recheck.eisenstein_problems({
            **report, "poly": poly or report["poly"],
            "irreducibility": {**report["irreducibility"], **cert}})

    assert problems(g="u2^2") == ["g = u2^2 has a root in F_5",
                                  "g does not divide every q_i below q_n"]
    assert problems(g="1+u2^2") == ["g = 1+u2^2 has a root in F_5",
                                    "g does not divide every q_i below q_n"]
    assert problems(g="2") == ["g = 2 does not have degree 1 or 2"]
    assert problems(g="u2^3") == ["g = u2^3 does not have degree 1 or 2"]
    assert problems(g="u1") == ["g = u1 is not a polynomial in u2"]
    assert problems(main_axis=0) and problems(inverted=1) and problems(main_axis=True)
    assert problems(poly="u2^2+u1^2") == ["g^2 divides q_0"]
    assert problems(poly="u2+u2^2+u1^2+u1^2*u2") == ["the content of the q_i is not 1"]
    assert problems(poly="1+u2+u1^2+u1^2*u2", g="1+u2") == [
        "the content of the q_i is not 1", "g divides q_n"]
    assert problems(poly="1+u2", main_axis=1) == ["the orientation has main degree 0"]
    assert problems(method="brute_force") == [] and problems(method="magic")


def test_script_checks_analyze_reports(capsys):
    assert main(["analyze", "--prime", "2", "--poly", "u1^2+u1u2^2+u2^3+u2"]) == 0
    out = capsys.readouterr().out
    report = json.loads(out)
    bad = json.dumps({**report, "irreducibility": {**report["irreducibility"], "g": "1+u2+u2^2"}})
    script = Path(recheck.__file__)
    runs = [
        subprocess.run([sys.executable, str(script)], input=text, capture_output=True,
                       text=True, env={**os.environ, "PYTHONPATH": ""})
        for text in (out, bad)
    ]
    assert [run.returncode for run in runs] == [0, 1]
    assert runs[1].stdout == "g does not divide every q_i below q_n\n"


def test_corpus_reducible_report_rechecks(capsys):
    # the corpus's one reducible input, the same at seeds 1-3
    assert main(["analyze", "--prime", "2", "--poly",
                 "u1^3*u2^2+u1^4*u2+u1^5*u2^2+u1^5*u2^4"]) == 0
    out = capsys.readouterr().out
    report = json.loads(out)
    assert report["irreducibility"] == {"method": "reducible", "factor": "1+u1*u2"}
    assert recheck.reducible_problems(report) == []
    bad = json.dumps({**report, "irreducibility": {"method": "reducible", "factor": "1+u1"}})
    runs = [
        subprocess.run([sys.executable, str(Path(recheck.__file__))], input=text,
                       capture_output=True, text=True, env={**os.environ, "PYTHONPATH": ""})
        for text in (out, bad)
    ]
    assert [run.returncode for run in runs] == [0, 1]
    assert runs[1].stdout == "the factor does not divide f\n"


@functools.lru_cache(maxsize=None)
def random_products():
    """400 seeded products g h of two non-monomials at p in {2, 3}, each of
    bidegree at most (2, 2), so that g h lies in brute force's (4, 4) box."""
    rng = random.Random(38)
    products = []
    while len(products) < 400:
        p = rng.choice((2, 3))
        f = random_nonmonomial(rng, p, max_terms=4, span=1) * random_nonmonomial(
            rng, p, max_terms=4, span=1)
        if not f.is_zero() and not f.is_monomial():
            products.append(f)
    return products


def test_random_reducible_certificates_recheck():
    for f in random_products():
        report = analyze_report(f)
        assert report["irreducibility"]["method"] == "reducible", f.to_string()
        assert recheck.reducible_problems(report) == [], f.to_string()


def test_altered_reducible_certificates_agree_with_verify():
    # a monomial and f itself are always rejected; u1 times the factor, a
    # unit multiple, and the quotient always accepted.  The factor plus 1,
    # or times 1+u2, is rejected unless it is a proper divisor of f too
    verdicts = Counter()
    for f in random_products():
        cert = mixing.certify_irreducible(f)
        one = LaurentPoly.one(f.p)
        changes = {"monomial": LaurentPoly({(1, 2): 1}, f.p), "f": f,
                   "plus one": cert.factor + one,
                   "times 1+u2": cert.factor * (one + one.shift((0, 1))),
                   "times u1": cert.factor.shift((1, 0)),
                   "quotient": mixing.exact_divides(cert.factor, f)}
        for name, factor in changes.items():
            report = {"prime": f.p, "poly": f.to_string(), "irreducibility": {
                "method": "reducible", "factor": factor.to_string()}}
            accepted = recheck.reducible_problems(report) == []
            assert accepted == mixing.verify_reducible(f, cert._replace(factor=factor)), (
                f.to_string(), name)
            verdicts[name, accepted] += 1
    assert verdicts == {
        ("monomial", False): 400, ("f", False): 400, ("times u1", True): 400,
        ("quotient", True): 400, ("plus one", False): 395, ("plus one", True): 5,
        ("times 1+u2", False): 399, ("times 1+u2", True): 1}


def test_recheck_flags_wrong_reducible_certificates(monkeypatch):
    # a fault row: the factor search returns a non-divisor and the
    # in-process re-check accepts it; the outside re-checker names every
    # certificate the fault made wrong, and only those
    search = mixing._search_factor
    monkeypatch.setattr(mixing, "_search_factor", lambda f, pu: (
        lambda g: None if g is None else g + LaurentPoly.one(f.p))(search(f, pu)))
    monkeypatch.setitem(mixing.METHODS, "reducible", mixing.METHODS["reducible"]._replace(
        recheck=lambda f, cert: True))
    outcomes = Counter()
    for f in random_products():
        report = analyze_report(f)
        factor = parse_poly(report["irreducibility"]["factor"], f.p)
        wrong = not mixing.verify_reducible(
            f, mixing.IrreducibilityCertificate("reducible", factor=factor))
        flagged = recheck.reducible_problems(report) != []
        assert flagged == wrong, f.to_string()
        outcomes["wrong" if wrong else "unchanged"] += 1
    assert outcomes == {"unchanged": 214, "wrong": 186}
