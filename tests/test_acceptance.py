"""Acceptance suite: one test per release criterion.

Every check is exact (integer / rational equality); the only tolerances
are the stated runtime budgets.  Each test prints one PASS line; a
failing criterion fails its test.
"""

import random
import time
from fractions import Fraction

from mixbound import geometry
from mixbound.cli import main
from mixbound.fieldpoly import INFINITE
from mixbound.laurent import LaurentPoly, combination_solve, in_ideal
from mixbound.mixing import (
    CERTIFIED_NON_MIXING,
    GEOMETRICALLY_MIXING,
    RELATION_FOUND,
    order_bounds,
    sequence_diagnostics,
    shape_witness_search,
    voloch_identity_scan,
)
from mixbound.newton import Valuation, extended_norms, lower_hull, newton_points
from mixbound.refexamples import PENTAGON_NOTE, notes_for, verify_paper_checks

from conftest import L, random_nonmonomial


def _report(n, text):
    print(f"ACCEPTANCE {n} PASS: {text}")


def test_criterion_1_example_replay():
    f = L("u2+u1+u1^3u2")
    ordv = Valuation.finite_at()
    degv = Valuation.infinity_deg()

    def replay():
        pts = newton_points(f, ordv)
        segs = lower_hull(pts).segments
        norms = [n.vector() for n in extended_norms(f, ordv)]
        pts2 = newton_points(f, degv)
        norms2 = [n.vector() for n in extended_norms(f, degv)]
        return pts, segs, norms, pts2, norms2

    replay()  # warm up
    t0 = time.perf_counter()
    pts, segs, norms, pts2, norms2 = replay()
    elapsed = time.perf_counter() - t0

    assert [(pt.index, pt.ordinate) for pt in pts] == [
        (0, 1), (1, 0), (2, INFINITE), (3, 1),
    ]
    assert [s.slope for s in segs] == [Fraction(-1), Fraction(1, 2)]
    assert norms == [(Fraction(-1), Fraction(-1)), (Fraction(1, 2), Fraction(-1))]
    assert [(pt.index, pt.ordinate) for pt in pts2] == [
        (0, -1), (1, 0), (2, INFINITE), (3, -1),
    ]
    assert norms2 == [(Fraction(0), Fraction(1))]
    assert elapsed < 0.001, f"replay took {elapsed * 1000:.3f} ms"
    _report(1, f"worked-example replay exact in {elapsed * 1e6:.0f} us")


def test_criterion_2_lemma_property_suite():
    rng = random.Random(20260810)
    t0 = time.perf_counter()
    done = 0
    faces_checked = 0
    while done < 200:
        p = rng.choice([2, 3, 5])
        terms = {}
        for _ in range(rng.randint(3, 7)):
            terms[(rng.randint(0, 6), rng.randint(0, 6))] = rng.randint(1, p - 1)
        f = LaurentPoly(terms, p)
        if f.is_zero() or f.is_monomial():
            continue
        hull = geometry.convex_hull(f.support())
        if hull.degeneracy != geometry.POLYGON:
            continue
        done += 1
        from mixbound.newton import face_newton_data

        for d in face_newton_data(f, hull):
            face, v = d.face, d.norm.vector()
            n = face.normal
            assert v[0] * n[1] == v[1] * n[0], (f.to_string(), face)
            assert v[0] * n[0] + v[1] * n[1] > 0, (f.to_string(), face)
            faces_checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"suite took {elapsed:.2f} s"
    _report(2, f"{faces_checked} face norms on 200 random hulls in {elapsed:.2f} s")


def test_criterion_3_bounds_corpus():
    rep_a = order_bounds(L("u2+u1+u1^3u2"))
    assert rep_a.exact_order == 2

    rep_b = order_bounds(L("u1^2+u1u2^2+u2^3+u2"))
    assert rep_b.irreducibility.method == "eisenstein"
    assert (rep_b.face_count, rep_b.support_size, rep_b.exact_order) == (4, 4, 3)

    pent = L("u1^6+u1^5u2+u1^3u2^2+u2+u2^3")
    rep_c = order_bounds(pent)
    assert rep_c.irreducibility.method == "eisenstein"
    assert (rep_c.face_count, rep_c.support_size, rep_c.exact_order) == (5, 5, 4)
    assert PENTAGON_NOTE in notes_for(pent)

    rep_d = order_bounds(L("1+u1+u2+u2^2"))
    assert (rep_d.lower_bound, rep_d.upper_bound) == (2, 3)
    assert rep_d.exact_order is None
    _report(3, "bounds corpus: exact orders 2/3/4 with notes, window [2,3]")


def test_criterion_4_non_mixing_witness():
    f = L("1+u1+u2")
    shape = [(0, 0), (1, 0), (0, 1)]
    verdict = shape_witness_search(f, shape, kmax=16, windows=(0, 1, 2))
    assert verdict.kind == CERTIFIED_NON_MIXING
    w = verdict.witness
    assert w.k == 1
    assert [m.to_string() for m in w.coefficients] == ["1", "1", "1"]
    # direct expansion at k = 2 and k = 4 with the identical constants
    for k in (2, 4):
        combo = LaurentPoly({}, 2)
        for m, n in zip(w.coefficients, shape):
            combo = combo + m.shift((k * n[0], k * n[1]))
        assert in_ideal(combo, f)
    # the relation at k = 1 is f itself
    assert w.constant_flag and w.quotient == L("1")
    _report(4, "support shape certified non-mixing; relation persists at k=2,4")


def test_criterion_5_three_shape_classifier():
    f = L("1+u1+u2+u2^2")
    v1 = shape_witness_search(f, [(0, 0), (1, 0), (0, 1)])
    assert v1.kind == GEOMETRICALLY_MIXING

    v2 = shape_witness_search(f, [(0, 0), (1, 0), (0, 2)], kmax=16, windows=(0, 1, 2))
    assert v2.kind == RELATION_FOUND, "no constant witness may exist for k<=16, W<=2"
    w = v2.witness
    assert w.k == 1 and not w.constant_flag
    assert [m.to_string() for m in w.coefficients] == ["1", "1", "u2^-1+1"]
    combo = LaurentPoly({}, 2)
    for m, n in zip(w.coefficients, [(0, 0), (1, 0), (0, 2)]):
        combo = combo + m.shift(n)
    assert in_ideal(combo, f)
    _report(5, "classifier: unit triangle mixing; vertex triangle relation (1,1,1+u2^-1)")


def test_criterion_6_voloch_scan():
    t0 = time.perf_counter()
    scan = voloch_identity_scan(4096)
    elapsed = time.perf_counter() - t0
    assert scan.solutions == ()
    assert scan.frobenius_checked == tuple(range(13))  # e <= 12
    assert scan.frobenius_failures == ()
    assert elapsed < 2.0, f"scan took {elapsed:.2f} s"
    _report(6, f"identity scan m<=4096: no solutions, e<=12 verified in {elapsed:.3f} s")


def test_criterion_7_oracle_equivalence():
    rng = random.Random(7777)
    done = 0
    agreements = 0
    while done < 100:
        p = rng.choice([2, 3])
        f = random_nonmonomial(rng, p, max_terms=4, span=2)
        r = rng.randint(2, 3)
        pts = []
        while len(pts) < r:
            pt = (rng.randint(-2, 2), rng.randint(-2, 2))
            if pt not in pts:
                pts.append(pt)
        k = rng.randint(1, 4)
        done += 1
        dil = [(k * a, k * b) for a, b in pts]
        # independent oracle: enumerate every constant tuple directly
        exists = False
        for code in range(1, p**r):
            cs = []
            c = code
            for _ in range(r):
                cs.append(c % p)
                c //= p
            combo = LaurentPoly({}, p)
            for ci, a in zip(cs, dil):
                if ci:
                    combo = combo + LaurentPoly({a: ci}, p)
            if in_ideal(combo, f):
                exists = True
                break
        solved = combination_solve(f, dil, 0)
        assert (solved is not None) == exists, (f.to_string(), dil)
        if solved is not None:
            combo = LaurentPoly({}, p)
            for m, a in zip(solved, dil):
                combo = combo + m.shift(a)
            assert in_ideal(combo, f)
        agreements += 1
    _report(7, f"solver agrees with the brute-force enumerator on {agreements} instances")


def test_criterion_8_alignment_diagnostics():
    f3 = L("1+u1+u2")
    fam = [(j, [(0, 0), (j, 0), (0, j)]) for j in range(1, 21)]
    for entry in sequence_diagnostics(f3, fam):
        assert all(a.offset == 0 for a in entry.alignments), entry
    f4 = L("1+u1+u2+u2^2")
    entries = sequence_diagnostics(f4, [(j, [(0, 0), (j, 0), (0, j)]) for j in range(1, 11)])
    offsets = [e.alignments[1].offset for e in entries]
    assert all(a < b for a, b in zip(offsets, offsets[1:])), offsets
    _report(8, "dilate family aligns exactly for j<=20; mismatched face offset grows")


def test_criterion_9_verify_paper(capsys, tmp_path):
    checks = verify_paper_checks()
    assert all(c.ok for c in checks), [c.name for c in checks if not c.ok]
    code = main(["verify-paper"])
    out = capsys.readouterr().out
    assert code == 0
    assert '"passed"' in out
    import json
    import pathlib

    data = json.loads(out)
    assert data["passed"] == data["total"]
    golden = pathlib.Path(__file__).parent / "golden"
    svg_path = tmp_path / "f1.svg"
    assert main([
        "render", "--prime", "2", "--poly", "u2+u1+u1^3u2", "--out", str(svg_path)
    ]) == 0
    capsys.readouterr()
    assert svg_path.read_bytes() == (golden / "figure1.svg").read_bytes()
    svg_path4 = tmp_path / "f4.svg"
    assert main([
        "render", "--prime", "2", "--poly", "u1^6+u1^5u2+u1^3u2^2+u2+u2^3",
        "--out", str(svg_path4),
    ]) == 0
    capsys.readouterr()
    assert svg_path4.read_bytes() == (golden / "figure4.svg").read_bytes()
    _report(9, f"verify-paper exits 0 ({data['passed']}/{data['total']}); figures match goldens byte-for-byte")
