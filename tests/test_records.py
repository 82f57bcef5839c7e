"""The contract of the package's result records: repr text, construction
with keywords and defaults, equality and hash, immutability, and the
ValueErrors of the four records that validate their fields."""

from fractions import Fraction

import pytest

from mixbound import cli
from mixbound.fieldpoly import FieldConfig, FpPoly
from mixbound.geometry import Face, LatticePolygon, convex_hull, faces
from mixbound.laurent import LaurentPoly, PolyInU1, as_poly_in_u1
from mixbound.mixing import (
    DiagnosticsEntry,
    FaceAlignment,
    IrreducibilityCertificate,
    MixingReport,
    ShapeVerdict,
    VolochScan,
    Witness,
    order_bounds,
    sequence_diagnostics,
    shape_witness_search,
    voloch_identity_scan,
)
from mixbound.newton import (
    FINITE,
    INFINITY_DEG,
    ExtendedNorm,
    FaceNewtonData,
    NewtonPolygon,
    Valuation,
    face_newton_data,
    lower_hull,
    newton_points,
)
from mixbound.parse import parse_poly
from mixbound.refexamples import Check, ReferenceEntry


def _f():
    return parse_poly("1+u1+u2", 2)


def _first_face():
    return faces(convex_hull(_f().support()))[0]


# (record name, function that builds one, first field, repr recorded when the
# records were dataclasses)
CASES = [
    ("FieldConfig", lambda: FieldConfig(3), "p", "FieldConfig(p=3)"),
    (
        "LatticePolygon",
        lambda: convex_hull(_f().support()),
        "vertices",
        "LatticePolygon(vertices=((0, 0), (1, 0), (0, 1)), degeneracy='polygon')",
    ),
    (
        "Face",
        _first_face,
        "start",
        "Face(start=(0, 0), end=(1, 0), direction=(1, 0), normal=(0, -1), "
        "lattice_length=1)",
    ),
    (
        "PolyInU1",
        lambda: as_poly_in_u1(_f()),
        "coeffs",
        "PolyInU1(coeffs=(FpPoly('1+t', p=2), FpPoly('1', p=2)), shift=(0, 0), p=2)",
    ),
    (
        "IrreducibilityCertificate",
        lambda: order_bounds(_f()).irreducibility,
        "method",
        "IrreducibilityCertificate(method='eisenstein', main_axis=1, inverted=False, "
        "g=FpPoly('1+t', p=2), searched_bidegree=None, factor=None)",
    ),
    (
        "MixingReport",
        lambda: order_bounds(_f()),
        "f",
        "MixingReport(f=LaurentPoly('1+u2+u1', p=2), p=2, "
        "irreducibility=IrreducibilityCertificate(method='eisenstein', main_axis=1, "
        "inverted=False, g=FpPoly('1+t', p=2), searched_bidegree=None, factor=None), "
        "support_size=3, hull=LatticePolygon(vertices=((0, 0), (1, 0), (0, 1)), "
        "degeneracy='polygon'), face_count=3, lower_bound=2, upper_bound=2, "
        "exact_order=2, degenerate_verdict=None, notes=('support equals the hull "
        "vertex set, so the order of mixing is exactly |S(f)|-1 = 2',))",
    ),
    (
        "Witness",
        lambda: shape_witness_search(_f(), [(0, 0), (1, 0), (0, 1)]).witness,
        "k",
        "Witness(k=1, coefficients=(LaurentPoly('1', p=2), LaurentPoly('1', p=2), "
        "LaurentPoly('1', p=2)), constant_flag=True, quotient=LaurentPoly('1', p=2))",
    ),
    (
        "ShapeVerdict",
        lambda: ShapeVerdict(
            "relation_found",
            shape_witness_search(_f(), [(0, 0), (1, 0), (0, 1)]).witness,
            note="n",
        ),
        "kind",
        "ShapeVerdict(kind='relation_found', witness=Witness(k=1, "
        "coefficients=(LaurentPoly('1', p=2), LaurentPoly('1', p=2), "
        "LaurentPoly('1', p=2)), constant_flag=True, quotient=LaurentPoly('1', p=2)), "
        "reason=None, searched=None, note='n')",
    ),
    (
        "FaceAlignment",
        lambda: sequence_diagnostics(_f(), [(1, [(0, 0), (2, 0), (0, 1)])])[0]
        .alignments[1],
        "face_index",
        "FaceAlignment(face_index=1, maximizer=(2, 0), runner_up=(0, 1), "
        "gap=Fraction(1, 1), offset=1)",
    ),
    (
        "DiagnosticsEntry",
        lambda: sequence_diagnostics(_f(), [(7, [(0, 0), (2, 0)])])[0],
        "label",
        "DiagnosticsEntry(label=7, points=((0, 0), (2, 0)), alignments=("
        "FaceAlignment(face_index=0, maximizer=(0, 0), runner_up=(2, 0), "
        "gap=Fraction(0, 1), offset=0), FaceAlignment(face_index=1, maximizer=(2, 0), "
        "runner_up=(0, 0), gap=Fraction(2, 1), offset=2), FaceAlignment(face_index=2, "
        "maximizer=(0, 0), runner_up=(2, 0), gap=Fraction(2, 1), offset=2)), "
        "face_lengths=(2,), length_ratios=(Fraction(1, 1),))",
    ),
    (
        "VolochScan",
        lambda: voloch_identity_scan(4),
        "mmax",
        "VolochScan(mmax=4, solutions=(), frobenius_checked=(0, 1, 2), "
        "frobenius_failures=())",
    ),
    (
        "Valuation",
        lambda: Valuation.finite_at(FpPoly((1, 1), 3), coeff_axis=1, inverted=True),
        "kind",
        "Valuation(kind='finite', g=FpPoly('1+t', p=3), coeff_axis=1, inverted=True)",
    ),
    (
        "NewtonPolygon",
        lambda: lower_hull(
            newton_points(as_poly_in_u1(parse_poly("u2+u1+u1^3u2", 2)),
                          Valuation.finite_at(FpPoly.x(2)))
        ),
        "vertices",
        "NewtonPolygon(vertices=(NewtonPoint(index=0, ordinate=1), "
        "NewtonPoint(index=1, ordinate=0), NewtonPoint(index=3, ordinate=1)), "
        "segments=(Segment(slope=Fraction(-1, 1), start=0, end=1), "
        "Segment(slope=Fraction(1, 2), start=1, end=3)))",
    ),
    (
        "ExtendedNorm",
        lambda: ExtendedNorm(Fraction(1, 2), Fraction(-1), ("src",)),
        "log_u1",
        "ExtendedNorm(log_u1=Fraction(1, 2), log_u2=Fraction(-1, 1), source=('src',))",
    ),
    (
        "FaceNewtonData",
        lambda: face_newton_data(_f())[0],
        "face",
        "FaceNewtonData(face=Face(start=(0, 0), end=(1, 0), direction=(1, 0), "
        "normal=(0, -1), lattice_length=1), valuation=Valuation(kind='finite', "
        "g=FpPoly('t', p=2), coeff_axis=2, inverted=False), points=(NewtonPoint("
        "index=0, ordinate=0), NewtonPoint(index=1, ordinate=0)), polygon="
        "NewtonPolygon(vertices=(NewtonPoint(index=0, ordinate=0), NewtonPoint("
        "index=1, ordinate=0)), segments=(Segment(slope=Fraction(0, 1), start=0, "
        "end=1),)), segment=Segment(slope=Fraction(0, 1), start=0, end=1), "
        "norm=ExtendedNorm(log_u1=Fraction(0, 1), log_u2=Fraction(-1, 1), "
        "source=(Face(start=(0, 0), end=(1, 0), direction=(1, 0), normal=(0, -1), "
        "lattice_length=1), Valuation(kind='finite', g=FpPoly('t', p=2), "
        "coeff_axis=2, inverted=False))))",
    ),
    (
        "ReferenceEntry",
        lambda: ReferenceEntry("key", 2, LaurentPoly({(0, 0): 1, (1, 0): 1}, 2), ("n",)),
        "key",
        "ReferenceEntry(key='key', p=2, poly=LaurentPoly('1+u1', p=2), notes=('n',))",
    ),
    (
        "Check",
        lambda: Check("name", (1, None), (1, None)),
        "name",
        "Check(name='name', expected=(1, None), got=(1, None))",
    ),
]

IDS = [case[0] for case in CASES]


def test_every_record_is_covered():
    assert len(set(IDS)) == 17


@pytest.mark.parametrize("name, build, field, text", CASES, ids=IDS)
def test_repr(name, build, field, text):
    rec = build()
    assert repr(rec) == text
    assert type(rec).__name__ == name


@pytest.mark.parametrize("name, build, field, text", CASES, ids=IDS)
def test_equal_instances_have_equal_hashes(name, build, field, text):
    a, b = build(), build()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)


@pytest.mark.parametrize("name, build, field, text", CASES, ids=IDS)
def test_assignment_raises(name, build, field, text):
    rec = build()
    with pytest.raises(AttributeError):
        setattr(rec, field, None)
    with pytest.raises(AttributeError):
        rec.not_a_field = 1
    assert repr(rec) == text


class TestConstruction:
    def test_defaults(self):
        assert repr(IrreducibilityCertificate("unverified")) == (
            "IrreducibilityCertificate(method='unverified', main_axis=None, "
            "inverted=False, g=None, searched_bidegree=None, factor=None)"
        )
        assert repr(ShapeVerdict("unresolved")) == (
            "ShapeVerdict(kind='unresolved', witness=None, reason=None, "
            "searched=None, note=None)"
        )
        assert repr(Valuation.infinity_deg()) == (
            "Valuation(kind='infinity', g=None, coeff_axis=2, inverted=False)"
        )
        rep = order_bounds(_f())
        assert MixingReport(
            rep.f, rep.p, rep.irreducibility, rep.support_size, rep.hull,
            rep.face_count, rep.lower_bound, rep.upper_bound, rep.exact_order,
            rep.degenerate_verdict,
        ).notes == ()

    def test_keywords_match_positions(self):
        face = _first_face()
        assert Face(
            start=face.start, end=face.end, direction=face.direction,
            normal=face.normal, lattice_length=face.lattice_length,
        ) == face
        assert Valuation(kind=FINITE, g=FpPoly.x(2)) == Valuation.finite_at(FpPoly.x(2))
        assert Valuation(INFINITY_DEG, coeff_axis=1) == Valuation.infinity_deg(1)
        assert FieldConfig(p=5) == FieldConfig(5)
        assert IrreducibilityCertificate("brute_force", searched_bidegree=(4, 4)) == (
            IrreducibilityCertificate("brute_force", None, False, None, (4, 4), None)
        )
        assert Witness(k=2, coefficients=(), constant_flag=False, quotient=None).k == 2
        assert VolochScan(mmax=1, solutions=(), frobenius_checked=(0,),
                          frobenius_failures=()).frobenius_checked == (0,)
        assert FaceAlignment(0, (0, 0), (1, 0), Fraction(0), 0).gap == 0
        assert DiagnosticsEntry(1, (), (), (), ()).label == 1
        assert NewtonPolygon(vertices=(), segments=()).segments == ()
        assert LatticePolygon(((0, 0),), "point").degeneracy == "point"
        assert Check(name="c", expected=1, got=1).ok
        assert not Check("c", (1,), [1]).ok

    def test_properties_and_methods(self):
        assert order_bounds(_f()).conditional is False
        assert IrreducibilityCertificate("unverified").certifies_irreducible is False
        poly = as_poly_in_u1(_f())
        assert poly.degree == 1
        assert poly.to_laurent() == _f()
        assert ExtendedNorm(Fraction(1), Fraction(2), ()).vector() == (1, 2)
        assert Valuation.infinity_deg().coeff_log() == 1
        assert Valuation.finite_at(FpPoly.x(2)).ordinate(FpPoly((0, 0, 1), 2)) == 2


class TestValidation:
    @pytest.mark.parametrize("p", [0, 1, 4, 65536, 65537])
    def test_field_config(self, p):
        with pytest.raises(ValueError):
            FieldConfig(p)
        with pytest.raises(ValueError):
            FieldConfig(p=p)

    def test_poly_in_u1(self):
        one, zero = FpPoly.one(2), FpPoly.zero(2)
        with pytest.raises(ValueError, match="nonzero first and last"):
            PolyInU1((), (0, 0), 2)
        with pytest.raises(ValueError, match="nonzero first and last"):
            PolyInU1((zero, one), (0, 0), 2)
        with pytest.raises(ValueError, match="nonzero first and last"):
            PolyInU1(coeffs=(one, zero), shift=(0, 0), p=2)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"kind": "bogus"}, "unknown valuation kind"),
            ({"kind": INFINITY_DEG, "coeff_axis": 3}, "coeff_axis must be 1 or 2"),
            ({"kind": FINITE}, "non-constant g"),
            ({"kind": FINITE, "g": FpPoly.one(2)}, "non-constant g"),
            ({"kind": FINITE, "g": FpPoly((0, 0, 1), 2)}, "irreducible g"),
            ({"kind": INFINITY_DEG, "g": FpPoly.x(2)}, "takes no polynomial"),
        ],
    )
    def test_valuation(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            Valuation(**kwargs)

    def test_extended_norm(self):
        with pytest.raises(ValueError, match="trivial norm vector"):
            ExtendedNorm(Fraction(0), Fraction(0), ())
        with pytest.raises(ValueError, match="trivial norm vector"):
            ExtendedNorm(log_u1=0, log_u2=0, source=None)


def _plain(obj):
    """True when obj holds only dicts, lists, strings, ints, bools and None:
    json.dumps writes any tuple, a record included, as an array, so a
    record that reached the writer would not raise."""
    if isinstance(obj, dict):
        return all(type(k) is str and _plain(v) for k, v in obj.items())
    if type(obj) is list:
        return all(_plain(v) for v in obj)
    return obj is None or type(obj) in (str, int, bool)


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--prime", "2", "--poly", "u2+u1+u1^3u2"],
        ["analyze", "--prime", "2", "--poly", "1+u1+u2+u2^2"],
        ["analyze", "--prime", "3", "--poly", "1+u1^2"],
        ["shape-test", "--prime", "2", "--poly", "1+u1+u2", "--shape", "(0,0);(1,0);(0,1)"],
        ["shape-test", "--prime", "2", "--poly", "1+u1+u2+u2^2",
         "--shape", "(0,0);(1,0);(0,2)"],
        ["seq-diagnose", "--prime", "2", "--poly", "1+u1+u2", "--tuple", "(0,0);(2,0)"],
        ["voloch-scan", "--mmax", "16"],
        ["verify-paper"],
    ],
    ids=lambda argv: argv[0],
)
def test_cli_writes_no_record(monkeypatch, argv):
    written = []
    monkeypatch.setattr(cli, "_emit", written.append)
    cli.main(argv)
    assert len(written) == 1 and _plain(written[0])
