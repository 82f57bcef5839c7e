import pytest
from hypothesis import given, strategies as st

from mixbound.laurent import LaurentPoly
from mixbound.parse import ParseError, parse_family_line, parse_points, parse_poly


class TestParsePoly:
    def test_example_figure1(self):
        f = parse_poly("u2 + u1 + u1^3*u2", 2)
        assert f == LaurentPoly({(0, 1): 1, (1, 0): 1, (3, 1): 1}, 2)

    def test_characteristic_cancellation(self):
        assert parse_poly("u1 + u1", 2).is_zero()

    def test_coefficient_reduced(self):
        assert parse_poly("3u1^-2", 2) == LaurentPoly({(-2, 0): 1}, 2)

    def test_optional_star_and_juxtaposition(self):
        assert parse_poly("u1u2", 2) == parse_poly("u1*u2", 2)
        assert parse_poly("u1^3u2", 2) == parse_poly("u1^3*u2", 2)

    def test_t_is_the_first_axis(self):
        assert parse_poly("1+t+t^2", 2) == parse_poly("1+u1+u1^2", 2)

    def test_subtraction(self):
        assert parse_poly("u1 - u2", 3) == LaurentPoly({(1, 0): 1, (0, 1): 2}, 3)

    def test_leading_minus(self):
        assert parse_poly("-u1 + 1", 3) == LaurentPoly({(1, 0): 2, (0, 0): 1}, 3)

    @pytest.mark.parametrize(
        "bad",
        ["", "u3", "u1^^2", "u1+", "^2", "u1^9999999", "u1 u2 +", "1 2", "* +u1"],
    )
    def test_errors_carry_position(self, bad):
        with pytest.raises(ParseError) as err:
            parse_poly(bad, 2)
        assert "line" in str(err.value) and "column" in str(err.value)

    def test_error_position_points_at_offender(self):
        with pytest.raises(ParseError) as err:
            parse_poly("u1 +\nu7", 2)
        assert err.value.line == 2 and err.value.col == 1

    def test_term_exponent_total_capped(self):
        with pytest.raises(ParseError) as err:
            parse_poly("1+u1^1048576u1^1048576+u2", 2)
        assert err.value.line == 1 and err.value.col == 13

    def test_term_exponent_total_within_cap(self):
        assert parse_poly("u1^1048576u1^-1", 2) == LaurentPoly({(1048575, 0): 1}, 2)

    def test_canonical_string_roundtrip(self, rng):
        from conftest import random_laurent

        for _ in range(200):
            p = rng.choice([2, 3, 5])
            f = random_laurent(rng, p)
            assert parse_poly(f.to_string(), p) == f

    @given(st.integers(-50, 50), st.integers(-50, 50), st.integers(1, 6))
    def test_single_term_roundtrip(self, e1, e2, c):
        f = LaurentPoly({(e1, e2): c}, 7)
        assert parse_poly(f.to_string(), 7) == f


class TestParsePoints:
    def test_shape_list(self):
        assert parse_points("(0,0);(1,0);(0,2)") == [(0, 0), (1, 0), (0, 2)]

    def test_whitespace_and_negatives(self):
        assert parse_points(" (-1, 2) ; (3, -4) ") == [(-1, 2), (3, -4)]

    @pytest.mark.parametrize("bad", ["", "(1)", "(a,b)", "1,2", "(1,2,3)"])
    def test_malformed(self, bad):
        with pytest.raises(ParseError):
            parse_points(bad)


class TestParseFamilyLine:
    def test_labeled_line(self):
        assert parse_family_line("3: (0,0);(3,0)") == (3, [(0, 0), (3, 0)])

    @pytest.mark.parametrize("bad", ["(0,0);(1,1)", "x: (0,0)", ":"])
    def test_malformed(self, bad):
        with pytest.raises(ParseError):
            parse_family_line(bad)
