import random
import re

import pytest
from hypothesis import given, strategies as st

from mixbound import parse
from mixbound.laurent import LaurentPoly
from mixbound.mixing import order_bounds, shape_witness_search
from mixbound.parse import (
    ParseError,
    parse_family_line,
    parse_points,
    parse_poly,
    parse_windows,
)

from conftest import (
    CountingTokens,
    family_line_by_split,
    points_by_split,
    windows_by_split,
)

# whitespace, names, operators, ASCII and Arabic-Indic digits, '²' (a digit
# int() rejects), letters that name no variable, and an exponent past the cap
PIECES = (
    "\n", "\r", "\t", " ", "u1", "u2", "t", "+", "-", "*", "^",
    *"0123456789", *"\u0660\u0661\u0662\u0663\u0664\u0665\u0666\u0667\u0668\u0669",
    "²", "x", "é", "1048577",
)


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

    def test_non_decimal_digit_points_at_the_character(self):
        with pytest.raises(ParseError) as err:
            parse_poly("1 +\n u1²", 2)
        assert str(err.value) == "unexpected character '²' (line 2, column 4)"

    def test_matches_the_counting_tokenizer(self, monkeypatch):
        rng = random.Random(15)
        texts = [
            "".join(rng.choices(PIECES, k=rng.randint(0, 10))) for _ in range(100_000)
        ]

        def outcome(text):
            try:
                return parse_poly(text, 5)
            except ParseError as err:
                return "ParseError", str(err), err.line, err.col
            except ValueError as err:
                return "ValueError", str(err)

        got = [outcome(text) for text in texts]
        monkeypatch.setattr(parse, "_Tokens", CountingTokens)
        want = [outcome(text) for text in texts]
        differing = 0
        for text, g, w in zip(texts, got, want):
            if g == w:
                continue
            # only a digit that int() rejects may differ: the counting
            # tokenizer lets its ValueError escape, _Tokens points at it
            differing += 1
            assert "²" in text and w[0] == "ValueError", (text, g, w)
            _, message, line, col = g
            assert message.startswith("unexpected character '²'"), (text, g)
            assert text.split("\n")[line - 1][col - 1] == "²", (text, g)
        assert 0 < differing < len(texts)

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


class TestPrimeCheck:
    def test_prime_is_checked_before_the_text(self):
        with pytest.raises(ValueError) as err:
            parse_poly("1+", 4)
        assert type(err.value) is ValueError and str(err.value) == "4 is not prime"

    def test_library_calls_over_z_mod_4_raise_at_parse(self):
        # over Z/4 (a+b)^4 != a^4+b^4, so neither call may certify anything
        with pytest.raises(ValueError, match="^4 is not prime$"):
            order_bounds(parse_poly("1+u1+u2", 4))
        with pytest.raises(ValueError, match="^4 is not prime$"):
            shape_witness_search(parse_poly("1+u1+u2", 4), [(0, 0), (1, 0), (0, 1)])


class TestParsePoints:
    def test_shape_list(self):
        assert parse_points("(0,0);(1,0);(0,2)") == [(0, 0), (1, 0), (0, 2)]

    def test_whitespace_and_negatives(self):
        assert parse_points(" (-1, 2) ; (3, -4) ") == [(-1, 2), (3, -4)]

    @pytest.mark.parametrize("bad", ["", "(1)", "(a,b)", "1,2", "(1,2,3)"])
    def test_malformed(self, bad):
        with pytest.raises(ParseError):
            parse_points(bad)


    def test_oversized_coordinate_points_at_its_digits(self):
        with pytest.raises(ParseError) as err:
            parse_points("(0,0);(" + "9" * 5000 + ",1)")
        assert str(err.value) == "integer too long (5000 digits) (line 1, column 8)"

    @pytest.mark.parametrize(
        "bad, col",
        [("(0,0);(1,0);(a,1)", 14), ("(0,0); (1)", 10), ("(0,0);;  1,2", 10), ("", 1)],
    )
    def test_error_points_at_the_chunk(self, bad, col):
        with pytest.raises(ParseError) as err:
            parse_points(bad)
        assert (err.value.line, err.value.col) == (1, col)


class TestParseFamilyLine:
    def test_labeled_line(self):
        assert parse_family_line("3: (0,0);(3,0)") == (3, [(0, 0), (3, 0)])

    @pytest.mark.parametrize("bad", ["(0,0);(1,1)", "x: (0,0)", ":"])
    def test_malformed(self, bad):
        with pytest.raises(ParseError):
            parse_family_line(bad)

    @pytest.mark.parametrize(
        "bad, col", [("7 (0,0)", 3), ("  x: (0,0)", 3), ("2: (0,0);(1,b)", 13), ("2:", 3)]
    )
    def test_error_names_the_given_line(self, bad, col):
        with pytest.raises(ParseError) as err:
            parse_family_line(bad, 5)
        assert (err.value.line, err.value.col) == (5, col)


ARABIC_INDIC_DIGITS = "\u0660\u0661\u0662\u0663\u0664\u0665\u0666\u0667\u0668\u0669"
TO_ARABIC_INDIC = str.maketrans("0123456789", ARABIC_INDIC_DIGITS)
# what edits draw from: ASCII and Arabic-Indic digits, '²' (a digit int()
# rejects), '_', signs, the punctuation of every grammar, letters, whitespace
EDIT_CHARS = (
    *"0123456789", *ARABIC_INDIC_DIGITS, "²", "_", "+", "-", *"(),;:",
    "a", "x", "u", "é", " ", "\t", "\n",
)
# a sign followed by whitespace, the one input class only the tokenizer accepts
SIGN_SPACE = re.compile(r"([+-])\s+(?=\d)")


def _space(rng):
    return rng.choice(("", "", "", " ", "  ", "\t", "\n"))


def _integer_text(rng, signs):
    digits = str(rng.choice((0, 1, 2, 3, 7, 12, 305, 1048576, 1048577)))
    if rng.random() < 0.2:
        digits = digits.translate(TO_ARABIC_INDIC)
    return _space(rng) + rng.choice(signs) + digits + _space(rng)


def _points_text(rng):
    entries = [
        f"{_space(rng)}({_integer_text(rng, ('', '-', '+'))},"
        f"{_integer_text(rng, ('', '-'))}){_space(rng)}"
        for _ in range(rng.randint(1, 4))
    ]
    if rng.random() < 0.2:
        entries.insert(rng.randint(0, len(entries)), _space(rng))
    return ";".join(entries)


def _family_text(rng):
    return f"{_integer_text(rng, ('', '-', '+'))}:{_points_text(rng)}"


def _windows_text(rng):
    entries = [_integer_text(rng, ("", "", "+")) for _ in range(rng.randint(1, 4))]
    if rng.random() < 0.3:
        entries.insert(rng.randint(0, len(entries)), _space(rng))
    return ",".join(entries)


def _edited(rng, text):
    # 0-2 random insertions, deletions or substitutions
    for _ in range(rng.randint(0, 2)):
        i = rng.randint(0, len(text))
        edit = rng.choice(("insert", "delete", "substitute"))
        rest = text[i + (edit != "insert"):]
        text = text[:i] + ("" if edit == "delete" else rng.choice(EDIT_CHARS)) + rest
    return text


def _outcome(parse, text):
    try:
        return parse(text)
    except ParseError as err:
        return err


class TestAgainstTheSplitParsers:
    """The token parsers against the split/strip/int() parsers they replace.

    Exactly two input classes may differ: '_' digit grouping, which only
    int() accepts, and whitespace between a sign and its digits, which
    only the tokenizer accepts.
    """

    @pytest.mark.parametrize(
        "parse, by_split, valid",
        [
            (parse_points, points_by_split, _points_text),
            (parse_family_line, family_line_by_split, _family_text),
            (parse_windows, windows_by_split, _windows_text),
        ],
        ids=["points", "family_line", "windows"],
    )
    def test_only_the_two_listed_classes_differ(self, parse, by_split, valid):
        rng = random.Random(20)
        texts = [_edited(rng, valid(rng)) for _ in range(100_000)]
        accepted = grouped = spaced = 0
        for text in texts:
            got, want = _outcome(parse, text), _outcome(by_split, text)
            if isinstance(got, ParseError):
                _assert_names_a_character(text, got)
                if not isinstance(want, ParseError):
                    grouped += 1
                    line = text.split("\n")[got.line - 1]
                    assert line[got.col - 1] == "_", (text, got, want)
            else:
                accepted += 1
                if isinstance(want, ParseError):
                    spaced += 1
                    want = by_split(SIGN_SPACE.sub(r"\1", text))
                assert got == want, (text, got, want)
        assert 0.1 * len(texts) <= accepted <= 0.9 * len(texts)
        assert grouped and spaced


def _assert_names_a_character(text, err):
    # the error names a non-space character, or the end of the text
    lines = text.split("\n")
    line = lines[err.line - 1]
    if err.col <= len(line):
        assert not line[err.col - 1].isspace(), (text, err)
    else:
        assert (err.line, err.col) == (len(lines), len(line) + 1), (text, err)
