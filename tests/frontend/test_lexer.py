"""Lexer unit tests."""

import pytest

from repro.errors import LexError
from repro.frontend.lexer import Token, tokenize


def kinds(source):
    return [t.kind for t in tokenize(source)[:-1]]


def texts(source):
    return [t.text for t in tokenize(source)[:-1]]


class TestBasics:
    def test_empty_input_yields_only_eof(self):
        tokens = tokenize("")
        assert len(tokens) == 1
        assert tokens[0].kind == "eof"

    def test_identifier(self):
        (tok,) = tokenize("hello")[:-1]
        assert tok.kind == "id"
        assert tok.text == "hello"

    def test_identifier_with_underscore_and_digits(self):
        (tok,) = tokenize("_my_var2")[:-1]
        assert tok.kind == "id"

    def test_keywords_recognized(self):
        for word in ("int", "double", "while", "forall", "shared",
                     "local", "struct", "sizeof", "NULL"):
            (tok,) = tokenize(word)[:-1]
            assert tok.kind == "keyword", word

    def test_keyword_prefix_is_identifier(self):
        (tok,) = tokenize("integer")[:-1]
        assert tok.kind == "id"

    def test_whitespace_and_newlines_skipped(self):
        assert kinds("a \t\n b") == ["id", "id"]


class TestNumbers:
    def test_decimal_int(self):
        (tok,) = tokenize("42")[:-1]
        assert tok.kind == "int"
        assert tok.value == 42

    def test_hex_int(self):
        (tok,) = tokenize("0x1F")[:-1]
        assert tok.value == 31

    def test_float_with_dot(self):
        (tok,) = tokenize("3.25")[:-1]
        assert tok.kind == "float"
        assert tok.value == 3.25

    def test_float_with_exponent(self):
        (tok,) = tokenize("1e3")[:-1]
        assert tok.kind == "float"
        assert tok.value == 1000.0

    def test_float_with_negative_exponent(self):
        (tok,) = tokenize("2.5e-2")[:-1]
        assert tok.value == 0.025

    def test_leading_dot_float(self):
        (tok,) = tokenize(".5")[:-1]
        assert tok.kind == "float"
        assert tok.value == 0.5

    def test_octal_int(self):
        (tok,) = tokenize("0777")[:-1]
        assert (tok.kind, tok.text, tok.value) == ("int", "0777", 0o777)

    def test_zero_and_double_zero(self):
        assert [t.value for t in tokenize("0 00")[:-1]] == [0, 0]

    @pytest.mark.parametrize("source,digit", [
        ("08", "8"), ("09", "9"), ("0778", "8"), ("x = 0129;", "9")])
    def test_non_octal_digit_after_leading_zero(self, source, digit):
        with pytest.raises(LexError,
                           match=f"invalid digit '{digit}' in octal"):
            tokenize(source)

    def test_leading_zero_float_is_decimal(self):
        (tok,) = tokenize("08.5")[:-1]
        assert (tok.kind, tok.value) == ("float", 8.5)
        (tok,) = tokenize("09e1")[:-1]
        assert (tok.kind, tok.value) == ("float", 90.0)

    @pytest.mark.parametrize("source", ["0x", "0X", "0x;", "a = 0xg;"])
    def test_hex_prefix_without_digits(self, source):
        with pytest.raises(LexError, match="has no digits") as info:
            tokenize(source)
        assert info.value.location.column == source.index("0") + 1

    def test_hex_digits_stop_at_non_hex(self):
        assert texts("0x1g") == ["0x1", "g"]

    def test_int_then_member_access_not_float(self):
        # `x.y` after ident: dot is an operator
        assert kinds("s.f") == ["id", "op", "id"]


class TestOperators:
    def test_arrow(self):
        assert texts("p->next") == ["p", "->", "next"]

    def test_parallel_sequence_delimiters(self):
        assert texts("{^ ^}") == ["{^", "^}"]

    def test_caret_alone_is_xor(self):
        assert texts("a ^ b") == ["a", "^", "b"]

    def test_shift_operators(self):
        assert texts("a << b >> c") == ["a", "<<", "b", ">>", "c"]

    def test_relational_operators(self):
        assert texts("a <= b >= c == d != e") == \
            ["a", "<=", "b", ">=", "c", "==", "d", "!=", "e"]

    def test_logical_operators(self):
        assert texts("a && b || !c") == ["a", "&&", "b", "||", "!", "c"]

    def test_compound_assignment(self):
        assert texts("a += 1") == ["a", "+=", "1"]

    def test_increment_decrement(self):
        assert texts("a++ --b") == ["a", "++", "--", "b"]

    def test_at_sign(self):
        assert texts("f(x) @ 3") == ["f", "(", "x", ")", "@", "3"]

    def test_maximal_munch_prefers_longest(self):
        # `<<=` is one token, not `<<` `=`.
        assert texts("a <<= 2") == ["a", "<<=", "2"]


class TestLiteralsAndComments:
    def test_char_literal(self):
        (tok,) = tokenize("'x'")[:-1]
        assert tok.kind == "char"
        assert tok.value == "x"

    def test_char_escape(self):
        (tok,) = tokenize(r"'\n'")[:-1]
        assert tok.value == "\n"

    def test_string_literal(self):
        (tok,) = tokenize('"hi there"')[:-1]
        assert tok.kind == "string"
        assert tok.value == "hi there"

    def test_string_with_escapes(self):
        (tok,) = tokenize(r'"a\tb"')[:-1]
        assert tok.value == "a\tb"

    def test_line_comment_skipped(self):
        assert kinds("a // comment\n b") == ["id", "id"]

    def test_block_comment_skipped(self):
        assert kinds("a /* x\n y */ b") == ["id", "id"]

    def test_preprocessor_line_skipped(self):
        assert kinds("#include <stdio.h>\nint") == ["keyword"]


class TestErrorsAndLocations:
    def test_unterminated_block_comment(self):
        with pytest.raises(LexError):
            tokenize("/* never ends")

    def test_unterminated_string(self):
        with pytest.raises(LexError):
            tokenize('"open')

    def test_unterminated_char(self):
        with pytest.raises(LexError):
            tokenize("'ab")

    def test_bad_escape(self):
        with pytest.raises(LexError):
            tokenize(r"'\q'")

    def test_unexpected_character(self):
        with pytest.raises(LexError):
            tokenize("a $ b")

    @pytest.mark.parametrize("source,message,column", [
        ("a /* never ends", "unterminated block comment", 3),
        ('b = "open', "unterminated string literal", 5),
        ('"line\nbreak"', "unterminated string literal", 1),
        ('"bad \\q"', "bad escape \\q", 1),
        ("c 'ab'", "unterminated character literal", 3),
        ("''", "empty character literal", 1),
        ("'", "empty character literal", 1),
        ("'\\q'", "bad escape \\q", 1),
        ("'\\'", "unterminated character literal", 1),
        ("a $ b", "unexpected character '$'", 3),
        ("a \f b", "unexpected character '\\x0c'", 3),
        ("x = \u00b2;", "unexpected character '\u00b2'", 5),
        ("x = 1\u00b2;", "unexpected character '\u00b2'", 6),
    ])
    def test_error_message_and_location(self, source, message, column):
        with pytest.raises(LexError) as info:
            tokenize(source, "f.ec")
        assert str(info.value) == f"f.ec:1:{column}: {message}"

    def test_line_and_column_tracking(self):
        tokens = tokenize("a\n  b")
        assert tokens[0].loc.line == 1
        assert tokens[1].loc.line == 2
        assert tokens[1].loc.column == 3

    def test_locations_after_multiline_trivia(self):
        source = "a /* x\n y */ b\n// c\n\r\n\t'\n'\n#d\n  e"
        assert [(t.text, t.loc.line, t.loc.column)
                for t in tokenize(source)] == [
            ("a", 1, 1), ("b", 2, 7), ("'\n'", 5, 2), ("e", 8, 3),
            ("", 8, 4)]

    def test_non_ascii_identifier(self):
        assert kinds("\u00e9t\u00e9 x\u00b2") == ["id", "id"]

    def test_token_helpers(self):
        token = tokenize("while")[0]
        assert token.is_keyword("while")
        assert not token.is_op("while")
