"""Lexer for the EARTH-C dialect.

Produces a list of :class:`Token`.  EARTH-C extensions over the C subset:

* ``{^`` and ``^}`` delimit parallel statement sequences (the two
  characters must be adjacent, as in the paper's examples),
* ``@`` introduces a call placement annotation,
* the keywords ``forall``, ``shared`` and ``local``.

Scanning is one compiled master regex: each match skips the trivia
(whitespace, ``//`` and ``/* */`` comments, ``#`` lines) in front of a
token and captures the token in a named group.  Lines and columns come
from counting newlines between token starts.  Unterminated comments and
literals, and characters that start no token, fall into error groups
that raise :class:`~repro.errors.LexError` at the token's location.
"""

from __future__ import annotations

import re
from typing import List

from repro.errors import LexError, SourceLocation

KEYWORDS = frozenset({
    "int", "double", "float", "char", "void", "struct",
    "if", "else", "while", "do", "for", "forall",
    "switch", "case", "default",
    "return", "break", "continue", "goto",
    "sizeof", "shared", "local", "NULL",
})

# Multi-character operators, longest first so maximal munch works.
_MULTI_OPS = [
    "{^", "^}",
    "<<=", ">>=",
    "->", "++", "--", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
]

_SINGLE_OPS = "+-*/%<>=!&|^~?:;,.(){}[]@"

_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", "0": "\0",
            "\\": "\\", "'": "'", '"': '"'}

_ESCAPE = r"\\[ntr0\\'\"]"

_TOKEN_RE = re.compile(rf"""
    (?: [ \t\r\n]+ | //[^\n]* | \#[^\n]* | /\*.*?\*/ )*
    (?:
        (?P<number> 0[xX][0-9a-fA-F]*
                  | (?: \d+ (?: \.\d* )? | \.\d+ ) (?: [eE][+-]?\d+ )? )
      | (?P<id> [^\W\d]\w* )
      | (?P<char> ' (?: {_ESCAPE} | [^\\'] ) ' )
      | (?P<string> " (?: {_ESCAPE} | [^"\\\n] )* " )
      | (?P<unclosed> /\* | ['"] )
      | (?P<op> {"|".join(re.escape(op) for op in _MULTI_OPS)}
              | [{re.escape(_SINGLE_OPS)}] )
      | (?P<stray> . )
      | (?P<eof> \Z )
    )
""", re.VERBOSE | re.DOTALL)

_ESCAPE_RE = re.compile(_ESCAPE)


class Token:
    """A lexical token.

    ``kind`` is one of ``"id"``, ``"keyword"``, ``"int"``, ``"float"``,
    ``"char"``, ``"string"``, ``"op"`` or ``"eof"``; ``text`` is the
    source spelling and ``value`` the decoded literal value where
    applicable.
    """

    __slots__ = ("kind", "text", "value", "loc")

    def __init__(self, kind: str, text: str, loc: SourceLocation,
                 value: object = None):
        self.kind = kind
        self.text = text
        self.value = value
        self.loc = loc

    def is_op(self, text: str) -> bool:
        return self.kind == "op" and self.text == text

    def is_keyword(self, text: str) -> bool:
        return self.kind == "keyword" and self.text == text

    def __repr__(self) -> str:
        return f"Token({self.kind}, {self.text!r} @ {self.loc})"


def tokenize(source: str, filename: str = "<input>") -> List[Token]:
    """Tokenize ``source``, returning a list ending with an EOF token."""
    tokens: List[Token] = []
    append = tokens.append
    line = 1
    line_start = 0  # index of the first character of ``line``
    counted = 0  # newlines before this index are in ``line``
    for match in _TOKEN_RE.finditer(source):
        kind = match.lastgroup
        start = match.start(kind)
        newlines = source.count("\n", counted, start)
        if newlines:
            line += newlines
            line_start = source.rindex("\n", counted, start) + 1
        counted = start
        loc = SourceLocation(filename, line, start - line_start + 1)
        text = match.group(kind)
        if kind == "op":
            append(Token("op", text, loc))
        elif kind == "id":
            if text in KEYWORDS:
                append(Token("keyword", text, loc))
            elif text[0] == "_" or text[0].isalpha():
                append(Token("id", text, loc))
            else:
                # A numeric character such as ``²`` matches ``\w``.
                raise LexError(f"unexpected character {text[0]!r}", loc)
        elif kind == "number":
            append(_number(text, loc))
        elif kind == "char":
            value = _ESCAPES[text[2]] if text[1] == "\\" else text[1]
            append(Token("char", f"'{value}'", loc, value=value))
        elif kind == "string":
            value = _ESCAPE_RE.sub(lambda m: _ESCAPES[m.group()[1]],
                                   text[1:-1])
            append(Token("string", f'"{value}"', loc, value=value))
        elif kind == "eof":
            append(Token("eof", "", loc))
            break
        elif kind == "unclosed":
            raise LexError(_unclosed_message(source, start), loc)
        else:
            raise LexError(f"unexpected character {text!r}", loc)
    return tokens


def _number(text: str, loc: SourceLocation) -> Token:
    if text[:2] in ("0x", "0X"):
        if len(text) == 2:
            raise LexError(f"hex literal {text!r} has no digits", loc)
        return Token("int", text, loc, value=int(text, 16))
    if "." in text or "e" in text or "E" in text:
        return Token("float", text, loc, value=float(text))
    if text[0] == "0" and len(text) > 1:
        bad = text.lstrip("01234567")
        if bad:
            raise LexError(
                f"invalid digit {bad[0]!r} in octal literal {text!r}", loc)
        return Token("int", text, loc, value=int(text, 8))
    return Token("int", text, loc, value=int(text))


def _unclosed_message(source: str, start: int) -> str:
    """Why the comment or literal opening at ``start`` failed to lex."""
    opener = source[start]
    if opener == "/":
        return "unterminated block comment"
    if opener == "'":
        body = source[start + 1:start + 2]
        if body == "\\":
            escape = source[start + 2:start + 3]
            if escape not in _ESCAPES:
                return f"bad escape \\{escape}"
        elif body in ("", "'"):
            return "empty character literal"
        return "unterminated character literal"
    index = start + 1
    while True:
        ch = source[index:index + 1]
        if ch in ("", "\n"):
            return "unterminated string literal"
        if ch == "\\":
            escape = source[index + 1:index + 2]
            if escape not in _ESCAPES:
                return f"bad escape \\{escape}"
            index += 1
        index += 1
