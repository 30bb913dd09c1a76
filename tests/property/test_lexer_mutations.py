"""Property: character-level mutations of the Olden sources either
raise :class:`LexError` or lex into tokens that sit, in order and
without overlap, at their reported line and column, with only
whitespace, comments and ``#`` lines between them.

Any other exception escaping :func:`tokenize` fails the property.
"""

from hypothesis import given
from hypothesis import strategies as st

from repro.errors import LexError
from repro.frontend.lexer import tokenize
from repro.olden.loader import catalog

SOURCES = {spec.name: spec.source() for spec in catalog()}

ESCAPES = {"n": "\n", "t": "\t", "r": "\r", "0": "\0",
           "\\": "\\", "'": "'", '"': '"'}

#: Characters that steer the scanner into its corner cases, plus any
#: other character at all.
CHARS = st.one_of(
    st.sampled_from(list(" \t\n\r\f'\"\\/*#.0123456789xXeE+-_{}^@;$"
                         "²½٣é")),
    st.characters())

MUTATIONS = st.lists(
    st.tuples(st.integers(0, 10**6),
              st.sampled_from(("insert", "delete", "replace")), CHARS),
    min_size=1, max_size=6)


def mutate(source, mutations):
    for position, action, char in mutations:
        at = position % (len(source) + 1)
        if action == "insert":
            source = source[:at] + char + source[at:]
        elif action == "delete":
            source = source[:at] + source[at + 1:]
        else:
            source = source[:at] + char + source[at + 1:]
    return source


def literal_extent(source, start):
    """End index and decoded value of the char/string literal opening
    at ``start``."""
    quote = source[start]
    index, value = start + 1, []
    while source[index] != quote:
        if source[index] == "\\":
            index += 1
            value.append(ESCAPES[source[index]])
        else:
            value.append(source[index])
        index += 1
    return index + 1, "".join(value)


def only_trivia(gap):
    while gap:
        stripped = gap.lstrip(" \t\r\n")
        if stripped != gap:
            gap = stripped
        elif gap.startswith(("//", "#")):
            newline = gap.find("\n")
            gap = "" if newline < 0 else gap[newline:]
        elif gap.startswith("/*") and "*/" in gap[2:]:
            gap = gap[gap.index("*/", 2) + 2:]
        else:
            return False
    return True


@given(st.sampled_from(sorted(SOURCES)), MUTATIONS)
def test_tokens_sit_at_their_locations(name, mutations):
    source = mutate(SOURCES[name], mutations)
    try:
        tokens = tokenize(source, "m.ec")
    except LexError:
        return
    line_starts = [0] + [i + 1 for i, ch in enumerate(source)
                         if ch == "\n"]
    end = 0
    for token in tokens:
        start = line_starts[token.loc.line - 1] + token.loc.column - 1
        assert start >= end, token
        assert only_trivia(source[end:start]), token
        if token.kind in ("char", "string"):
            end, value = literal_extent(source, start)
            assert value == token.value, token
        else:
            end = start + len(token.text)
            assert source[start:end] == token.text, token
    assert tokens[-1].kind == "eof" and end == len(source)
