"""Property tests of the lexer and the plan-cache key built from it.

Statements are generated as token lists over the lexer's whole alphabet --
mixed-case words, integers and floats, strings holding ``''`` and
newlines, ``?`` and ``:Name`` parameters, every operator and punctuation
mark -- and rendered with random whitespace and comments between tokens.
Two properties hold:

* the ``(type, value)`` sequence ``tokenize`` returns is the generated
  one, whatever the separators and the letter case of words and
  parameter names;
* two statements get the same plan-cache key exactly when their
  ``(type, value)`` sequences are equal.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import normalize_sql
from repro.sqlparser.lexer import KEYWORDS, TokenType, tokenize

_SETTINGS = settings(max_examples=300, deadline=None)

_WORDS = ["select", "from", "where", "and", "end", "a", "t", "foo_1",
          "x9", "_tmp", "e", "explain", "analyze", "l_partkey"]
_OPERATORS = ["<>", "!=", ">=", "<=", "||", "=", "<", ">", "+", "-", "*",
              "/", "%"]
_PUNCTUATION = ["(", ")", ",", ".", ";"]
#: Punctuation that never merges with a neighbour, so no separator is
#: needed next to it.
_STANDALONE = {"(", ")", ",", ";"}


def _recase(draw, text: str) -> str:
    flips = draw(st.lists(st.booleans(), min_size=len(text),
                          max_size=len(text)))
    return "".join(ch.upper() if flip else ch
                   for ch, flip in zip(text, flips))


@st.composite
def _token(draw):
    """``(type, value, spellings)``: every spelling lexes to one token
    of that type and value."""
    kind = draw(st.sampled_from(["word", "integer", "float", "string",
                                 "parameter", "operator", "punctuation"]))
    if kind == "word":
        word = draw(st.sampled_from(_WORDS))
        kind = TokenType.KEYWORD if word in KEYWORDS \
            else TokenType.IDENTIFIER
        return kind, word, [_recase(draw, word) for _ in range(2)]
    if kind == "integer":
        text = str(draw(st.integers(0, 10 ** 12)))
        return TokenType.INTEGER, text, [text]
    if kind == "float":
        mantissa = draw(st.sampled_from(["1.", "0.5", "12.007", ".5",
                                         "7"]))
        exponents = ["e3", "E10", "e10", "e2e1"]
        if mantissa != "7":
            exponents.append("")
        text = mantissa + draw(st.sampled_from(exponents))
        return TokenType.FLOAT, text, [text]
    if kind == "string":
        value = draw(st.text(alphabet="ab'\n -/*", max_size=6))
        spelling = "'" + value.replace("'", "''") + "'"
        return TokenType.STRING, value, [spelling]
    if kind == "parameter":
        if draw(st.booleans()):
            return TokenType.PARAMETER, "", ["?"]
        name = draw(st.sampled_from(["lo", "hi_2", "name"]))
        return TokenType.PARAMETER, name, [":" + _recase(draw, name)
                                           for _ in range(2)]
    if kind == "operator":
        text = draw(st.sampled_from(_OPERATORS))
        return TokenType.OPERATOR, text, [text]
    text = draw(st.sampled_from(_PUNCTUATION))
    return TokenType.PUNCTUATION, text, [text]


_separator = st.lists(st.one_of(
    st.text(alphabet=" \t\r\n", min_size=1, max_size=3),
    st.text(alphabet="ab -'", max_size=5).map(lambda s: f"--{s}\n"),
    st.text(alphabet="ab\n -'", max_size=5).map(lambda s: f"/*{s}*/"),
), min_size=1, max_size=3).map(lambda parts: " " + "".join(parts))


def _render(draw, tokens) -> str:
    """Spell ``tokens`` with random separators (a whitespace character
    first, so no comment glues onto an operator)."""
    out = []
    previous = None
    for _, _, spellings in tokens:
        spelling = draw(st.sampled_from(spellings))
        if previous is not None:
            optional = previous in _STANDALONE or spelling in _STANDALONE
            if not optional or draw(st.booleans()):
                out.append(draw(_separator))
        out.append(spelling)
        previous = spelling
    if draw(st.booleans()):
        out.append(draw(_separator))
    return "".join(out)


def _sequence(sql: str) -> list:
    return [(token.type, token.value) for token in tokenize(sql)]


_tokens = st.lists(_token(), max_size=12)


@_SETTINGS
@given(_tokens, st.data())
def test_separators_and_case_do_not_change_tokens(tokens, data):
    expected = [(kind, value) for kind, value, _ in tokens]
    expected.append((TokenType.END, ""))
    assert _sequence(_render(data.draw, tokens)) == expected


@_SETTINGS
@given(_tokens, st.data())
def test_equal_keys_exactly_for_equal_token_sequences(tokens, data):
    first = _render(data.draw, tokens)
    other = list(tokens)
    if other and data.draw(st.booleans()):
        # Replace one token by a random one, or swap the case of all its
        # letters (which changes a number's or a string's value, not a
        # word's); either may well leave the sequence equal.  Only the
        # spellings are used: the lexer decides what is equal.
        index = data.draw(st.integers(0, len(other) - 1))
        if data.draw(st.booleans()):
            other[index] = data.draw(_token())
        else:
            kind, value, spellings = other[index]
            other[index] = (kind, value, [spellings[0].swapcase()])
    second = _render(data.draw, other)
    same_tokens = _sequence(first) == _sequence(second)
    assert (normalize_sql(first) == normalize_sql(second)) == same_tokens
