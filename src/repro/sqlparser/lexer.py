"""SQL lexer: the only module that knows SQL's lexical grammar.

Produces a flat token stream for the recursive-descent parser.  The dialect
is case-insensitive for keywords and identifiers; string literals use single
quotes with ``''`` as the escape for a quote character.

The grammar is one compiled master pattern, :data:`TOKEN_PATTERN`: a run of
whitespace and comments, then exactly one of the named token groups.  The
plan-cache key (:func:`repro.cache.normalize_sql`) and the EXPLAIN prefix
(:func:`next_word`) read the same pattern, so comments, quoting and
case folding have one definition.
"""

from __future__ import annotations

import enum
import re
from typing import NamedTuple, Optional

from ..errors import LexerError


class TokenType(enum.Enum):
    KEYWORD = "keyword"
    IDENTIFIER = "identifier"
    INTEGER = "integer"
    FLOAT = "float"
    STRING = "string"
    OPERATOR = "operator"
    PUNCTUATION = "punctuation"
    #: A bind-parameter placeholder: ``?`` (value ``""``) or ``:name``
    #: (value is the lower-cased name).
    PARAMETER = "parameter"
    END = "end"


#: Reserved words recognised by the parser (everything else is an identifier).
KEYWORDS = {
    "select", "distinct", "from", "where", "group", "by", "having", "order",
    "limit", "as", "and", "or", "not", "in", "between", "like", "is", "null",
    "join", "inner", "left", "outer", "right", "full", "on", "asc", "desc",
    "case", "when", "then",
    "else", "end", "date", "interval", "year", "month", "day", "exists",
    "union", "all", "cast", "substring", "extract", "for", "true", "false",
}

#: Whitespace and comments, then one token.  The group that matched names
#: the token kind (``match.lastgroup``):
#:
#: * ``word``: a keyword or identifier;
#: * ``operator``: longest first; a ``/`` that opens ``/*`` is not one;
#: * ``float`` / ``integer``: a digit run with at most one ``.``, which comes
#:   before any ``e<digits>`` exponent (``1.e3``, ``.5``; ``3e`` is the
#:   integer ``3`` then the word ``e``);
#: * ``punctuation`` (after ``float``, which owns the ``.`` of ``.5``);
#: * ``string``: single-quoted, ``''`` escapes a quote; the closing quote is
#:   never followed by another one, so ``'a''`` is unterminated;
#: * ``parameter``: ``?`` or ``:name``;
#: * ``end`` at the end of the text, and ``error`` -- empty -- where nothing
#:   else matches: an unterminated string or block comment, or an
#:   unexpected character.
#:
#: The most frequent kinds come first: every failed alternative costs time.
TOKEN_PATTERN = re.compile(r"""
    \s*(?:(?:--[^\n]*|/\*.*?\*/)\s*)*
    (?:
        (?P<word>[^\W\d]\w*)
      | (?P<operator><>|!=|>=|<=|\|\||[=<>+\-*%]|/(?!\*))
      | (?P<float>(?:\d+\.\d*|\.\d+)(?:[eE]\d+)*|\d+(?:[eE]\d+)+)
      | (?P<integer>\d+)
      | (?P<punctuation>[(),.;])
      | (?P<string>'[^']*(?:''[^']*)*'(?!'))
      | (?P<parameter>\?|:[^\W\d]\w*)
      | (?P<end>\Z)
      | (?P<error>)
    )""", re.VERBOSE | re.DOTALL)


class Token(NamedTuple):
    type: TokenType
    value: str
    position: int
    line: int
    column: int

    def matches_keyword(self, keyword: str) -> bool:
        return self.type is TokenType.KEYWORD and self.value == keyword


#: Every group of :data:`TOKEN_PATTERN` but ``word`` and ``error`` is named
#: after its token type's value.
_KIND_TYPES = {token_type.value: token_type for token_type in TokenType}

#: Builds a :class:`Token` from its field tuple without the Python-level
#: ``Token.__new__`` frame; token construction is most of ``tokenize``.
_new_token = tuple.__new__


def tokenize(text: str) -> list[Token]:
    """Tokenize SQL text into a list ending with an END token.

    Each match of :data:`TOKEN_PATTERN` starts where the previous one
    ended (the empty ``error`` group matches where nothing else does), so
    ``finditer`` walks the text token by token up to the ``end`` match.
    ``line`` and ``column`` are 1-based; lines are counted from the
    ``\\n`` characters between one token's start and the next one's.
    """
    keyword, identifier = TokenType.KEYWORD, TokenType.IDENTIFIER
    tokens: list[Token] = []
    append = tokens.append
    position = 0  # start of the previous token
    line = 1
    line_start = 0  # offset of the first character of the current line
    for found in TOKEN_PATTERN.finditer(text):
        kind = found.lastgroup
        value = found[kind]
        start = found.end() - len(value)
        newlines = text.count("\n", position, start)
        if newlines:
            line += newlines
            line_start = text.rindex("\n", position, start) + 1
        position = start
        if (kind == "word" or kind == "parameter") and not value.isascii():
            first = value.lstrip(":")[0]  # [^\W\d] admits ½, ², Ⅻ too
            if not (first.isalpha() or first == "_"):
                kind = "error"
        if kind == "word":
            value = value.lower()
            token_type = keyword if value in KEYWORDS else identifier
        elif kind == "error":
            if text.startswith("/*", start):
                message = "unterminated block comment"
            elif text.startswith("'", start):
                message = "unterminated string literal"
            else:
                message = f"unexpected character {text[start]!r}"
            raise LexerError(message, start, line, start - line_start + 1)
        else:
            token_type = _KIND_TYPES[kind]
            if kind == "string":
                value = value[1:-1].replace("''", "'")
            elif kind == "parameter":
                value = value[1:].lower()
        append(_new_token(Token, (token_type, value, start, line,
                                  start - line_start + 1)))
        if kind == "end":
            return tokens


def next_word(text: str, position: int = 0) -> tuple[Optional[str], int, int]:
    """``(word, start, end)`` of the first token at or after ``position``.

    ``word`` is the lower-cased keyword or identifier, or ``None`` for any
    other token, the end of the text or a lexical error.  Lexes that one
    token only, so a caller classifies a statement by its first words
    without lexing the rest.
    """
    found = TOKEN_PATTERN.match(text, position)
    kind = found.lastgroup
    word = found[kind]
    end = found.end()
    return word.lower() if kind == "word" else None, end - len(word), end
