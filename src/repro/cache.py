"""Plan/artifact caching for repeated queries.

Compilation latency dominates short queries (paper Table I / Fig. 1), so a
system serving repeated query traffic must not pay parsing, semantic
analysis, planning, code generation and tier compilation on every call.
:class:`PlanCache` is a small LRU cache mapping *normalized* SQL text to
:class:`repro.prepared.PreparedQuery` entries; :meth:`repro.engine.Database.execute`
consults it transparently and :meth:`repro.engine.Database.prepare_query`
exposes it explicitly.

Entries are invalidated through the catalog's per-table *plan* versions:
every DDL operation, and every ``insert`` that refreshes the table's
statistics (it grew by more than
:data:`repro.catalog.catalog.STATISTICS_DRIFT` since they were computed),
bumps the plan version of the affected table, and an entry referencing a
table whose plan version moved past the entry's build snapshot is dropped
on lookup (a dropped/recreated table would leave the generated code
pointing at orphaned column buffers; a refresh may change join order).  A
smaller ``insert`` keeps the entry: its code reads the appended rows on the
next execution.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional

from .errors import LexerError
from .sqlparser.lexer import TOKEN_PATTERN, TokenType, tokenize


#: Clauses whose literals auto-parameterization must leave alone: GROUP BY /
#: ORDER BY integers are positional references and LIMIT takes a syntactic
#: integer, so extracting them would change query semantics (or break the
#: parser).
_SKIP_CLAUSES = {"group", "order", "limit"}

#: Keywords whose following literal is syntactically required to stay a
#: literal: DATE '...' / INTERVAL '...' values and LIKE patterns.
_SKIP_AFTER_KEYWORDS = {"date", "interval", "like"}

#: Top-level clause keywords tracked while scanning for literals.
_CLAUSE_KEYWORDS = {"select", "from", "where", "group", "having", "order",
                    "limit"}

#: The value each extractable literal token binds as.
_LITERAL_VALUES = {TokenType.INTEGER: int, TokenType.FLOAT: float,
                   TokenType.STRING: str}


def auto_parameterize_sql(sql: str) -> Optional[tuple[str, list]]:
    """Extract literal constants into synthetic positional parameters.

    Returns ``(parameterized_sql, values)`` where every extracted literal is
    replaced by ``?`` (in lexical order), or ``None`` when the statement is
    not auto-parameterizable: it already contains explicit parameters, it
    contains no extractable literal, or it does not even lex (the caller
    then executes the original text so the real error surfaces).

    The transformation is purely lexical but deliberately conservative, so
    the rewritten statement is guaranteed to bind to the *same* plan shape:

    * literals in GROUP BY / ORDER BY / LIMIT clauses are kept (positional
      references and the parser's literal LIMIT),
    * literals right after ``DATE`` / ``INTERVAL`` / ``LIKE`` are kept (the
      parser and binder require those to be literals),
    * literals preceded by a unary minus are kept (``-3`` must keep folding
      to one negative literal).
    """
    try:
        tokens = tokenize(sql)
    except LexerError:
        return None

    values: list = []
    out: list[str] = []
    cursor = 0
    clause: Optional[str] = None
    depth = 0
    for index, token in enumerate(tokens):
        if token.type is TokenType.PARAMETER:
            return None  # already parameterized; never mix
        if token.type is TokenType.PUNCTUATION:
            if token.value == "(":
                depth += 1
            elif token.value == ")":
                depth = max(depth - 1, 0)
            continue
        # Clause keywords only count at the top level: the FROM inside
        # ``extract(year from d)`` must not end an ORDER BY clause.
        if token.type is TokenType.KEYWORD \
                and token.value in _CLAUSE_KEYWORDS and depth == 0:
            clause = token.value
            continue
        if token.type not in _LITERAL_VALUES or clause in _SKIP_CLAUSES:
            continue
        previous = tokens[index - 1]  # the END token before the first
        if previous.type is TokenType.KEYWORD \
                and previous.value in _SKIP_AFTER_KEYWORDS:
            continue
        if previous.type is TokenType.OPERATOR and previous.value == "-" \
                and _is_unary_minus(tokens, index - 1):
            continue
        values.append(_LITERAL_VALUES[token.type](token.value))
        out.append(sql[cursor:token.position])
        out.append("?")
        cursor = TOKEN_PATTERN.match(sql, token.position).end()

    if not values:
        return None
    out.append(sql[cursor:])
    return "".join(out), values


def _is_unary_minus(tokens, index: int) -> bool:
    """Whether the ``-`` at token ``index`` negates its operand.

    A minus is binary when something value-like precedes it (an identifier,
    a literal, a closing parenthesis or a value keyword); everything else --
    operators, commas, opening parens, clause keywords, and the END token
    ``tokens[-1]`` before a leading minus -- makes it unary.
    """
    before = tokens[index - 1]
    if before.type in (TokenType.IDENTIFIER, TokenType.INTEGER,
                       TokenType.FLOAT, TokenType.STRING,
                       TokenType.PARAMETER):
        return False
    if before.type is TokenType.PUNCTUATION and before.value == ")":
        return False
    if before.type is TokenType.KEYWORD and before.value in ("end", "null",
                                                             "true", "false"):
        return False
    return True


def normalize_sql(sql: str) -> str:
    """Normalize SQL text for use as a plan-cache key.

    One pass over the lexer's master pattern: whitespace and comments are
    skipped exactly as the lexer skips them, string literals and numbers
    are kept verbatim, everything else is lower-cased (identifiers and
    keywords are case-insensitive in this dialect), and the tokens are
    joined by single spaces.  Two statements therefore share a key exactly
    when the lexer gives them equal ``(type, value)`` sequences; no
    :class:`~repro.sqlparser.Token` is built.

    A statement the lexer rejects keys as its raw text behind a NUL, which
    starts no accepted statement's key: a cache hit must never mask the
    :class:`~repro.errors.LexerError` its parse raises.
    """
    parts: list[str] = []
    append = parts.append
    for found in TOKEN_PATTERN.finditer(sql):
        kind = found.lastgroup
        if kind == "word" or kind == "parameter":
            append(found[kind].lower())
        elif kind == "end":
            return " ".join(parts)
        elif kind == "error":
            return "\0" + sql
        else:
            append(found[kind])


def _hint_type_tag(hints: list) -> str:
    """Cache-key suffix encoding the natural types of auto-param literals."""
    codes = {int: "i", float: "f", str: "s"}
    return "#" + "".join(codes.get(type(hint), "x") for hint in hints)


def plan_cache_key(sql: str, parameter_hints: Optional[list] = None) -> str:
    """The plan-cache key of one statement.

    Normalized SQL, plus -- for an auto-parameterized statement -- the
    natural types of the extracted literals (``parameter_hints``).  The
    entry's parameter types were inferred from the first-seen constants,
    so ``a = 2`` and ``a = 2.5`` must land on *separate* entries: an
    INT64-typed plan bound with 2.5 would silently diverge from the
    literal form.  Same-typed constants (the common case) still collide
    on one entry.  The key is also the first component of the
    statement's result-cache keys, which is what keeps ``a = 2`` and
    ``a = 2.0`` on separate cached results.
    """
    key = normalize_sql(sql)
    if parameter_hints is not None:
        key += _hint_type_tag(parameter_hints)
    return key


@dataclass
class CacheStats:
    """Counters of one :class:`PlanCache` instance."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


class PlanCache:
    """A thread-safe LRU cache of prepared queries keyed by normalized SQL.

    Entries must provide an ``is_valid()`` predicate (duck-typed); an entry
    that reports itself invalid -- because a referenced table's plan
    version changed -- is dropped on lookup and counted as an invalidation.
    A capacity of 0 disables the cache entirely.
    """

    def __init__(self, capacity: int = 64):
        if capacity < 0:
            raise ValueError(f"cache capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        self._entries: OrderedDict[str, object] = OrderedDict()
        self._lock = threading.Lock()
        self.stats = CacheStats()

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries

    def keys(self) -> list[str]:
        with self._lock:
            return list(self._entries)

    # ------------------------------------------------------------------ #
    def get(self, key: str):
        """The cached entry for ``key``, or ``None`` on miss/invalidation."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.stats.misses += 1
                return None
            is_valid = getattr(entry, "is_valid", None)
            if is_valid is not None and not is_valid():
                del self._entries[key]
                self.stats.invalidations += 1
                self.stats.misses += 1
                return None
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return entry

    def peek(self, key: str):
        """The cached entry for ``key`` without touching stats or LRU order.

        Used by probe-only callers (the server's result-cache fast path):
        a peek must not inflate the hit/miss counters of the execution path
        and must not rejuvenate an entry nobody executed.  Invalid entries
        are left in place -- the next real :meth:`get` drops and counts
        them -- and reported as ``None``.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return None
            is_valid = getattr(entry, "is_valid", None)
            if is_valid is not None and not is_valid():
                return None
            return entry

    def put(self, key: str, entry) -> None:
        """Insert ``entry`` under ``key``, evicting the LRU tail if full."""
        if self.capacity == 0:
            return
        with self._lock:
            self._entries[key] = entry
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.stats.evictions += 1

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
