"""Typed expression tree produced by semantic analysis.

These expressions are the common currency between the optimizer, the code
generator and the two baseline engines: every engine evaluates exactly the
same tree, which guarantees that result comparisons across engines test the
execution strategy rather than subtle semantic differences (the paper's
argument for a single engine with multiple execution modes).

DECIMAL columns are promoted to FLOAT64 at the expression level: a decimal
column read produces the scaled integer which is immediately converted to its
numeric value.  This keeps the storage compact (scaled int64) while making
all arithmetic uniform.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

from ..errors import BindError
from ..types import SQLType

#: Aggregate function names understood by the binder.
AGGREGATE_FUNCTIONS = {"sum", "count", "avg", "min", "max"}


class TypedExpression:
    """Base class: every node knows its result SQL type."""

    result_type: SQLType

    # Structural identity -------------------------------------------------
    def key(self) -> tuple:
        """A hashable structural key (used for group-by / select matching)."""
        raise NotImplementedError

    def children(self) -> list["TypedExpression"]:
        return []

    def walk(self) -> Iterator["TypedExpression"]:
        yield self
        for child in self.children():
            yield from child.walk()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.key()}>"


@dataclass
class ColumnExpr(TypedExpression):
    """A reference to a column of a bound table (``binding.column``)."""

    binding: str
    column: str
    result_type: SQLType
    #: Original storage type (DECIMAL columns surface as FLOAT64).
    storage_type: SQLType = None  # type: ignore[assignment]

    def __post_init__(self):
        if self.storage_type is None:
            self.storage_type = self.result_type

    def key(self) -> tuple:
        return ("col", self.binding, self.column)


@dataclass
class LiteralExpr(TypedExpression):
    """A constant."""

    value: object
    result_type: SQLType

    def key(self) -> tuple:
        return ("lit", self.result_type.value, self.value)


@dataclass
class ParameterExpr(TypedExpression):
    """A bind parameter (``?`` or ``:name``), evaluated from the params vector.

    ``result_type`` is inferred by the binder from the parameter's context
    (``None`` only while binding is still in progress).  ``hint`` optionally
    carries the *encoded* literal value the parameter replaced during
    auto-parameterization; it is used exclusively by cardinality estimation,
    never by execution, and is deliberately not part of the structural key so
    one cached plan serves every binding of the same query shape.
    """

    index: int
    name: Optional[str] = None
    result_type: Optional[SQLType] = None  # type: ignore[assignment]
    hint: object = None

    def key(self) -> tuple:
        return ("param", self.index)


@dataclass
class ArithmeticExpr(TypedExpression):
    """``left <op> right`` with op in ``+ - * / %``."""

    operator: str
    left: TypedExpression
    right: TypedExpression
    result_type: SQLType

    def key(self) -> tuple:
        return ("arith", self.operator, self.left.key(), self.right.key())

    def children(self):
        return [self.left, self.right]


@dataclass
class ComparisonExpr(TypedExpression):
    """``left <op> right`` with op in ``= <> < <= > >=``; result BOOL."""

    operator: str
    left: TypedExpression
    right: TypedExpression
    result_type: SQLType = SQLType.BOOL

    def key(self) -> tuple:
        return ("cmp", self.operator, self.left.key(), self.right.key())

    def children(self):
        return [self.left, self.right]


@dataclass
class LogicalExpr(TypedExpression):
    """N-ary AND / OR."""

    operator: str  # "and" | "or"
    operands: list[TypedExpression]
    result_type: SQLType = SQLType.BOOL

    def key(self) -> tuple:
        return ("logic", self.operator,
                tuple(op.key() for op in self.operands))

    def children(self):
        return list(self.operands)


@dataclass
class NotExpr(TypedExpression):
    """Logical negation."""

    operand: TypedExpression
    result_type: SQLType = SQLType.BOOL

    def key(self) -> tuple:
        return ("not", self.operand.key())

    def children(self):
        return [self.operand]


@dataclass
class BetweenExpr(TypedExpression):
    """``expr BETWEEN low AND high`` (inclusive; bounds are literals or exprs)."""

    expr: TypedExpression
    low: TypedExpression
    high: TypedExpression
    negated: bool = False
    result_type: SQLType = SQLType.BOOL

    def key(self) -> tuple:
        return ("between", self.negated, self.expr.key(), self.low.key(),
                self.high.key())

    def children(self):
        return [self.expr, self.low, self.high]


@dataclass
class InListExpr(TypedExpression):
    """``expr IN (literal, ...)``."""

    expr: TypedExpression
    values: list[TypedExpression]
    negated: bool = False
    result_type: SQLType = SQLType.BOOL

    def key(self) -> tuple:
        return ("in", self.negated, self.expr.key(),
                tuple(v.key() for v in self.values))

    def children(self):
        return [self.expr] + list(self.values)


@dataclass
class LikeExpr(TypedExpression):
    """``expr LIKE pattern`` with %/_ wildcards."""

    expr: TypedExpression
    pattern: str
    negated: bool = False
    result_type: SQLType = SQLType.BOOL

    def key(self) -> tuple:
        return ("like", self.negated, self.expr.key(), self.pattern)

    def children(self):
        return [self.expr]


@dataclass
class CaseExpr(TypedExpression):
    """``CASE WHEN ... THEN ... ELSE ... END``."""

    branches: list[tuple[TypedExpression, TypedExpression]]
    default: Optional[TypedExpression]
    result_type: SQLType

    def key(self) -> tuple:
        return ("case",
                tuple((c.key(), v.key()) for c, v in self.branches),
                self.default.key() if self.default is not None else None)

    def children(self):
        out: list[TypedExpression] = []
        for condition, value in self.branches:
            out.extend((condition, value))
        if self.default is not None:
            out.append(self.default)
        return out


@dataclass
class ExtractExpr(TypedExpression):
    """``EXTRACT(YEAR|MONTH|DAY FROM date_expr)`` -> INT64."""

    field_name: str
    operand: TypedExpression
    result_type: SQLType = SQLType.INT64

    def key(self) -> tuple:
        return ("extract", self.field_name, self.operand.key())

    def children(self):
        return [self.operand]


@dataclass
class CastExpr(TypedExpression):
    """Explicit cast between numeric types."""

    operand: TypedExpression
    result_type: SQLType

    def key(self) -> tuple:
        return ("cast", self.result_type.value, self.operand.key())

    def children(self):
        return [self.operand]


@dataclass
class AggregateExpr(TypedExpression):
    """An aggregate call.  ``argument`` is None for ``count(*)``."""

    function: str
    argument: Optional[TypedExpression]
    distinct: bool
    result_type: SQLType

    def key(self) -> tuple:
        return ("agg", self.function, self.distinct,
                self.argument.key() if self.argument is not None else None)

    def children(self):
        return [self.argument] if self.argument is not None else []


# --------------------------------------------------------------------------- #
# helpers
# --------------------------------------------------------------------------- #
def collect_aggregates(expr: TypedExpression) -> list[AggregateExpr]:
    """All aggregate nodes inside ``expr`` (in walk order, with duplicates)."""
    return [node for node in expr.walk() if isinstance(node, AggregateExpr)]


def collect_columns(expr: TypedExpression) -> list[ColumnExpr]:
    """All column references inside ``expr``."""
    return [node for node in expr.walk() if isinstance(node, ColumnExpr)]


def referenced_bindings(expr: TypedExpression) -> set[str]:
    """Names of all table bindings an expression touches."""
    return {column.binding for column in collect_columns(expr)}


def expressions_equal(a: TypedExpression, b: TypedExpression) -> bool:
    """Structural equality (used to match select items to group-by keys)."""
    return a.key() == b.key()


def split_conjuncts(expr: Optional[TypedExpression]) -> list[TypedExpression]:
    """Flatten a predicate into its top-level AND conjuncts."""
    if expr is None:
        return []
    if isinstance(expr, LogicalExpr) and expr.operator == "and":
        out: list[TypedExpression] = []
        for operand in expr.operands:
            out.extend(split_conjuncts(operand))
        return out
    return [expr]


def like_to_predicate(pattern: str):
    """Compile a SQL LIKE pattern into a Python predicate over strings.

    Fast paths for the common prefix / suffix / containment patterns keep the
    per-tuple cost low; anything else falls back to a compiled regex.
    """
    import re

    has_underscore = "_" in pattern
    if not has_underscore:
        body = pattern.strip("%")
        if "%" not in body:
            leading = pattern.startswith("%")
            trailing = pattern.endswith("%")
            if leading and trailing:
                return lambda s, _needle=body: _needle in s
            if trailing and not leading:
                return lambda s, _needle=body: s.startswith(_needle)
            if leading and not trailing:
                return lambda s, _needle=body: s.endswith(_needle)
            return lambda s, _needle=body: s == _needle
    regex = re.compile(
        "^" + re.escape(pattern).replace("%", ".*").replace("_", ".") + "$",
        re.DOTALL)
    return lambda s, _regex=regex: _regex.match(s) is not None
