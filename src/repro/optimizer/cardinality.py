"""Cardinality and selectivity estimation.

The estimates only steer join ordering and provide the "optimizer estimate"
contrast for the adaptive-execution experiments; the adaptive framework
itself deliberately does not rely on them (paper Section III: "without
relying on the notoriously inaccurate cost estimates of query optimizers").
"""

from __future__ import annotations

from typing import Optional

from ..catalog import Catalog
from ..semantics.binder import TableBinding
from ..semantics.expressions import (
    BetweenExpr,
    ColumnExpr,
    ComparisonExpr,
    InListExpr,
    LikeExpr,
    LiteralExpr,
    LogicalExpr,
    NotExpr,
    ParameterExpr,
    TypedExpression,
)


def _constant_operand(expr: TypedExpression):
    """``(is_constant, value)`` for literal-like comparison operands.

    Bind parameters count as constants -- one plan must serve every binding
    -- with the auto-parameterization hint (the literal the parameter
    replaced, already encoded) standing in as the value.  A parameter
    without a hint yields ``value=None`` and falls back to the default
    selectivities.
    """
    if isinstance(expr, LiteralExpr):
        return True, expr.value
    if isinstance(expr, ParameterExpr):
        return True, expr.hint
    return False, None

#: Default selectivities for predicate shapes whose statistics are unknown.
DEFAULT_RANGE_SELECTIVITY = 0.3
DEFAULT_LIKE_SELECTIVITY = 0.25
DEFAULT_EQUALITY_SELECTIVITY = 0.1
DEFAULT_SELECTIVITY = 0.5


class CardinalityEstimator:
    """Estimates scan cardinalities and predicate selectivities."""

    def __init__(self, catalog: Catalog):
        self.catalog = catalog

    # ------------------------------------------------------------------ #
    def scan_cardinality(self, binding: TableBinding,
                         filters: list[TypedExpression]) -> float:
        rows = float(binding.table.num_rows)
        for predicate in filters:
            rows *= self.selectivity(binding, predicate)
        return max(rows, 1.0)

    # ------------------------------------------------------------------ #
    def selectivity(self, binding: TableBinding,
                    predicate: TypedExpression) -> float:
        if isinstance(predicate, ComparisonExpr):
            return self._comparison_selectivity(binding, predicate)
        if isinstance(predicate, BetweenExpr):
            return DEFAULT_RANGE_SELECTIVITY if not predicate.negated else \
                1.0 - DEFAULT_RANGE_SELECTIVITY
        if isinstance(predicate, InListExpr):
            column = predicate.expr
            base = DEFAULT_EQUALITY_SELECTIVITY
            if isinstance(column, ColumnExpr):
                stats = self._column_stats(binding, column)
                if stats is not None and stats.num_distinct > 0:
                    base = 1.0 / stats.num_distinct
            value = min(base * len(predicate.values), 1.0)
            return 1.0 - value if predicate.negated else value
        if isinstance(predicate, LikeExpr):
            value = DEFAULT_LIKE_SELECTIVITY
            return 1.0 - value if predicate.negated else value
        if isinstance(predicate, NotExpr):
            return 1.0 - self.selectivity(binding, predicate.operand)
        if isinstance(predicate, LogicalExpr):
            parts = [self.selectivity(binding, operand)
                     for operand in predicate.operands]
            if predicate.operator == "and":
                result = 1.0
                for part in parts:
                    result *= part
                return result
            # OR: inclusion/exclusion for two, cap otherwise
            result = 0.0
            for part in parts:
                result = result + part - result * part
            return min(result, 1.0)
        return DEFAULT_SELECTIVITY

    # ------------------------------------------------------------------ #
    def _comparison_selectivity(self, binding: TableBinding,
                                predicate: ComparisonExpr) -> float:
        column, value = None, None
        left_const, left_value = _constant_operand(predicate.left)
        right_const, right_value = _constant_operand(predicate.right)
        if isinstance(predicate.left, ColumnExpr) and right_const:
            column, value = predicate.left, right_value
        elif isinstance(predicate.right, ColumnExpr) and left_const:
            column, value = predicate.right, left_value
        if column is None:
            return DEFAULT_SELECTIVITY
        stats = self._column_stats(binding, column)
        if predicate.operator == "=":
            if stats is not None and stats.num_distinct > 0:
                return 1.0 / stats.num_distinct
            return DEFAULT_EQUALITY_SELECTIVITY
        if predicate.operator == "<>":
            if stats is not None and stats.num_distinct > 0:
                return 1.0 - 1.0 / stats.num_distinct
            return 1.0 - DEFAULT_EQUALITY_SELECTIVITY
        # Range predicate: interpolate against min/max when available.
        if stats is not None and isinstance(value, (int, float)) \
                and isinstance(stats.min_value, (int, float)) \
                and isinstance(stats.max_value, (int, float)) \
                and stats.max_value > stats.min_value:
            span = stats.max_value - stats.min_value
            fraction = (value - stats.min_value) / span
            fraction = min(max(fraction, 0.0), 1.0)
            if predicate.operator in ("<", "<="):
                return max(fraction, 0.01)
            return max(1.0 - fraction, 0.01)
        return DEFAULT_RANGE_SELECTIVITY

    def _column_stats(self, binding: TableBinding, column: ColumnExpr):
        if column.binding != binding.name:
            return None
        stats = self.catalog.statistics(binding.table_name)
        return stats.column(column.column)
