"""Expression evaluation for the baseline engines.

Two evaluators over the same typed expression tree:

* :func:`evaluate_expression` -- scalar, one tuple at a time (Volcano),
* :func:`evaluate_expression_vectorized` -- whole columns at a time with
  numpy (the column-store baseline).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..errors import ExecutionError
from ..semantics.expressions import (
    AggregateExpr,
    ArithmeticExpr,
    BetweenExpr,
    CaseExpr,
    CastExpr,
    ColumnExpr,
    ComparisonExpr,
    ExtractExpr,
    InListExpr,
    LikeExpr,
    LiteralExpr,
    LogicalExpr,
    NotExpr,
    ParameterExpr,
    TypedExpression,
    like_to_predicate,
)
from ..types import SQLType, days_to_date

_COMPARATORS = {
    "=": lambda a, b: a == b,
    "<>": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


# --------------------------------------------------------------------------- #
# scalar (tuple-at-a-time)
# --------------------------------------------------------------------------- #
def evaluate_expression(expr: TypedExpression, row: dict, params=()):
    """Evaluate an expression against ``row``: (binding, column) -> value.

    ``params`` is the (encoded) bind-parameter vector of the execution;
    :class:`ParameterExpr` nodes index into it.
    """
    if isinstance(expr, LiteralExpr):
        return expr.value
    if isinstance(expr, ParameterExpr):
        return params[expr.index]
    if isinstance(expr, ColumnExpr):
        value = row[(expr.binding, expr.column)]
        # ``None`` is the NULL padding of an unmatched LEFT JOIN row.
        if expr.storage_type is SQLType.DECIMAL and value is not None:
            return value * 0.01
        return value
    if isinstance(expr, ArithmeticExpr):
        left = evaluate_expression(expr.left, row, params)
        right = evaluate_expression(expr.right, row, params)
        return _scalar_arithmetic(expr.operator, left, right,
                                  expr.result_type)
    if isinstance(expr, ComparisonExpr):
        return _COMPARATORS[expr.operator](
            evaluate_expression(expr.left, row, params),
            evaluate_expression(expr.right, row, params))
    if isinstance(expr, LogicalExpr):
        values = (evaluate_expression(op, row, params) for op in expr.operands)
        if expr.operator == "and":
            return all(values)
        return any(values)
    if isinstance(expr, NotExpr):
        return not evaluate_expression(expr.operand, row, params)
    if isinstance(expr, BetweenExpr):
        value = evaluate_expression(expr.expr, row, params)
        result = (evaluate_expression(expr.low, row, params) <= value
                  <= evaluate_expression(expr.high, row, params))
        return not result if expr.negated else result
    if isinstance(expr, InListExpr):
        value = evaluate_expression(expr.expr, row, params)
        result = any(value == evaluate_expression(v, row, params)
                     for v in expr.values)
        return not result if expr.negated else result
    if isinstance(expr, LikeExpr):
        predicate = like_to_predicate(expr.pattern)
        result = predicate(evaluate_expression(expr.expr, row, params))
        return not result if expr.negated else result
    if isinstance(expr, CaseExpr):
        for condition, value in expr.branches:
            if evaluate_expression(condition, row, params):
                return evaluate_expression(value, row, params)
        if expr.default is not None:
            return evaluate_expression(expr.default, row, params)
        return 0
    if isinstance(expr, ExtractExpr):
        days = evaluate_expression(expr.operand, row, params)
        date = days_to_date(int(days))
        return {"year": date.year, "month": date.month,
                "day": date.day}[expr.field_name]
    if isinstance(expr, CastExpr):
        value = evaluate_expression(expr.operand, row, params)
        if expr.result_type is SQLType.FLOAT64:
            return float(value)
        if expr.result_type in (SQLType.INT64, SQLType.DATE):
            return int(value)
        return value
    if isinstance(expr, AggregateExpr):
        raise ExecutionError("aggregates cannot be evaluated per tuple")
    raise ExecutionError(
        f"cannot evaluate expression {type(expr).__name__}")


def _scalar_arithmetic(operator: str, left, right, result_type: SQLType):
    if operator == "+":
        return left + right
    if operator == "-":
        return left - right
    if operator == "*":
        return left * right
    if operator == "/":
        if right == 0:
            raise ExecutionError("division by zero")
        if result_type is SQLType.INT64 and isinstance(left, int) \
                and isinstance(right, int):
            quotient = abs(left) // abs(right)
            return -quotient if (left < 0) != (right < 0) else quotient
        return left / right
    if operator == "%":
        if right == 0:
            raise ExecutionError("modulo by zero")
        remainder = abs(left) % abs(right)
        return -remainder if left < 0 else remainder
    raise ExecutionError(f"unknown arithmetic operator {operator!r}")


# --------------------------------------------------------------------------- #
# vectorized (column-at-a-time)
# --------------------------------------------------------------------------- #
def evaluate_expression_vectorized(expr: TypedExpression,
                                   columns: dict, num_rows: int,
                                   params=()):
    """Evaluate an expression over whole columns.

    ``columns`` maps ``(binding, column)`` to numpy arrays of length
    ``num_rows``; the result is a numpy array (or a scalar broadcastable to
    one).  ``params`` is the (encoded) bind-parameter vector of the
    execution; :class:`ParameterExpr` nodes broadcast their slot's value.
    """
    if isinstance(expr, LiteralExpr):
        if isinstance(expr.value, str):
            return np.full(num_rows, expr.value, dtype=object)
        return np.full(num_rows, expr.value)
    if isinstance(expr, ParameterExpr):
        value = params[expr.index]
        if isinstance(value, str):
            return np.full(num_rows, value, dtype=object)
        return np.full(num_rows, value)
    if isinstance(expr, ColumnExpr):
        values = columns[(expr.binding, expr.column)]
        if expr.storage_type is SQLType.DECIMAL:
            if values.dtype == object:  # NULL-padded LEFT JOIN payload
                return np.asarray([None if value is None else value * 0.01
                                   for value in values], dtype=object)
            return values * 0.01
        return values
    if isinstance(expr, ArithmeticExpr):
        left = evaluate_expression_vectorized(expr.left, columns,
                                              num_rows, params)
        right = evaluate_expression_vectorized(expr.right, columns,
                                               num_rows, params)
        if expr.operator == "+":
            return left + right
        if expr.operator == "-":
            return left - right
        if expr.operator == "*":
            return left * right
        if expr.operator == "/":
            if expr.result_type is SQLType.INT64:
                return (np.sign(left) * np.sign(right)
                        * (np.abs(left) // np.abs(right))).astype(np.int64)
            return left / right
        if expr.operator == "%":
            return np.sign(left) * (np.abs(left) % np.abs(right))
    if isinstance(expr, ComparisonExpr):
        left = evaluate_expression_vectorized(expr.left, columns,
                                              num_rows, params)
        right = evaluate_expression_vectorized(expr.right, columns,
                                               num_rows, params)
        return _COMPARATORS[expr.operator](left, right)
    if isinstance(expr, LogicalExpr):
        result = None
        for operand in expr.operands:
            value = evaluate_expression_vectorized(operand, columns,
                                                   num_rows, params)
            if result is None:
                result = value
            elif expr.operator == "and":
                result = result & value
            else:
                result = result | value
        return result
    if isinstance(expr, NotExpr):
        return ~evaluate_expression_vectorized(expr.operand, columns,
                                               num_rows, params)
    if isinstance(expr, BetweenExpr):
        value = evaluate_expression_vectorized(expr.expr, columns,
                                               num_rows, params)
        low = evaluate_expression_vectorized(expr.low, columns, num_rows,
                                             params)
        high = evaluate_expression_vectorized(expr.high, columns,
                                              num_rows, params)
        result = (value >= low) & (value <= high)
        return ~result if expr.negated else result
    if isinstance(expr, InListExpr):
        value = evaluate_expression_vectorized(expr.expr, columns,
                                               num_rows, params)
        result = np.zeros(num_rows, dtype=bool)
        for candidate in expr.values:
            result |= (value == evaluate_expression_vectorized(
                candidate, columns, num_rows, params))
        return ~result if expr.negated else result
    if isinstance(expr, LikeExpr):
        predicate = like_to_predicate(expr.pattern)
        value = evaluate_expression_vectorized(expr.expr, columns,
                                               num_rows, params)
        result = np.fromiter((predicate(v) for v in value), dtype=bool,
                             count=len(value))
        return ~result if expr.negated else result
    if isinstance(expr, CaseExpr):
        result = None
        default = (evaluate_expression_vectorized(expr.default, columns,
                                                  num_rows, params)
                   if expr.default is not None else np.zeros(num_rows))
        result = default
        # Apply branches in reverse so earlier branches win.
        for condition, value in reversed(expr.branches):
            mask = evaluate_expression_vectorized(condition, columns,
                                                  num_rows, params)
            branch = evaluate_expression_vectorized(value, columns,
                                                    num_rows, params)
            result = np.where(mask, branch, result)
        return result
    if isinstance(expr, ExtractExpr):
        days = evaluate_expression_vectorized(expr.operand, columns,
                                              num_rows, params)
        dates = np.asarray(days, dtype="datetime64[D]")
        if expr.field_name == "year":
            return dates.astype("datetime64[Y]").astype(int) + 1970
        if expr.field_name == "month":
            return (dates.astype("datetime64[M]").astype(int) % 12) + 1
        months = dates.astype("datetime64[M]")
        return (dates - months).astype(int) + 1
    if isinstance(expr, CastExpr):
        value = evaluate_expression_vectorized(expr.operand, columns,
                                               num_rows, params)
        if expr.result_type is SQLType.FLOAT64:
            return np.asarray(value, dtype=np.float64)
        if expr.result_type in (SQLType.INT64, SQLType.DATE):
            return np.asarray(value, dtype=np.int64)
        return value
    if isinstance(expr, AggregateExpr):
        raise ExecutionError("aggregates are handled by the aggregation "
                             "operator, not the expression evaluator")
    raise ExecutionError(
        f"cannot vector-evaluate expression {type(expr).__name__}")
