"""Property tests for the compiled tiers' int64 arithmetic at the limits
and their per-chunk morsel loops.

The compiled tiers test the int64 range inline and call ``_wrap64`` only
when a wrapping ``add``/``sub``/``mul`` left it, and fold a checked
operation's range test into the ``if`` that leads to the overflow block.
Hypothesis draws operands at and around the int64 limits; the bytecode VM
is the reference for both the values and the overflow error, including
for checked arithmetic inside a hash-probe loop.

A morsel loop over a chunked column runs per chunk, reading each column
as one subscript of a chunk list bound once per chunk.  Hypothesis draws
the chunk size, the row count and the ``[begin, end)`` range across chunk
boundaries; the IR interpreter is the reference.
"""

from __future__ import annotations

import re

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.backend import compile_optimized, compile_unoptimized
from repro.catalog.schema import Column, TableSchema
from repro.catalog.table import Table
from repro.codegen.runtime import QueryRuntime
from repro.errors import ExecutionError
from repro.ir import (ExternFunction, Function, InlineTemplate, IRBuilder,
                      UnreachableInst)
from repro.ir.types import i64, ptr, void
from repro.types import SQLType
from repro.vm import IRInterpreter, VirtualMachine, translate_function

_SETTINGS = settings(max_examples=60, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])

INT64_MIN, INT64_MAX = -(1 << 63), (1 << 63) - 1
#: sqrt(2**63) rounded both ways: the products around it cross the limit.
_ROOT = 3037000499

int64_edges = st.one_of(
    st.sampled_from([INT64_MIN, INT64_MIN + 1, -_ROOT - 1, -_ROOT, -1, 0, 1,
                     _ROOT, _ROOT + 1, INT64_MAX - 1, INT64_MAX]),
    st.integers(min_value=INT64_MIN, max_value=INT64_MIN + 1000),
    st.integers(min_value=INT64_MAX - 1000, max_value=INT64_MAX),
    st.integers(min_value=INT64_MIN, max_value=INT64_MAX))

ops = st.sampled_from(["add", "sub", "mul"])


def make_unchecked(op):
    """``f(a, b) = a <op> b`` with wrapping int64 semantics."""
    function = Function(f"wrap_{op}", [i64, i64], ["a", "b"], i64)
    builder = IRBuilder(function)
    builder.ret(builder.binary(op, *function.args))
    return function


def make_checked_probe(op, lhs, rhs, out):
    """Scan rows ``0..n``; probe ``{row: [(rhs[row],)]}`` through inline
    externs; emit the *checked* ``lhs[row] <op> match`` for every match."""
    table = {row: [(value,)] for row, value in enumerate(rhs)}
    empty: list = []
    probe = ExternFunction(
        "rt_probe_0", [i64], ptr, lambda key: table.get(key, empty),
        has_side_effects=False,
        inline=InlineTemplate("{T}.get({0}, {E})", T=table, E=empty))
    count = ExternFunction("rt_match_count", [ptr], i64, len,
                           has_side_effects=False,
                           inline=InlineTemplate("len({0})"))
    get = ExternFunction("rt_match_get_0_0", [ptr, i64], i64,
                         lambda matches, row: matches[row][0],
                         has_side_effects=False,
                         inline=InlineTemplate("{0}[{1}][0]"))
    sink = ExternFunction("collect", [i64], void, out.append)

    function = Function("worker0", [ptr, i64, i64],
                        ["state", "begin", "end"], void)
    builder = IRBuilder(function)
    error = function.add_block("overflow.error")
    IRBuilder(function, error).call(
        ExternFunction("rt_raise_overflow", [], void,
                       QueryRuntime.raise_overflow), [])
    error.append(UnreachableInst())
    row, _, _, close_scan = builder.count_loop(function.args[1],
                                               function.args[2], "scan")
    value = builder.load(i64, builder.gep(builder.const_ptr((lhs, 0)), row))
    matches = builder.call(probe, [row])
    match, _, _, close_probe = builder.count_loop(
        builder.const_i64(0), builder.call(count, [matches]), "probe")
    result = builder.checked_arith(op, value,
                                   builder.call(get, [matches, match]), error)
    builder.call(sink, [result])
    close_probe()
    close_scan()
    builder.ret()
    return function


def outcome(run, out):
    """``(emitted values, raised an overflow error?)`` of one run."""
    out.clear()
    try:
        run()
        raised = False
    except ExecutionError as exc:
        assert "overflow" in str(exc)
        raised = True
    return list(out), raised


@_SETTINGS
@given(op=ops, a=int64_edges, b=int64_edges)
def test_inline_wrap_equals_wrap64(op, a, b):
    function = make_unchecked(op)
    bytecode, _ = translate_function(function)
    reference = VirtualMachine().execute(bytecode, [a, b])
    optimized = compile_optimized(function)
    wrap64 = optimized.entry.__globals__["_wrap64"]
    exact = {"add": a + b, "sub": a - b, "mul": a * b}[op]
    assert reference == wrap64(exact)
    assert optimized(a, b) == reference
    assert compile_unoptimized(function)(a, b) == reference


@_SETTINGS
@given(op=ops, pairs=st.lists(st.tuples(int64_edges, int64_edges),
                              min_size=1, max_size=4))
def test_checked_arithmetic_in_a_probe_loop_matches_bytecode(op, pairs):
    out: list = []
    lhs = [a for a, _ in pairs]
    function = make_checked_probe(op, lhs, [b for _, b in pairs], out)
    args = [None, 0, len(pairs)]
    bytecode, _ = translate_function(function)
    reference = outcome(lambda: VirtualMachine().execute(bytecode, args), out)
    optimized = compile_optimized(function)
    assert outcome(lambda: optimized(*args), out) == reference
    unoptimized = compile_unoptimized(function)
    assert outcome(lambda: unoptimized(*args), out) == reference
    exact = [{"add": a + b, "sub": a - b, "mul": a * b}[op] for a, b in pairs]
    overflow = next((row for row, value in enumerate(exact)
                     if not INT64_MIN <= value <= INT64_MAX), None)
    assert reference == (exact[:overflow], overflow is not None)


# --------------------------------------------------------------------------- #
# per-chunk morsel loops
# --------------------------------------------------------------------------- #
def chunked_columns(values, chunk_rows):
    """Columns ``a = values`` and ``b = 3a - 7`` of one chunked table."""
    table = Table(TableSchema("t", [Column("a", SQLType.INT64),
                                    Column("b", SQLType.INT64)]),
                  chunk_rows=chunk_rows)
    table.insert_rows([(value, 3 * value - 7) for value in values],
                      encode=False)
    return table.column_data("a"), table.column_data("b")


def make_scan(kind, a, b, out):
    """A scan worker over ``[begin, end)`` of kind ``"filter_sum"`` (sum
    ``a * b`` over rows with ``a > 10``), ``"row_index"`` (emit ``(row,
    a)``) or ``"early_exit"`` (emit ``a`` until a row has ``a == 0``)."""
    function = Function(f"worker_{kind}", [ptr, i64, i64],
                        ["state", "begin", "end"], void)
    builder = IRBuilder(function)
    row, _, exit_block, close = builder.count_loop(function.args[1],
                                                   function.args[2], "scan")
    x = builder.load(i64, builder.gep(builder.const_ptr((a, 0)), row))
    if kind == "filter_sum":
        # The running sum, one entry per kept row.
        add = ExternFunction(
            "rt_sum", [i64], void,
            lambda v: out.append((out[-1] if out else 0) + v))
        keep, latch = builder.new_block("keep"), builder.new_block("latch")
        builder.condbr(builder.cmp("gt", x, builder.const_i64(10)), keep,
                       latch)
        builder.set_block(keep)
        y = builder.load(i64, builder.gep(builder.const_ptr((b, 0)), row))
        builder.call(add, [builder.mul(x, y)])
        builder.br(latch)
        builder.set_block(latch)
    elif kind == "row_index":
        emit = ExternFunction("collect", [i64, i64], void,
                              lambda r, v: out.append((r, v)))
        builder.call(emit, [row, x])
    else:
        go_on = builder.new_block("go_on")
        builder.condbr(builder.cmp("eq", x, builder.const_i64(0)),
                       exit_block, go_on)
        builder.set_block(go_on)
        builder.call(ExternFunction("collect", [i64], void, out.append), [x])
    close()
    builder.ret()
    return function


_SHAPES = {"filter_sum": r"for _j\d+ in range\(",
           "row_index": r"v\d+ = _b\d+ \+ _j\d+",
           "early_exit": r"for (v\d+) in range\(\1, v\d+\):"}


@st.composite
def chunked_ranges(draw):
    """``(chunk_rows, values, begin, end)`` with ``0 <= begin, end <= n``."""
    chunk_rows = draw(st.sampled_from([1, 2, 4, 8]))
    values = draw(st.lists(st.integers(-20, 40), max_size=40))
    n = len(values)
    begin = draw(st.integers(0, n))
    end = draw(st.integers(0, n))
    return chunk_rows, values, begin, end


@_SETTINGS
@given(case=chunked_ranges(), kind=st.sampled_from(sorted(_SHAPES)))
# An empty range, a start mid-chunk, an end on a chunk boundary, an end in
# a partly filled tail chunk, and a range over several whole chunks.
@example(case=(4, list(range(10)), 3, 3), kind="filter_sum")
@example(case=(4, list(range(11, 21)), 2, 8), kind="filter_sum")
@example(case=(8, list(range(5, 45)), 5, 16), kind="row_index")
@example(case=(4, [3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5], 1, 11), kind="row_index")
@example(case=(2, [3, 1, 4, 0, 5, 9], 1, 5), kind="early_exit")
@example(case=(1, [7, 8, 9], 0, 3), kind="early_exit")
def test_morsel_loops_equal_the_ir_interpreter(case, kind):
    chunk_rows, values, begin, end = case
    out: list = []
    a, b = chunked_columns(values, chunk_rows)
    function = make_scan(kind, a, b, out)
    args = [None, begin, end]
    reference = outcome(lambda: IRInterpreter().execute(function, args), out)
    for tier in (compile_unoptimized(function), compile_optimized(function)):
        assert re.search(_SHAPES[kind], tier.source), (kind, tier.tier)
        assert outcome(lambda: tier(*args), out) == reference, tier.tier
