"""Property tests for the compiled tiers' int64 arithmetic at the limits.

The compiled tiers test the int64 range inline and call ``_wrap64`` only
when a wrapping ``add``/``sub``/``mul`` left it, and fold a checked
operation's range test into the ``if`` that leads to the overflow block.
Hypothesis draws operands at and around the int64 limits; the bytecode VM
is the reference for both the values and the overflow error, including
for checked arithmetic inside a hash-probe loop.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.backend import compile_optimized, compile_unoptimized
from repro.codegen.runtime import QueryRuntime
from repro.errors import ExecutionError
from repro.ir import (ExternFunction, Function, InlineTemplate, IRBuilder,
                      UnreachableInst)
from repro.ir.types import i64, ptr, void
from repro.vm import VirtualMachine, translate_function

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
