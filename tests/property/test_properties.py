"""Property-based tests (hypothesis) for core invariants.

* SQL expression evaluation agrees between the compiled engine, the bytecode
  interpreter and a plain-Python oracle.
* IR programs produce identical results in the VM, the naive IR interpreter
  and both compiled backends.
* The liveness/register-allocation invariants hold for randomly shaped IR.
* The morsel dispatcher partitions any input exactly.
"""

from __future__ import annotations

import operator

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Database, ExecOptions, SQLType
from repro.adaptive import MorselDispatcher
from repro.backend import compile_optimized, compile_unoptimized
from repro.ir import Constant, ExternFunction, Function, IRBuilder, verify_function
from repro.ir.types import i64, ptr, void
from repro.vm import (
    IRInterpreter,
    VirtualMachine,
    allocate_registers,
    compute_live_ranges,
    translate_function,
)

_SETTINGS = settings(max_examples=40, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])


# --------------------------------------------------------------------------- #
# SQL filter/aggregate vs Python oracle
# --------------------------------------------------------------------------- #
rows_strategy = st.lists(
    st.tuples(st.integers(min_value=-1000, max_value=1000),
              st.integers(min_value=0, max_value=50),
              st.floats(min_value=-100, max_value=100, allow_nan=False,
                        allow_infinity=False, width=32)),
    min_size=0, max_size=120)


@_SETTINGS
@given(rows=rows_strategy,
       threshold=st.integers(min_value=-500, max_value=500))
def test_sql_aggregate_matches_python_oracle(rows, threshold):
    db = Database(morsel_size=32)
    db.create_table("t", [("a", SQLType.INT64), ("b", SQLType.INT64),
                          ("c", SQLType.FLOAT64)])
    if rows:
        db.insert("t", rows)
    sql = (f"select sum(a) as sa, count(*) as n, sum(c * 2 + b) as sc "
           f"from t where a > {threshold}")
    result = db.execute(sql, options=ExecOptions(mode="bytecode"))
    selected = [row for row in rows if row[0] > threshold]
    expected_sum_a = sum(row[0] for row in selected)
    expected_count = len(selected)
    expected_sum_c = sum(row[2] * 2 + row[1] for row in selected)
    got = result.rows[0]
    assert got[0] == expected_sum_a
    assert got[1] == expected_count
    assert got[2] == pytest.approx(expected_sum_c, rel=1e-6, abs=1e-6)


@_SETTINGS
@given(rows=rows_strategy)
def test_group_by_matches_python_oracle(rows):
    db = Database(morsel_size=16)
    db.create_table("t", [("a", SQLType.INT64), ("b", SQLType.INT64),
                          ("c", SQLType.FLOAT64)])
    if rows:
        db.insert("t", rows)
    result = db.execute("select b, count(*) as n, min(a) as mn, max(a) as mx "
                        "from t group by b order by b",
                        options=ExecOptions(mode="bytecode"))
    expected: dict[int, list] = {}
    for a, b, _ in rows:
        entry = expected.setdefault(b, [0, None, None])
        entry[0] += 1
        entry[1] = a if entry[1] is None else min(entry[1], a)
        entry[2] = a if entry[2] is None else max(entry[2], a)
    expected_rows = [(b, n, mn, mx)
                     for b, (n, mn, mx) in sorted(expected.items())]
    assert result.rows == expected_rows


@_SETTINGS
@given(rows=rows_strategy,
       low=st.integers(min_value=-200, max_value=0),
       high=st.integers(min_value=1, max_value=200))
def test_modes_agree_on_random_data(rows, low, high):
    db = Database(morsel_size=64)
    db.create_table("t", [("a", SQLType.INT64), ("b", SQLType.INT64),
                          ("c", SQLType.FLOAT64)])
    if rows:
        db.insert("t", rows)
    sql = (f"select b, sum(a) as s from t where a between {low} and {high} "
           f"group by b order by b")
    reference = db.execute(sql, options=ExecOptions(mode="optimized")).rows

    def close(left, right):
        if len(left) != len(right):
            return False
        for lrow, rrow in zip(left, right):
            for lval, rval in zip(lrow, rrow):
                if isinstance(lval, float):
                    if abs(lval - rval) > 1e-6:
                        return False
                elif lval != rval:
                    return False
        return True

    assert close(db.execute(
        sql, options=ExecOptions(mode="bytecode")).rows, reference)
    assert close(db.execute(
        sql, options=ExecOptions(mode="volcano")).rows, reference)
    assert close(db.execute(
        sql, options=ExecOptions(mode="adaptive")).rows, reference)


# --------------------------------------------------------------------------- #
# random straight-line IR: all execution tiers agree
# --------------------------------------------------------------------------- #
_OPS = ["add", "sub", "mul", "smin", "smax", "and", "or", "xor"]


def _build_random_program(opcodes: list[tuple[int, int, int]],
                          num_args: int = 3) -> Function:
    """Build a straight-line function from (op_index, lhs_ref, rhs_ref)."""
    function = Function("random_program", [i64] * num_args,
                        [f"a{i}" for i in range(num_args)], i64)
    builder = IRBuilder(function)
    values = list(function.args)
    for op_index, lhs_ref, rhs_ref in opcodes:
        opcode = _OPS[op_index % len(_OPS)]
        lhs = values[lhs_ref % len(values)]
        rhs = values[rhs_ref % len(values)]
        values.append(builder.binary(opcode, lhs, rhs))
    builder.ret(values[-1])
    return function


program_strategy = st.lists(
    st.tuples(st.integers(0, len(_OPS) - 1), st.integers(0, 40),
              st.integers(0, 40)),
    min_size=1, max_size=40)
args_strategy = st.tuples(st.integers(-10**6, 10**6),
                          st.integers(-10**6, 10**6),
                          st.integers(-10**6, 10**6))


@_SETTINGS
@given(program=program_strategy, args=args_strategy)
def test_all_tiers_agree_on_random_ir(program, args):
    function = _build_random_program(program)
    verify_function(function)
    bytecode, _ = translate_function(function)
    vm_result = VirtualMachine().execute(bytecode, list(args))
    ir_result = IRInterpreter().execute(function, list(args))
    unopt_result = compile_unoptimized(function)(*args)
    opt_result = compile_optimized(function)(*args)
    assert vm_result == ir_result == unopt_result == opt_result


@_SETTINGS
@given(program=program_strategy)
def test_register_allocation_invariants(program):
    function = _build_random_program(program)
    ranges, _ = compute_live_ranges(function)
    allocation = allocate_registers(function)
    # 1. every produced value has a slot
    for inst in function.instructions():
        if inst.has_result:
            assert inst.uid in allocation.slot_of
    # 2. overlapping multi-block ranges never share a slot
    by_slot: dict[int, list] = {}
    for uid, live in ranges.items():
        slot = allocation.slot_of.get(uid)
        if slot is not None:
            by_slot.setdefault(slot, []).append(live)
    for slot, shared in by_slot.items():
        for i, a in enumerate(shared):
            for b in shared[i + 1:]:
                if a.single_block and b.single_block \
                        and a.start_block == b.start_block:
                    assert (a.last_use_position < b.def_position
                            or b.last_use_position < a.def_position)
                else:
                    assert not a.overlaps(b)
    # 3. the register file is never larger than one slot per value + pool
    assert allocation.num_registers <= len(allocation.slot_of) + \
        len(allocation.constant_slot_of) + 2


# --------------------------------------------------------------------------- #
# morsel dispatcher partitions exactly
# --------------------------------------------------------------------------- #
@_SETTINGS
@given(total=st.integers(min_value=0, max_value=100_000),
       morsel=st.integers(min_value=1, max_value=5_000),
       initial=st.integers(min_value=1, max_value=5_000))
def test_morsel_dispatcher_partitions_input(total, morsel, initial):
    dispatcher = MorselDispatcher(total, morsel_size=morsel,
                                  initial_size=initial)
    covered = 0
    previous_end = 0
    while True:
        piece = dispatcher.next_morsel()
        if piece is None:
            break
        assert piece.begin == previous_end
        assert piece.size > 0
        covered += piece.size
        previous_end = piece.end
    assert covered == total
