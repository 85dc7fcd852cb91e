"""Unit tests for the bytecode VM: liveness, register allocation, translation,
interpretation and fusion."""

import dataclasses

import pytest

from repro.catalog.schema import Column, TableSchema
from repro.catalog.table import ColumnView, Table
from repro.errors import DivisionByZeroError, OverflowError_, VMError
from repro.ir import Constant, ExternFunction, Function, IRBuilder, verify_function
from repro.ir.types import f64, i64, ptr, void
from repro.types import SQLType
from repro.vm import (
    BCInstruction,
    BytecodeFunction,
    IRInterpreter,
    VirtualMachine,
    allocate_registers,
    compute_live_ranges,
    disassemble,
    translate_function,
)
from repro.vm.interpreter import build_handlers
from repro.vm.opcodes import Opcode
from repro.vm.regalloc import RESERVED_SLOTS


def make_sum_function():
    """f(ptr buf, begin, end) -> sum of buf[i] * 2 + 1 over the range."""
    function = Function("summer", [ptr, i64, i64], ["buf", "begin", "end"], i64)
    builder = IRBuilder(function)
    index, body, exit_block, close = builder.count_loop(function.args[1],
                                                        function.args[2])
    element_ptr = builder.gep(function.args[0], index)
    element = builder.load(i64, element_ptr)
    doubled = builder.mul(element, builder.const_i64(2))
    plus_one = builder.add(doubled, builder.const_i64(1))
    builder.call(_SINK, [plus_one])
    close()
    builder.ret(builder.const_i64(0))
    return function


_SINK_VALUES = []
_SINK = ExternFunction("sink", [i64], void, _SINK_VALUES.append)


class TestLiveness:
    def test_every_value_gets_a_range(self):
        function = make_sum_function()
        verify_function(function)
        ranges, _ = compute_live_ranges(function)
        produced = [inst for inst in function.instructions()
                    if inst.has_result]
        for inst in produced:
            assert inst.uid in ranges

    def test_range_covers_definition_and_uses(self):
        from repro.ir.instructions import PhiInst

        function = make_sum_function()
        ranges, info = compute_live_ranges(function)
        rpo = info.rpo_index
        for block in function.blocks:
            for position, inst in enumerate(block.instructions):
                if isinstance(inst, PhiInst):
                    # Phi operands are read at the end of the incoming block
                    # (paper Section IV-D), not in the phi's own block.
                    for value, pred in inst.incoming:
                        if value.uid in ranges:
                            live = ranges[value.uid]
                            assert live.start_block <= rpo[id(pred)] \
                                <= live.end_block
                    continue
                for operand in inst.value_operands():
                    if operand.uid not in ranges:
                        continue
                    live = ranges[operand.uid]
                    assert live.start_block <= rpo[id(block)] <= live.end_block

    def test_loop_value_extended_to_loop_end(self):
        # A value defined before a loop and used inside it must stay live for
        # the whole loop (paper Fig. 10).
        function = Function("f", [i64], ["n"], i64)
        builder = IRBuilder(function)
        before = builder.add(function.args[0], builder.const_i64(5))
        index, _, _, close = builder.count_loop(builder.const_i64(0),
                                                function.args[0])
        builder.call(_SINK, [before])
        close()
        builder.ret(before)
        verify_function(function)
        ranges, info = compute_live_ranges(function)
        live = ranges[before.uid]
        loop = [l for l in info.loops if l.depth == 1][0]
        assert live.end_block >= loop.last_index


class TestRegisterAllocation:
    def test_no_overlapping_ranges_share_a_slot(self):
        function = make_sum_function()
        ranges, _ = compute_live_ranges(function)
        allocation = allocate_registers(function)
        values = list(ranges.values())
        for i, a in enumerate(values):
            for b in values[i + 1:]:
                if allocation.slot_of.get(a.value.uid) is None:
                    continue
                if allocation.slot_of.get(b.value.uid) is None:
                    continue
                if allocation.slot_of[a.value.uid] != \
                        allocation.slot_of[b.value.uid]:
                    continue
                # Same slot: the block-level ranges must not overlap, unless
                # both are single-block locals within the same block (those
                # are proven disjoint at instruction level by construction).
                if a.single_block and b.single_block \
                        and a.start_block == b.start_block:
                    assert (a.last_use_position < b.def_position
                            or b.last_use_position < a.def_position)
                else:
                    assert not a.overlaps(b)

    def test_reserved_slots(self):
        function = make_sum_function()
        allocation = allocate_registers(function)
        assert allocation.num_registers >= RESERVED_SLOTS

    def test_loop_aware_not_larger_than_no_reuse(self):
        function = make_sum_function()
        loop_aware = allocate_registers(function, strategy="loop_aware")
        no_reuse = allocate_registers(function, strategy="no_reuse")
        greedy = allocate_registers(function, strategy="greedy_window")
        assert loop_aware.num_registers <= greedy.num_registers
        assert greedy.num_registers <= no_reuse.num_registers

    def test_unknown_strategy_rejected(self):
        function = make_sum_function()
        with pytest.raises(Exception):
            allocate_registers(function, strategy="nonsense")


class TestTranslation:
    def test_gep_load_fusion(self):
        function = make_sum_function()
        bytecode, stats = translate_function(function)
        assert stats.fused_memory_ops >= 1
        opcodes = {inst.op for inst in bytecode.code}
        assert Opcode.LOAD_IDX in opcodes
        assert Opcode.GEP not in opcodes

    def test_fusion_can_be_disabled(self):
        function = make_sum_function()
        bytecode, stats = translate_function(function, enable_fusion=False)
        assert stats.fused_memory_ops == 0
        opcodes = {inst.op for inst in bytecode.code}
        assert Opcode.GEP in opcodes

    def test_overflow_fusion(self):
        function = Function("chk", [i64, i64], ["a", "b"], i64)
        builder = IRBuilder(function)
        error = builder.new_block("error")
        result = builder.checked_add(function.args[0], function.args[1], error)
        builder.ret(result)
        IRBuilder(function, error).unreachable()
        bytecode, stats = translate_function(function)
        assert stats.fused_overflow_checks == 1
        assert Opcode.ADD_CHK_I64 in {inst.op for inst in bytecode.code}

    def test_disassembly_mentions_registers(self):
        function = make_sum_function()
        bytecode, _ = translate_function(function)
        text = disassemble(bytecode)
        assert "registers" in text and "load_idx" in text

    def test_translation_stats_counts(self):
        function = make_sum_function()
        bytecode, stats = translate_function(function)
        assert stats.ir_instructions == function.instruction_count()
        assert stats.bytecode_instructions == len(bytecode.code)
        assert stats.translation_seconds >= 0


class TestInterpretation:
    def test_results_match_ir_interpreter(self):
        function = make_sum_function()
        data = list(range(50))
        bytecode, _ = translate_function(function)

        _SINK_VALUES.clear()
        VirtualMachine().execute(bytecode, [(data, 0), 10, 20])
        vm_values = list(_SINK_VALUES)

        _SINK_VALUES.clear()
        IRInterpreter().execute(function, [(data, 0), 10, 20])
        ir_values = list(_SINK_VALUES)

        assert vm_values == ir_values == [i * 2 + 1 for i in range(10, 20)]

    def test_empty_range_executes_nothing(self):
        function = make_sum_function()
        bytecode, _ = translate_function(function)
        _SINK_VALUES.clear()
        VirtualMachine().execute(bytecode, [([], 0), 0, 0])
        assert _SINK_VALUES == []

    def test_overflow_raises(self):
        function = Function("chk", [i64, i64], ["a", "b"], i64)
        builder = IRBuilder(function)
        error = builder.new_block("error")
        result = builder.checked_add(function.args[0], function.args[1], error)
        builder.ret(result)
        IRBuilder(function, error).unreachable()
        bytecode, _ = translate_function(function)
        vm = VirtualMachine()
        assert vm.execute(bytecode, [1, 2]) == 3
        with pytest.raises(OverflowError_):
            vm.execute(bytecode, [2 ** 62, 2 ** 62])

    def test_division_by_zero_raises(self):
        function = Function("div", [i64, i64], ["a", "b"], i64)
        builder = IRBuilder(function)
        builder.ret(builder.div(function.args[0], function.args[1]))
        bytecode, _ = translate_function(function)
        vm = VirtualMachine()
        assert vm.execute(bytecode, [7, 2]) == 3
        with pytest.raises(DivisionByZeroError):
            vm.execute(bytecode, [7, 0])

    def test_signed_division_truncates_toward_zero(self):
        function = Function("div", [i64, i64], ["a", "b"], i64)
        builder = IRBuilder(function)
        builder.ret(builder.div(function.args[0], function.args[1]))
        bytecode, _ = translate_function(function)
        vm = VirtualMachine()
        assert vm.execute(bytecode, [-7, 2]) == -3
        assert vm.execute(bytecode, [7, -2]) == -3

    def test_instructions_executed_counter(self):
        function = make_sum_function()
        bytecode, _ = translate_function(function)
        vm = VirtualMachine()
        vm.execute(bytecode, [(list(range(10)), 0), 0, 10])
        # Entry (mov, br), nine per row (compare, branch, seven body
        # instructions), then the last compare, branch and the RET.
        assert vm.instructions_executed == 2 + 9 * 10 + 3

    def test_counter_counts_the_instruction_that_raises(self):
        function = Function("div", [i64, i64], ["a", "b"], i64)
        builder = IRBuilder(function)
        builder.ret(builder.div(function.args[0], function.args[1]))
        bytecode, _ = translate_function(function)
        vm = VirtualMachine()
        vm.execute(bytecode, [7, 2])
        assert vm.instructions_executed == 2  # sdiv, ret_val
        with pytest.raises(DivisionByZeroError):
            vm.execute(bytecode, [7, 0])
        assert vm.instructions_executed == 3  # + the sdiv that raised

    def test_float_arithmetic(self):
        function = Function("fmix", [f64, f64], ["a", "b"], f64)
        builder = IRBuilder(function)
        total = builder.add(function.args[0], function.args[1])
        scaled = builder.mul(total, builder.const_f64(0.5))
        builder.ret(scaled)
        bytecode, _ = translate_function(function)
        assert VirtualMachine().execute(bytecode, [3.0, 5.0]) == pytest.approx(4.0)


def make_add_function():
    function = Function("add", [i64, i64], ["a", "b"], i64)
    builder = IRBuilder(function)
    builder.ret(builder.add(function.args[0], function.args[1]))
    return function


class TestThreadedDispatch:
    def test_every_opcode_has_a_handler(self):
        for op in Opcode:
            lit = ((len, (2,)) if op in (Opcode.CALL, Opcode.CALL_VOID)
                   else 8)
            (handler,) = build_handlers([BCInstruction(op, 2, 2, 2, lit)],
                                        [])
            assert callable(handler), op

    def test_unknown_opcode_raises_vm_error(self):
        bytecode, _ = translate_function(make_add_function())
        broken = dataclasses.replace(
            bytecode, code=[BCInstruction(255, 0, 0, 0, None)])
        with pytest.raises(VMError, match="unknown opcode 255"):
            VirtualMachine().execute(broken, [1, 2])
        with pytest.raises(VMError):
            build_handlers(broken.code, broken.constant_slots)

    def test_translation_builds_the_handlers(self):
        bytecode, _ = translate_function(make_add_function())
        assert len(bytecode.handlers) == len(bytecode.code)

    def test_replaced_function_runs_its_own_code(self):
        bytecode, _ = translate_function(make_add_function())
        code = [inst._replace(op=int(Opcode.SUB_I64))
                if inst.op == Opcode.ADD_I64 else inst
                for inst in bytecode.code]
        subtract = dataclasses.replace(bytecode, code=code)
        assert subtract.handlers is None
        vm = VirtualMachine()
        assert vm.execute(subtract, [7, 2]) == 5
        assert vm.execute(bytecode, [7, 2]) == 9
        assert len(subtract.handlers) == len(code)

    def test_hand_built_function_builds_handlers_on_first_execution(self):
        function = BytecodeFunction(
            name="const", num_registers=3, constant_slots=[], arg_slots=[],
            code=[BCInstruction(int(Opcode.LOAD_CONST), 2, 0, 0, "x"),
                  BCInstruction(int(Opcode.RET_VAL), 2, 0, 0, None)])
        assert function.handlers is None
        assert VirtualMachine().execute(function) == "x"
        assert function.handlers is not None

    def test_void_return(self):
        function = Function("nothing", [], [], void)
        IRBuilder(function).ret()
        bytecode, _ = translate_function(function)
        vm = VirtualMachine()
        assert vm.execute(bytecode) is None
        assert vm.instructions_executed == 1


def chunked_column(values, chunk_rows=4):
    table = Table(TableSchema("t", [Column("a", SQLType.INT64)]),
                  chunk_rows=chunk_rows)
    table.insert_rows([(value,) for value in values], encode=False)
    return table, table.column_data("a")


def make_column_scan(pointer, out):
    """``for i in [begin, end): out.append(load(gep(pointer, i)))`` with a
    constant pointer, or the ``buf`` argument when ``pointer`` is None."""
    function = Function("scan", [ptr, i64, i64], ["buf", "begin", "end"],
                        void)
    builder = IRBuilder(function)
    base = (builder.const_ptr(pointer) if pointer is not None
            else function.args[0])
    index, _, _, close = builder.count_loop(function.args[1],
                                            function.args[2])
    value = builder.load(i64, builder.gep(base, index))
    builder.call(ExternFunction("collect", [i64], void, out.append), [value])
    close()
    builder.ret()
    return function


class TestColumnReads:
    """``load_idx`` over a ColumnView with four rows per chunk, compared
    with the IR interpreter (which reads through ``ColumnView[i]``)."""

    @staticmethod
    def run_both(function, args, out):
        bytecode, _ = translate_function(function)
        assert Opcode.LOAD_IDX in {inst.op for inst in bytecode.code}
        out.clear()
        VirtualMachine().execute(bytecode, args)
        vm_values = list(out)
        out.clear()
        IRInterpreter().execute(function, args)
        assert vm_values == out
        return vm_values

    @staticmethod
    def forbid_getitem(monkeypatch):
        def fail(view, index):
            raise AssertionError("constant column read called __getitem__")
        monkeypatch.setattr(ColumnView, "__getitem__", fail)

    def test_constant_pointer_reads_across_chunk_boundaries(self,
                                                            monkeypatch):
        out = []
        _, view = chunked_column([10 * i for i in range(11)])
        function = make_column_scan((view, 0), out)
        bytecode, _ = translate_function(function)
        self.forbid_getitem(monkeypatch)
        VirtualMachine().execute(bytecode, [None, 1, 11])
        assert out == [10 * i for i in range(1, 11)]
        monkeypatch.undo()
        assert self.run_both(function, [None, 1, 11], out) == out

    def test_constant_pointer_with_a_nonzero_offset(self):
        out = []
        _, view = chunked_column(list(range(100, 110)))
        function = make_column_scan((view, 3), out)
        assert self.run_both(function, [None, 0, 7], out) == \
            list(range(103, 110))

    def test_reads_rows_appended_after_translation(self):
        out = []
        table, view = chunked_column(list(range(6)))
        function = make_column_scan((view, 0), out)
        bytecode, _ = translate_function(function)
        table.insert_rows([(value,) for value in range(6, 14)], encode=False)
        out.clear()
        VirtualMachine().execute(bytecode, [None, 0, 14])
        assert out == list(range(14))
        assert self.run_both(function, [None, 4, 14], out) == \
            list(range(4, 14))

    def test_register_held_pointer(self):
        out = []
        _, view = chunked_column(list(range(20, 30)))
        function = make_column_scan(None, out)
        assert self.run_both(function, [(view, 2), 0, 8], out) == \
            list(range(22, 30))
