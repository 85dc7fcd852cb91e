"""Unit tests for the SSA IR: builder, verifier, printer, CFG analyses."""

import pytest

from repro.errors import IRError, IRVerificationError
from repro.ir import (
    Constant,
    ExternFunction,
    Function,
    IRBuilder,
    Module,
    compute_dominator_tree,
    find_loops,
    print_function,
    reverse_postorder,
    verify_function,
)
from repro.ir.instructions import BinaryInst, CompareInst, PhiInst
from repro.ir.types import f64, i1, i64, ptr, void, wrap_integer, integer_range


def build_loop_function():
    """for i in [begin, end): call sink(i * 2)"""
    sink_calls = []
    sink = ExternFunction("sink", [i64], void, sink_calls.append)
    function = Function("looper", [ptr, i64, i64], ["state", "begin", "end"])
    builder = IRBuilder(function)
    index, _, _, close = builder.count_loop(function.args[1],
                                            function.args[2])
    doubled = builder.mul(index, builder.const_i64(2))
    builder.call(sink, [doubled])
    close()
    builder.ret()
    return function, sink_calls


class TestTypes:
    def test_wrap_integer_wraps(self):
        assert wrap_integer(2 ** 63, i64) == -(2 ** 63)
        assert wrap_integer(-(2 ** 63) - 1, i64) == 2 ** 63 - 1

    def test_wrap_bool(self):
        assert wrap_integer(3, i1) == 1

    def test_integer_range(self):
        low, high = integer_range(i64)
        assert low == -(2 ** 63) and high == 2 ** 63 - 1

    def test_integer_range_rejects_float(self):
        with pytest.raises(IRError):
            integer_range(f64)


class TestBuilder:
    def test_loop_function_verifies(self):
        function, _ = build_loop_function()
        verify_function(function)

    def test_instruction_count(self):
        function, _ = build_loop_function()
        assert function.instruction_count() > 5

    def test_binary_type_mismatch_rejected(self):
        with pytest.raises(IRError):
            BinaryInst("add", Constant(i64, 1), Constant(f64, 1.0))

    def test_float_opcode_on_int_rejected(self):
        with pytest.raises(IRError):
            BinaryInst("fadd", Constant(i64, 1), Constant(i64, 1))

    def test_compare_produces_bool(self):
        cmp = CompareInst("lt", Constant(i64, 1), Constant(i64, 2))
        assert cmp.type is i1

    def test_checked_arith_creates_error_edge(self):
        function = Function("f", [i64, i64], ["a", "b"], i64)
        builder = IRBuilder(function)
        error = builder.new_block("error")
        result = builder.checked_add(function.args[0], function.args[1], error)
        builder.ret(result)
        error_builder = IRBuilder(function, error)
        error_builder.unreachable()
        verify_function(function)
        opcodes = [inst.opcode for inst in function.instructions()]
        assert "ovf.add" in opcodes

    def test_printer_produces_text(self):
        function, _ = build_loop_function()
        text = print_function(function)
        assert "define" in text and "phi" in text and "condbr" in text


class TestModule:
    def test_duplicate_function_rejected(self):
        module = Module("m")
        module.add_function(Function("f", [], []))
        with pytest.raises(IRError):
            module.add_function(Function("f", [], []))

    def test_extern_deduplicated(self):
        module = Module("m")
        extern = ExternFunction("rt", [i64], void, lambda x: None)
        assert module.declare_extern(extern) is module.declare_extern(extern)

    def test_instruction_count_aggregates(self):
        module = Module("m")
        function, _ = build_loop_function()
        module.add_function(function)
        assert module.instruction_count() == function.instruction_count()


class TestVerifier:
    def test_missing_terminator_detected(self):
        function = Function("f", [], [])
        block = function.add_block("entry")
        block.append(BinaryInst("add", Constant(i64, 1), Constant(i64, 2)))
        with pytest.raises(IRVerificationError):
            verify_function(function)

    def test_use_before_def_detected(self):
        function = Function("f", [i64], ["a"], i64)
        builder = IRBuilder(function)
        orphan = BinaryInst("add", function.args[0], Constant(i64, 1))
        # Use the instruction as an operand without ever inserting it.
        builder.ret(orphan)
        with pytest.raises(IRVerificationError):
            verify_function(function)

    def test_phi_incoming_must_match_predecessors(self):
        function = Function("f", [i64], ["a"], i64)
        builder = IRBuilder(function)
        other = builder.new_block("other")
        target = builder.new_block("target")
        builder.br(target)
        other_builder = IRBuilder(function, other)
        other_builder.br(target)
        target_builder = IRBuilder(function, target)
        phi = target_builder.phi(i64)
        phi.add_incoming(function.args[0], function.blocks[0])
        # missing incoming for "other"
        target_builder.ret(phi)
        with pytest.raises(IRVerificationError):
            verify_function(function)

    @staticmethod
    def _irreducible_function(use_across_cycle: bool) -> Function:
        """entry -> y | b, y -> x, x -> b | exit, b -> x: the cycle x <-> b
        has two entries, so y does not dominate x."""
        function = Function("f", [i1, i64], ["c", "x"], i64)
        builder = IRBuilder(function)
        y, x, b, exit_ = (builder.new_block(name)
                          for name in ("y", "x", "b", "exit"))
        builder.condbr(function.args[0], y, b)
        at_y = IRBuilder(function, y)
        in_y = at_y.add(function.args[1], at_y.const_i64(1))
        at_y.br(x)
        at_x = IRBuilder(function, x)
        source = in_y if use_across_cycle else function.args[1]
        in_x = at_x.add(source, at_x.const_i64(2))
        at_x.condbr(function.args[0], b, exit_)
        IRBuilder(function, b).br(x)
        IRBuilder(function, exit_).ret(in_x)
        return function

    def test_irreducible_cfg_is_accepted(self):
        verify_function(self._irreducible_function(use_across_cycle=False))

    def test_irreducible_cfg_use_not_dominated_is_detected(self):
        # One pass over the forward edges alone would count y as a
        # dominator of x; the retreating edge b -> x refutes it.
        with pytest.raises(IRVerificationError, match="does not dominate"):
            verify_function(self._irreducible_function(use_across_cycle=True))

    def test_branch_into_another_function_detected(self):
        other = Function("g", [], [])
        IRBuilder(other).ret()
        function = Function("f", [], [])
        IRBuilder(function).br(other.blocks[0])
        with pytest.raises(IRVerificationError, match="another function"):
            verify_function(function)

    def test_unreachable_block_placement_checked(self):
        function = Function("f", [i64], ["a"], i64)
        builder = IRBuilder(function)
        dead = builder.new_block("dead")
        builder.ret(function.args[0])
        at_dead = IRBuilder(function, dead)
        at_dead.add(function.args[0], at_dead.const_i64(1))
        dead.append(PhiInst(i64))  # the builder would hoist it to the top
        at_dead.ret(function.args[0])
        with pytest.raises(IRVerificationError, match="phi after non-phi"):
            verify_function(function)


class TestAnalysis:
    def test_reverse_postorder_starts_at_entry(self):
        function, _ = build_loop_function()
        order = reverse_postorder(function)
        assert order[0] is function.entry_block

    def test_rpo_places_blocks_after_forward_predecessors(self):
        function, _ = build_loop_function()
        dom = compute_dominator_tree(function)
        assert dom.order == reverse_postorder(function)
        for b, succs in enumerate(dom.succs):
            for s in succs:
                if not dom.dominates(s, b):  # ignore back edges
                    assert s > b

    def test_dominator_tree_entry_dominates_all(self):
        function, _ = build_loop_function()
        dom = compute_dominator_tree(function)
        assert dom.order[0] is function.entry_block
        for b in range(len(dom.order)):
            assert dom.dominates(0, b)

    def test_dominates_is_reflexive_and_antisymmetric(self):
        function, _ = build_loop_function()
        dom = compute_dominator_tree(function)
        blocks = range(len(dom.order))
        for a in blocks:
            assert dom.dominates(a, a)
            for b in blocks:
                if a != b and dom.dominates(a, b) and dom.dominates(b, a):
                    pytest.fail("two distinct blocks dominate each other")

    def test_loop_detection_finds_scan_loop(self):
        function, _ = build_loop_function()
        info = find_loops(function)
        heads = [b for b, end in enumerate(info.loop_end) if end >= 0]
        # The pseudo root loop plus the counted loop.
        assert len(heads) == 2
        real = [head for head in heads if info.loop_depth[head] == 1]
        assert len(real) == 1
        assert "head" in info.dom.order[real[0]].name

    def test_loop_depth_of_nested_loops(self):
        # Build a two-level nested loop manually.
        function = Function("nested", [i64], ["n"])
        builder = IRBuilder(function)
        outer_index, _, _, close_outer = builder.count_loop(
            builder.const_i64(0), function.args[0], "outer")
        inner_index, _, _, close_inner = builder.count_loop(
            builder.const_i64(0), outer_index, "inner")
        close_inner()
        close_outer()
        builder.ret()
        verify_function(function)
        info = find_loops(function)
        heads = [b for b, end in enumerate(info.loop_end) if end >= 0]
        depths = {info.loop_depth[head] for head in heads}
        assert {0, 1, 2} <= depths
        # The inner loop's span lies inside the outer loop's.
        inner, outer = sorted(heads[1:],
                              key=lambda head: -info.loop_depth[head])
        assert info.loop_parent[inner] == outer
        assert outer < inner <= info.loop_end[inner] <= info.loop_end[outer]
