"""Unit tests for the IR optimization passes and the compiled backends."""

import re

import pytest

from repro import ExecOptions
from repro.backend import compile_optimized, compile_unoptimized
from repro.backend.cost_model import CostModel, default_cost_model
from repro.catalog.schema import Column, TableSchema
from repro.catalog.table import Table
from repro.codegen.runtime import QueryRuntime
from repro.errors import BackendError, ExecutionError
from repro.ir import (Constant, ExternFunction, Function, InlineTemplate,
                      IRBuilder, UnreachableInst, print_function,
                      verify_function)
from repro.ir.types import i1, i64, ptr, void
from repro.types import SQLType
from repro.workloads import (TPCDS_QUERIES, TPCH_QUERIES, populate_tpcds,
                             populate_wide_table, wide_aggregate_query)
from repro.passes import (
    CommonSubexpressionEliminationPass,
    ConstantFoldingPass,
    DeadCodeEliminationPass,
    PeepholePass,
    SimplifyCFGPass,
    default_pipeline,
)
from repro.vm import IRInterpreter, VirtualMachine, translate_function


def make_redundant_function():
    """Function full of foldable / duplicated / dead instructions."""
    values = []
    sink = ExternFunction("sink", [i64], void, values.append)
    function = Function("messy", [i64], ["x"], i64)
    builder = IRBuilder(function)
    x = function.args[0]
    # constant-foldable
    folded = builder.mul(builder.const_i64(6), builder.const_i64(7))
    # peephole-foldable
    plus_zero = builder.add(x, builder.const_i64(0))
    times_one = builder.mul(plus_zero, builder.const_i64(1))
    # duplicated expression (CSE)
    first = builder.add(times_one, folded)
    second = builder.add(times_one, folded)
    # dead value
    builder.sub(x, builder.const_i64(3))
    builder.call(sink, [first])
    builder.call(sink, [second])
    builder.ret(first)
    return function, values, sink


class TestPasses:
    def test_constant_folding(self):
        function, _, _ = make_redundant_function()
        before = function.instruction_count()
        assert ConstantFoldingPass().run(function)
        assert function.instruction_count() < before
        verify_function(function)

    def test_peephole_removes_identities(self):
        function, _, _ = make_redundant_function()
        ConstantFoldingPass().run(function)
        assert PeepholePass().run(function)
        opcodes = [inst.opcode for inst in function.instructions()]
        # x + 0 and x * 1 should both be gone.
        assert opcodes.count("add") <= 2
        verify_function(function)

    def test_cse_deduplicates(self):
        function, _, _ = make_redundant_function()
        ConstantFoldingPass().run(function)
        PeepholePass().run(function)
        assert CommonSubexpressionEliminationPass().run(function)
        verify_function(function)

    @staticmethod
    def make_two_loads(first_buffer, second_buffer, store_between=False):
        """``return buf1[i] + buf2[i]``, optionally storing 9 into buf1[i]
        between the loads; every column reference builds its own pointer
        pair, as the code generator does."""
        function = Function("loads", [i64], ["i"], i64)
        builder = IRBuilder(function)
        index = function.args[0]

        def element(buffer):
            return builder.gep(Constant(ptr, (buffer, 0)), index)
        first = builder.load(i64, element(first_buffer))
        if store_between:
            builder.store(builder.const_i64(9), element(first_buffer))
        second = builder.load(i64, element(second_buffer))
        builder.ret(builder.add(first, second))
        return function

    @staticmethod
    def opcodes(function):
        return [inst.opcode for inst in function.instructions()]

    def test_cse_merges_loads_of_one_column(self):
        column = [5, 7]
        function = self.make_two_loads(column, column)
        assert CommonSubexpressionEliminationPass().run(function)
        verify_function(function)
        assert self.opcodes(function).count("gep") == 1
        assert self.opcodes(function).count("load") == 1
        assert IRInterpreter().execute(function, [1]) == 14

    def test_cse_keeps_loads_of_distinct_buffers(self):
        function = self.make_two_loads([5, 7], [5, 7])
        assert not CommonSubexpressionEliminationPass().run(function)
        assert self.opcodes(function).count("load") == 2

    def test_cse_keeps_both_loads_around_a_store(self):
        column = [5, 7]
        function = self.make_two_loads(column, column, store_between=True)
        CommonSubexpressionEliminationPass().run(function)
        verify_function(function)
        assert self.opcodes(function).count("load") == 2
        assert IRInterpreter().execute(function, [1]) == 7 + 9

    def test_cse_forwards_into_a_phi_along_the_back_edge(self):
        """The header phi is numbered before the latch that feeds it, so
        the merged latch value reaches it in the final sweep."""
        function = Function("count", [i64], ["n"], i64)
        builder = IRBuilder(function)
        entry = builder.block
        head = builder.new_block("head")
        latch = builder.new_block("latch")
        done = builder.new_block("done")
        builder.br(head)
        builder.set_block(head)
        index = builder.phi(i64, "i")
        index.add_incoming(builder.const_i64(0), entry)
        builder.condbr(builder.cmp("lt", index, function.args[0]),
                       latch, done)
        builder.set_block(latch)
        first = builder.add(index, builder.const_i64(1))
        second = builder.add(index, builder.const_i64(1))
        index.add_incoming(second, latch)
        builder.br(head)
        builder.set_block(done)
        builder.ret(index)
        assert CommonSubexpressionEliminationPass().run(function)
        verify_function(function)
        assert [value for value, _ in index.incoming][1] is first
        assert second not in index.operands
        assert IRInterpreter().execute(function, [5]) == 5

    def test_dce_removes_unused(self):
        function, _, _ = make_redundant_function()
        before = function.instruction_count()
        assert DeadCodeEliminationPass().run(function)
        assert function.instruction_count() < before
        verify_function(function)

    def test_dce_keeps_side_effects(self):
        function, _, sink = make_redundant_function()
        DeadCodeEliminationPass().run(function)
        calls = [inst for inst in function.instructions()
                 if inst.opcode == "call"]
        assert len(calls) == 2

    def test_simplify_cfg_folds_constant_branch(self):
        function = Function("branchy", [i64], ["x"], i64)
        builder = IRBuilder(function)
        then_block = builder.new_block("then")
        else_block = builder.new_block("else")
        builder.condbr(Constant(i1, 1), then_block, else_block)
        IRBuilder(function, then_block).ret(builder.const_i64(1))
        IRBuilder(function, else_block).ret(builder.const_i64(2))
        assert SimplifyCFGPass().run(function)
        verify_function(function)
        assert len(function.blocks) <= 2

    def test_pipeline_preserves_semantics(self):
        function, values, _ = make_redundant_function()
        bytecode, _ = translate_function(function)
        values.clear()
        original = VirtualMachine().execute(bytecode, [5])
        original_calls = list(values)

        default_pipeline().run_function(function)
        verify_function(function)
        bytecode, _ = translate_function(function)
        values.clear()
        optimized = VirtualMachine().execute(bytecode, [5])
        assert optimized == original
        assert list(values) == original_calls

    def test_pass_stats_recorded(self):
        function, _, _ = make_redundant_function()
        stats = default_pipeline().run_function(function)
        assert stats.instructions_before >= stats.instructions_after
        assert stats.total_seconds >= 0
        assert stats.per_pass_seconds


class TestBackends:
    def _accumulating_function(self):
        out = []
        sink = ExternFunction("collect", [i64], void, out.append)
        function = Function("worker", [ptr, i64, i64],
                            ["state", "begin", "end"])
        builder = IRBuilder(function)
        data = list(range(200))
        column = builder.const_ptr((data, 0))
        index, _, _, close = builder.count_loop(function.args[1],
                                                function.args[2])
        error = None
        value = builder.load(i64, builder.gep(column, index))
        squared = builder.mul(value, value)
        shifted = builder.add(squared, builder.const_i64(3))
        builder.call(sink, [shifted])
        close()
        builder.ret()
        return function, out

    def test_unoptimized_matches_bytecode(self):
        function, out = self._accumulating_function()
        bytecode, _ = translate_function(function)
        out.clear()
        VirtualMachine().execute(bytecode, [None, 5, 25])
        expected = list(out)
        compiled = compile_unoptimized(function)
        out.clear()
        compiled(None, 5, 25)
        assert out == expected

    def test_optimized_matches_bytecode(self):
        function, out = self._accumulating_function()
        bytecode, _ = translate_function(function)
        out.clear()
        VirtualMachine().execute(bytecode, [None, 5, 25])
        expected = list(out)
        compiled = compile_optimized(function)
        out.clear()
        compiled(None, 5, 25)
        assert out == expected

    def test_optimized_does_not_mutate_original(self):
        function, _ = self._accumulating_function()
        before = function.instruction_count()
        compile_optimized(function)
        assert function.instruction_count() == before

    def test_compile_seconds_recorded(self):
        function, _ = self._accumulating_function()
        unopt = compile_unoptimized(function)
        opt = compile_optimized(function)
        assert unopt.compile_seconds > 0
        assert opt.compile_seconds > 0
        assert opt.pass_seconds >= 0

    def test_tier_names(self):
        function, _ = self._accumulating_function()
        assert compile_unoptimized(function).tier == "unoptimized"
        assert compile_optimized(function).tier == "optimized"


def _loop(builder, function, name, begin, end):
    """Open ``for i in [begin, end)``; returns (i, exit block, close)."""
    head = builder.new_block(f"{name}.head")
    body = builder.new_block(f"{name}.body")
    exit_block = builder.new_block(f"{name}.exit")
    preheader = builder.block
    builder.br(head)
    builder.set_block(head)
    index = builder.phi(i64, name)
    index.add_incoming(begin, preheader)
    builder.condbr(builder.cmp("lt", index, end), body, exit_block)
    builder.set_block(body)

    def close(latch=None):
        if latch is not None:
            builder.set_block(latch)
        index.add_incoming(builder.add(index, builder.const_i64(1)),
                           builder.block)
        builder.br(head)
        builder.set_block(exit_block)
    return index, exit_block, close


def make_swap_loops(out):
    """Nested loops: the inner one swaps two phis every iteration (a copy
    cycle on its back edge) and exits onto the outer latch."""
    sink = ExternFunction("collect", [i64], void, out.append)
    function = Function("swap", [ptr, i64, i64], ["state", "begin", "end"])
    b = IRBuilder(function)
    i, _, close_outer = _loop(b, function, "outer", function.args[1],
                              function.args[2])
    seed = b.add(b.mul(i, b.const_i64(2)), b.const_i64(1))
    preheader = b.block
    inner_head = b.new_block("inner.head")
    inner_body = b.new_block("inner.body")
    outer_latch = b.new_block("outer.latch")
    b.br(inner_head)
    b.set_block(inner_head)
    j, x, y = b.phi(i64, "j"), b.phi(i64, "x"), b.phi(i64, "y")
    j.add_incoming(b.const_i64(0), preheader)
    x.add_incoming(i, preheader)
    y.add_incoming(seed, preheader)
    b.condbr(b.cmp("lt", j, b.const_i64(3)), inner_body, outer_latch)
    b.set_block(inner_body)
    b.call(sink, [b.sub(x, y)])
    j.add_incoming(b.add(j, b.const_i64(1)), inner_body)
    x.add_incoming(y, inner_body)
    y.add_incoming(x, inner_body)
    b.br(inner_head)
    b.set_block(outer_latch)
    b.call(sink, [x])
    b.call(sink, [y])
    close_outer()
    b.ret()
    return function


def make_case_diamond(out, column, side):
    """``p = x < 5 ? x * 10 : x + side[i]`` merging into a phi, then a
    second filter on ``p``; ``x`` reads a chunked column through one gep
    used by loads on both arms of the diamond."""
    sink = ExternFunction("collect", [i64], void, out.append)
    function = Function("case", [ptr, i64, i64], ["state", "begin", "end"])
    b = IRBuilder(function)
    i, _, close = _loop(b, function, "scan", function.args[1],
                        function.args[2])
    element = b.gep(b.const_ptr((column, 0)), i)
    x = b.load(i64, element)
    then_block, else_block = b.new_block("case.then"), b.new_block("case.else")
    merge, emit2 = b.new_block("case.merge"), b.new_block("emit2")
    latch = b.new_block("scan.latch")
    b.condbr(b.cmp("lt", x, b.const_i64(5)), then_block, else_block)
    b.set_block(then_block)
    tens = b.mul(b.load(i64, element), b.const_i64(10))
    b.br(merge)
    b.set_block(else_block)
    other = b.load(i64, b.gep(b.const_ptr((side, 0)), i))
    plus = b.add(b.load(i64, element), other)
    b.br(merge)
    b.set_block(merge)
    p = b.phi(i64, "p")
    p.add_incoming(tens, then_block)
    p.add_incoming(plus, else_block)
    b.call(sink, [p])
    b.condbr(b.cmp("gt", p, b.const_i64(50)), emit2, latch)
    b.set_block(emit2)
    b.call(sink, [b.sub(p, b.const_i64(50))])
    b.br(latch)
    close(latch)
    b.ret()
    return function


def make_probe_loop(out, keys, table):
    """Scan ``keys``; skip key 7 (a filter edge onto the outer latch);
    probe ``table`` through inline-template externs; for every match emit
    the *checked* sum ``match + key``, whose overflow edge leads to the
    shared ``overflow.error`` block.  The exhausted probe loop exits onto
    the outer latch too."""
    sink = ExternFunction("collect", [i64], void, out.append)
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
    function = Function("probe", [ptr, i64, i64], ["state", "begin", "end"])
    b = IRBuilder(function)
    error = function.add_block("overflow.error")
    IRBuilder(function, error).call(
        ExternFunction("rt_raise_overflow", [], void,
                       QueryRuntime.raise_overflow), [])
    error.append(UnreachableInst())
    i, _, close_outer = _loop(b, function, "scan", function.args[1],
                              function.args[2])
    outer_latch = b.new_block("scan.latch")
    key = b.load(i64, b.gep(b.const_ptr((keys, 0)), i))
    probing = b.new_block("probe")
    b.condbr(b.cmp("ne", key, b.const_i64(7)), probing, outer_latch)
    b.set_block(probing)
    matches = b.call(probe, [key])
    n = b.call(count, [matches])
    k, _, close_inner = _loop(b, function, "match", b.const_i64(0), n)
    total = b.checked_add(b.call(get, [matches, k]), key, error)
    b.call(sink, [total])
    close_inner()
    b.br(outer_latch)
    close_outer(outer_latch)
    b.ret()
    return function


def run_every_tier(function, out, args):
    """``(emitted values, outcome)`` of the IR interpreter and both compiled
    tiers; an ExecutionError's outcome is whether it names overflow."""
    runners = {"ir-interp": lambda *a: IRInterpreter().execute(function, a),
               "unoptimized": compile_unoptimized(function),
               "optimized": compile_optimized(function)}
    results = {}
    for tier, run in runners.items():
        out.clear()
        try:
            outcome = ("returned", run(*args))
        except ExecutionError as exc:
            outcome = ("raised", "overflow" in str(exc))
        results[tier] = (list(out), outcome)
    return results


def assert_tiers_agree(function, out, args):
    results = run_every_tier(function, out, args)
    assert results["unoptimized"] == results["ir-interp"]
    assert results["optimized"] == results["ir-interp"]
    return results["ir-interp"]


def chunked_column(values, chunk_rows=4):
    table = Table(TableSchema("t", [Column("a", SQLType.INT64)]),
                  chunk_rows=chunk_rows)
    table.insert_rows([(value,) for value in values], encode=False)
    return table.column_data("a")


class TestStructuredLowering:
    def test_nested_loops_with_a_phi_swap_cycle(self):
        out = []
        function = make_swap_loops(out)
        emitted, _ = assert_tiers_agree(function, out, [None, 2, 6])
        assert emitted[:5] == [-3, 3, -3, 5, 2]
        source = compile_optimized(function).source
        assert "_tmp" in source  # the swap is a copy cycle
        # The outer loop is a morsel loop with no column read: a plain
        # ``for`` over the counter.  The inner one (constant bound) stays
        # ``while True:``.
        assert re.search(r"for (v\d+) in range\(\1, v\d+\):", source)
        assert source.count("while True:") == 1

    def test_case_diamond_merging_into_a_phi(self):
        out = []
        values = [0, 3, 4, 5, 9, 12, 1, 7, 2, 40, 6]
        column = chunked_column(values)
        side = [10 * v for v in range(len(values))]
        function = make_case_diamond(out, column, side)
        emitted, _ = assert_tiers_agree(function, out, [None, 0, len(values)])
        assert emitted[:3] == [0, 30, 40]
        source = compile_optimized(function).source
        # The scan runs per chunk (chunk_rows=4): the column read is one
        # subscript of a chunk list bound per chunk, the side list is read
        # at the materialised row index; no pointer tuple is built.
        row_loop = source[source.index("for _j"):]
        assert re.search(r"= _k\d+_0\[_j\d+\]", row_loop)
        assert " >> 2][" not in row_loop and " & 3]" not in source
        assert re.search(r"_B\d+\[v\d+\]", row_loop)
        assert "_p" not in source and "_bb" not in source

    def test_checked_add_in_a_probe_loop_reaches_the_overflow_block(self):
        out = []
        keys = [1, 7, 2, 3, 1]
        table = {1: [(10,), (20,)], 3: [(5,)], 7: [(1,)]}
        function = make_probe_loop(out, keys, table)
        emitted, outcome = assert_tiers_agree(function, out, [None, 0, 5])
        assert emitted == [11, 21, 8, 11, 21]
        assert outcome == ("returned", None)
        source = compile_optimized(function).source
        assert "rt_probe" not in source and "len(" in source
        assert "raise ExecutionError" in source

        table[3] = [((1 << 63) - 2,)]
        emitted, outcome = assert_tiers_agree(function, out, [None, 0, 5])
        assert emitted == [11, 21]
        assert outcome == ("raised", True)

    def test_inner_loop_exit_lands_on_the_outer_latch(self):
        out = []
        keys = chunked_column([7, 1, 3], chunk_rows=2)
        function = make_probe_loop(out, keys, {1: [(4,), (5,)], 3: []})
        source = compile_optimized(function).source
        # The scan runs per chunk and reads its key chunk-locally; the
        # filter edge continues the row loop, and the exhausted probe loop
        # (still ``while True:``) breaks out to the latch that follows it.
        row_loop = source[source.index("for _j"):]
        assert re.search(r"= _k\d+_0\[_j\d+\]", row_loop)
        assert " >> 1][" not in source
        assert "while True:" in row_loop
        assert "break" in row_loop and "continue" in row_loop
        emitted, _ = assert_tiers_agree(function, out, [None, 0, 3])
        assert emitted == [5, 6]

    def test_compiled_scan_reads_chunks_sealed_after_compile(self):
        """A compiled morsel loop binds chunk lists per chunk at run time,
        so rows appended after the compile -- sealing the old tail and
        opening new chunks -- are read by the same compiled function."""
        out = []
        table = Table(TableSchema("t", [Column("a", SQLType.INT64)]),
                      chunk_rows=4)
        table.insert_rows([(v,) for v in range(6)], encode=False)
        function = make_probe_loop(out, table.column_data("a"),
                                   {1: [(4,)], 9: [(5,), (6,)]})
        tiers = (compile_unoptimized(function), compile_optimized(function))
        for tier in tiers:
            assert "for _j" in tier.source
            out.clear()
            tier(None, 0, 6)
            assert out == [5]
        table.insert_rows([(v,) for v in range(6, 11)], encode=False)
        assert table.num_sealed_chunks == 2
        for tier in tiers:
            out.clear()
            tier(None, 5, 11)
            assert out == [14, 15]
        assert assert_tiers_agree(function, out, [None, 3, 11]) \
            == ([14, 15], ("returned", None))

    def test_only_pure_zero_argument_calls_leave_the_morsel_loop(self):
        """A pure argument-less extern is called once before the morsel
        loop; one with side effects (here: a sequence) still runs per row."""
        out, ticks = [], iter(range(100, 200))
        function = Function("calls", [ptr, i64, i64],
                            ["state", "begin", "end"])
        b = IRBuilder(function)
        i, _, close = _loop(b, function, "scan", function.args[1],
                            function.args[2])
        scale = b.call(ExternFunction("rt_param_0", [], i64, lambda: 3,
                                      has_side_effects=False), [])
        tick = b.call(ExternFunction("rt_next", [], i64,
                                     lambda: next(ticks)), [])
        b.call(ExternFunction("collect", [i64], void, out.append),
               [b.add(b.mul(i, scale), tick)])
        close()
        b.ret()
        for compiled in (compile_unoptimized(function),
                         compile_optimized(function)):
            before, loop = compiled.source.split("for ", 1)
            assert "rt_param_0()" in before and "rt_param_0" not in loop
            assert "rt_next()" in loop
            ticks = iter(range(100, 200))
            out.clear()
            compiled(None, 2, 5)
            assert out == [106, 110, 114]

    def test_counter_increment_before_its_guard_still_wraps(self):
        """``i + 1`` skips its wrap test only behind the header's ``i <
        bound``; in the header itself it runs before the guard."""
        function = Function("selfloop", [i64], ["start"], i64)
        b = IRBuilder(function)
        entry, head, done = b.block, b.new_block("head"), b.new_block("done")
        b.br(head)
        b.set_block(head)
        i = b.phi(i64, "i")
        following = b.add(i, b.const_i64(1))
        i.add_incoming(function.args[0], entry)
        i.add_incoming(following, head)
        b.condbr(b.cmp("lt", i, b.const_i64(5)), head, done)
        IRBuilder(function, done).ret(following)
        limit = (1 << 63) - 1
        for tier in (compile_unoptimized(function), compile_optimized(function)):
            assert tier(limit) == -(1 << 63)
            assert tier(2) == 6

    def test_guarded_self_loop(self):
        """A self-loop's natural loop is its header alone: the blocks before
        it are not loop members, so the branch around it is no loop exit."""
        out = []
        function = Function("guarded", [i1, i64], ["c", "start"], i64)
        b = IRBuilder(function)
        entry, head = b.block, b.new_block("head")
        done, other = b.new_block("done"), b.new_block("other")
        b.condbr(function.args[0], head, other)
        b.set_block(head)
        i = b.phi(i64, "i")
        following = b.add(i, b.const_i64(1))
        i.add_incoming(function.args[1], entry)
        i.add_incoming(following, head)
        b.condbr(b.cmp("lt", i, b.const_i64(5)), head, done)
        IRBuilder(function, done).ret(following)
        IRBuilder(function, other).ret(b.const_i64(100))
        assert assert_tiers_agree(function, out, [1, 2]) == \
            ([], ("returned", 6))
        assert assert_tiers_agree(function, out, [0, 2]) == \
            ([], ("returned", 100))

    def test_nesting_past_cpython_limits_is_a_backend_error(self):
        out = []
        function = Function("deep", [ptr, i64, i64], ["state", "begin", "end"])
        b = IRBuilder(function)
        closers = []
        for depth in range(21):  # CPython compiles at most 20 nested loops
            index, _, close = _loop(b, function, f"l{depth}",
                                    b.const_i64(0), function.args[2])
            closers.append(close)
        b.call(ExternFunction("collect", [i64], void, out.append), [index])
        for close in reversed(closers):
            close()
        b.ret()
        for compile_tier in (compile_unoptimized, compile_optimized):
            with pytest.raises(BackendError, match="nests too deeply"):
                compile_tier(function)

    def test_irreducible_cfg_is_a_backend_error(self):
        function = Function("irreducible", [i1], ["c"], i64)
        b = IRBuilder(function)
        left, right = b.new_block("left"), b.new_block("right")
        b.condbr(function.args[0], left, right)
        IRBuilder(function, left).br(right)
        IRBuilder(function, right).condbr(function.args[0], left,
                                          b.new_block("done"))
        IRBuilder(function, function.blocks[-1]).ret(b.const_i64(1))
        for compile_tier in (compile_unoptimized, compile_optimized):
            with pytest.raises(BackendError, match="irreducible"):
                compile_tier(function)

    def test_break_across_two_loops_is_a_backend_error(self):
        out = []
        sink = ExternFunction("collect", [i64], void, out.append)
        function = Function("escape", [ptr, i64, i64],
                            ["state", "begin", "end"])
        b = IRBuilder(function)
        i, done, close_outer = _loop(b, function, "outer", function.args[1],
                                     function.args[2])
        j, _, close_inner = _loop(b, function, "inner", b.const_i64(0), i)
        stay = b.new_block("stay")
        b.condbr(b.cmp("eq", j, b.const_i64(3)), done, stay)
        b.set_block(stay)
        b.call(sink, [j])
        close_inner()
        close_outer()
        b.ret()
        for compile_tier in (compile_unoptimized, compile_optimized):
            with pytest.raises(BackendError, match="cannot structure"):
                compile_tier(function)


class TestWorkloadLowering:
    """Every TPC-H, TPC-DS and wide-aggregate worker lowers to structured
    code in both tiers; the unoptimized one runs no pass and leaves the IR
    as it found it."""

    @staticmethod
    def _check(db, queries):
        count = 0
        for key in sorted(queries):
            generated, _, _ = db.generate(queries[key])
            for function in generated.module.worker_functions():
                count += 1
                before = print_function(function)
                unoptimized = compile_unoptimized(function)
                assert print_function(function) == before, (key,
                                                            function.name)
                assert unoptimized.pass_seconds == 0.0
                assert unoptimized.instructions_after \
                    == unoptimized.instructions_before \
                    == function.instruction_count()
                for compiled in (unoptimized, compile_optimized(function)):
                    assert "_bb" not in compiled.source, (key, function.name)
                    assert "_p[0][_p[1]]" not in compiled.source, \
                        (key, function.name, compiled.tier)
        return count

    def test_tpch_workers(self, tpch_db_tiny):
        assert self._check(tpch_db_tiny, TPCH_QUERIES) >= len(TPCH_QUERIES)

    def test_tpcds_workers(self):
        db = populate_tpcds(fact_rows=50)
        assert self._check(db, TPCDS_QUERIES) >= len(TPCDS_QUERIES)

    def test_wide_aggregate_workers(self):
        queries = {count: wide_aggregate_query(count)
                   for count in (10, 120, 320, 800)}
        assert self._check(populate_wide_table(num_rows=10), queries) \
            >= len(queries)

    def test_q1_reads_each_lineitem_column_once(self, tpch_db_tiny):
        """Load CSE: the aggregating scan of Q1 reads each of its seven
        ``lineitem`` columns once per row (``l_extendedprice`` feeds four
        aggregates)."""
        generated, _, _ = tpch_db_tiny.generate(TPCH_QUERIES[1])
        (scan,) = [p for p in generated.pipelines
                   if p.pipeline.label == "scan lineitem"]
        reads = re.findall(r"(_K\d+)\[",
                           compile_optimized(scan.function).source)
        assert len(reads) == len(set(reads)) == 7

    def test_bind_parameter_loads_run_once_per_morsel(self, tpch_db_tiny):
        """A zero-argument pure extern (a bind-parameter load) reads the same
        value on every row: both tiers call it once, before the morsel
        loop, and the answer still follows each new binding."""
        sql = ("select count(*) as n from lineitem "
               "where l_partkey >= ? and l_partkey < ?")
        generated, _, _ = tpch_db_tiny.generate(sql)
        scan = generated.module.worker_functions()[0]
        for compiled in (compile_unoptimized(scan), compile_optimized(scan)):
            before, loop = compiled.source.split("while ", 1)
            assert "rt_param_0()" in before and "rt_param_1()" in before
            assert "rt_param" not in loop
        partkeys = tpch_db_tiny.catalog.table("lineitem") \
            .column_data("l_partkey").to_list()
        for low, high in ((0, 5), (3, 40), (10, 10)):
            expected = sum(low <= key < high for key in partkeys)
            for mode in ("unoptimized", "optimized"):
                result = tpch_db_tiny.execute(
                    sql, params=(low, high), options=ExecOptions(mode=mode))
                assert result.rows == [(expected,)], (mode, low, high)

    def test_optimized_compile_leaves_the_original_ir_unchanged(
            self, tpch_db_tiny):
        """The pass pipeline rewrites a structural clone: the original
        worker (which the bytecode tier keeps running) prints the same
        after an optimized compile, and shares no block or instruction
        with the clone -- only call targets and pointer constants."""
        for number in sorted(TPCH_QUERIES):
            generated, _, _ = tpch_db_tiny.generate(TPCH_QUERIES[number])
            for function in generated.module.worker_functions():
                before = print_function(function)
                clone = function.clone()
                assert print_function(clone) == before
                assert clone.module is None
                assert not {id(b) for b in function.blocks} \
                    & {id(b) for b in clone.blocks}
                assert not {id(i) for i in function.instructions()} \
                    & {id(i) for i in clone.instructions()}
                compile_optimized(function)
                assert print_function(function) == before, \
                    (number, function.name)


class TestCostModel:
    def test_compile_time_grows_with_size(self):
        model = default_cost_model()
        small = model.compile_seconds("optimized", 100)
        large = model.compile_seconds("optimized", 10_000)
        assert large > small

    def test_optimized_costs_more_than_unoptimized(self):
        model = default_cost_model()
        assert model.compile_seconds("optimized", 1000) > \
            model.compile_seconds("unoptimized", 1000)
        assert model.compile_seconds("unoptimized", 1000) > \
            model.compile_seconds("bytecode", 1000)

    def test_speedups_ordered(self):
        model = default_cost_model()
        assert model.speedup("optimized") >= model.speedup("unoptimized") \
            >= model.speedup("bytecode") == 1.0

    def test_fit_updates_estimate(self):
        model = CostModel()
        samples = [(100, 0.001), (1000, 0.01), (10_000, 0.1)]
        estimate = model.fit("unoptimized", samples, speedup=2.5)
        assert estimate.per_instruction_seconds == pytest.approx(1e-5, rel=0.2)
        assert model.speedup("unoptimized") == 2.5

    def test_fit_with_single_sample_keeps_previous(self):
        model = CostModel()
        before = model.compile_seconds("optimized", 500)
        model.fit("optimized", [(100, 0.5)])
        assert model.compile_seconds("optimized", 500) == before
