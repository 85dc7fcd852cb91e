"""Unit tests for the static verification layer: the bytecode verifier, the
extern-contract checker, pass-pipeline validation and the AST linter."""

import dataclasses
from pathlib import Path

import pytest

from repro.analysis import (
    check_extern_contracts,
    find_contract,
    verify_allocation,
    verify_bytecode,
    verify_ir_enabled,
)
from repro.analysis.lint import lint_file, lint_paths
from repro.analysis.lint.rules import ALL_RULES
from repro.errors import BytecodeVerificationError, IRVerificationError
from repro.ir import (Constant, ExternFunction, Function, IRBuilder,
                      InlineTemplate, verify_function)
from repro.ir.types import f64, i1, i64, ptr, void
from repro.passes import PassManager
from repro.vm import allocate_registers, translate_function
from repro.vm.opcodes import BCInstruction, Opcode

SRC_ROOT = Path(__file__).resolve().parents[2] / "src" / "repro"


# --------------------------------------------------------------------------- #
# helpers
# --------------------------------------------------------------------------- #
_SINK_VALUES = []
_SINK = ExternFunction("rt_emit_row", [ptr, i64], void,
                       lambda ctx, value: _SINK_VALUES.append(value))


def make_worker():
    """A miniature worker: loops begin..end and emits buf[i] * 2 + 1."""
    function = Function("worker0", [ptr, i64, i64],
                        ["state", "begin", "end"], void)
    builder = IRBuilder(function)
    index, _, _, close = builder.count_loop(function.args[1],
                                            function.args[2])
    doubled = builder.mul(index, builder.const_i64(2))
    plus_one = builder.add(doubled, builder.const_i64(1))
    builder.call(_SINK, [function.args[0], plus_one])
    close()
    builder.ret()
    return function


def translated(function=None):
    bytecode, _ = translate_function(function or make_worker())
    return bytecode


def with_code(bytecode, code):
    return dataclasses.replace(bytecode, code=code)


# --------------------------------------------------------------------------- #
# bytecode verifier
# --------------------------------------------------------------------------- #
class TestBytecodeVerifier:
    def test_accepts_translated_worker(self):
        verify_bytecode(translated())

    def test_rejects_empty_code(self):
        with pytest.raises(BytecodeVerificationError, match="no instructions"):
            verify_bytecode(with_code(translated(), []))

    def test_rejects_jump_out_of_range(self):
        bytecode = translated()
        code = list(bytecode.code)
        for offset, inst in enumerate(code):
            if inst.op == Opcode.BR:
                code[offset] = inst._replace(lit=len(code) + 7)
                break
        with pytest.raises(BytecodeVerificationError, match="out of range"):
            verify_bytecode(with_code(bytecode, code))

    def test_rejects_register_out_of_range(self):
        bytecode = translated()
        code = list(bytecode.code)
        for offset, inst in enumerate(code):
            if inst.op == Opcode.ADD_I64:
                code[offset] = inst._replace(a2=bytecode.num_registers + 3)
                break
        with pytest.raises(BytecodeVerificationError,
                           match="outside the register file"):
            verify_bytecode(with_code(bytecode, code))

    def test_rejects_read_of_undefined_register(self):
        bytecode = translated()
        grown = dataclasses.replace(bytecode,
                                    num_registers=bytecode.num_registers + 1)
        code = list(grown.code)
        fresh = grown.num_registers - 1  # never written by anyone
        for offset, inst in enumerate(code):
            if inst.op == Opcode.ADD_I64:
                code[offset] = inst._replace(a2=fresh)
                break
        with pytest.raises(BytecodeVerificationError,
                           match="not defined on every path"):
            verify_bytecode(with_code(grown, code))

    def test_rejects_fallthrough_off_the_end(self):
        bytecode = translated()
        code = list(bytecode.code)
        assert code[-1].op in (Opcode.RET, Opcode.RET_VAL, Opcode.TRAP,
                               Opcode.BR, Opcode.CONDBR)
        code[-1] = BCInstruction(Opcode.MOV, bytecode.num_registers - 1,
                                 0, 0, None)
        with pytest.raises(BytecodeVerificationError,
                           match="falls off the end"):
            verify_bytecode(with_code(bytecode, code))

    def test_rejects_malformed_call_descriptor(self):
        bytecode = translated()
        code = list(bytecode.code)
        for offset, inst in enumerate(code):
            if inst.op in (Opcode.CALL, Opcode.CALL_VOID):
                impl, arg_slots = inst.lit
                bad = (impl, tuple(arg_slots) + (bytecode.num_registers + 9,))
                code[offset] = inst._replace(lit=bad)
                break
        with pytest.raises(BytecodeVerificationError,
                           match="outside the register file"):
            verify_bytecode(with_code(bytecode, code))

    def test_rejects_write_to_constant_slot(self):
        bytecode = translated()
        assert bytecode.constant_slots, "worker should pool constants"
        victim = bytecode.constant_slots[0][0]
        code = list(bytecode.code)
        for offset, inst in enumerate(code):
            if inst.op == Opcode.ADD_I64:
                code[offset] = inst._replace(a1=victim)
                break
        with pytest.raises(BytecodeVerificationError,
                           match="read-only constant slot"):
            verify_bytecode(with_code(bytecode, code))

    def test_rejects_argument_in_a_constant_slot(self):
        bytecode = translated()
        victim = bytecode.constant_slots[0][0]
        for arg_slots in ([victim] + bytecode.arg_slots[1:],
                          [1] + bytecode.arg_slots[1:]):
            with pytest.raises(BytecodeVerificationError,
                               match="argument slot .* read-only constant"):
                verify_bytecode(dataclasses.replace(bytecode,
                                                    arg_slots=arg_slots))

    def test_error_carries_function_offset_and_instruction(self):
        bytecode = translated()
        code = list(bytecode.code)
        code[0] = code[0]._replace(a2=bytecode.num_registers + 1)
        with pytest.raises(BytecodeVerificationError) as info:
            verify_bytecode(with_code(bytecode, code))
        error = info.value
        assert error.function_name == "worker0"
        assert error.offset == 0
        assert error.instruction is not None
        assert "worker0+0" in str(error)


class TestAllocationVerifier:
    def test_accepts_real_allocation(self):
        function = make_worker()
        verify_allocation(function, allocate_registers(function))

    def test_rejects_overlapping_ranges_in_one_slot(self):
        function = make_worker()
        allocation = allocate_registers(function)
        # Collapse every pooled value into one slot: the loop index and its
        # increment (among others) overlap, which must be rejected.
        slots = sorted(set(allocation.slot_of.values()))
        squashed = dataclasses.replace(
            allocation,
            slot_of={uid: slots[0] for uid in allocation.slot_of})
        with pytest.raises(BytecodeVerificationError, match="overlap"):
            verify_allocation(function, squashed)

    def test_rejects_slot_collision_with_constant_pool(self):
        function = make_worker()
        allocation = allocate_registers(function)
        victim = next(iter(allocation.slot_of))
        corrupt = dict(allocation.slot_of)
        corrupt[victim] = 0  # reserved slot, below the allocatable region
        with pytest.raises(BytecodeVerificationError,
                           match="outside the allocatable region"):
            verify_allocation(function,
                              dataclasses.replace(allocation,
                                                  slot_of=corrupt))


# --------------------------------------------------------------------------- #
# extern contracts
# --------------------------------------------------------------------------- #
def build_module(*functions):
    from repro.ir.function import Module
    module = Module("test")
    for function in functions:
        module.add_function(function)
    return module


def make_caller(extern, args_of):
    """A function calling ``extern`` with args chosen by ``args_of(builder,
    function)``."""
    function = Function("workerX", [ptr, i64, i64],
                        ["state", "begin", "end"], void)
    builder = IRBuilder(function)
    builder.call(extern, args_of(builder, function))
    builder.ret()
    return function


class TestExternContracts:
    def test_contract_lookup(self):
        assert find_contract("rt_build_insert_3").is_sink
        assert find_contract("rt_agg_update_12").is_sink
        assert not hasattr(find_contract("rt_emit_row"), "may_lock")
        assert find_contract("rt_probe_0").pure
        assert find_contract("rt_not_a_thing") is None

    def test_clean_sink_call(self):
        extern = ExternFunction("rt_emit_row", [ptr, i64], void,
                                lambda ctx, value: None)
        module = build_module(make_caller(
            extern, lambda b, f: [f.args[0], b.const_i64(1)]))
        assert check_extern_contracts(module) == []

    def test_undeclared_extern_is_flagged(self):
        extern = ExternFunction("rt_mystery_helper", [i64], i64,
                                lambda x: x, has_side_effects=False)
        module = build_module(make_caller(
            extern, lambda b, f: [b.const_i64(1)]))
        rules = {f.rule for f in check_extern_contracts(module)}
        assert "undeclared-extern" in rules

    def test_sink_without_state_arg_is_flagged(self):
        extern = ExternFunction("rt_emit_row", [ptr, i64], void,
                                lambda ctx, value: None)
        # Passes a null-ish constant instead of the threaded state argument.
        module = build_module(make_caller(
            extern,
            lambda b, f: [Constant(ptr, None), b.const_i64(1)]))
        rules = {f.rule for f in check_extern_contracts(module)}
        assert "sink-state" in rules

    def test_purity_mismatch_is_flagged(self):
        # rt_probe_* must be pure; declaring it side-effecting is a finding.
        extern = ExternFunction("rt_probe_0", [i64], ptr,
                                lambda key: None, has_side_effects=True)
        module = build_module(make_caller(
            extern, lambda b, f: [b.const_i64(1)]))
        rules = {f.rule for f in check_extern_contracts(module)}
        assert "purity" in rules

    def test_declared_arity_outside_contract_is_flagged(self):
        extern = ExternFunction("rt_match_count", [ptr, i64], i64,
                                lambda matches, extra: 0,
                                has_side_effects=False)
        module = build_module(make_caller(
            extern,
            lambda b, f: [Constant(ptr, None), b.const_i64(0)]))
        rules = {f.rule for f in check_extern_contracts(module)}
        assert "arity" in rules

    def test_impl_signature_mismatch_is_flagged(self):
        extern = ExternFunction("rt_like_0", [ptr], i1,
                                lambda: True,  # accepts 0 args, declared 1
                                has_side_effects=False)
        module = build_module(make_caller(
            extern, lambda b, f: [Constant(ptr, None)]))
        rules = {f.rule for f in check_extern_contracts(module)}
        assert "impl-signature" in rules

    @pytest.mark.parametrize("family", ["insert", "update"])
    def test_generated_sink_arity_drift_is_flagged(self, family):
        """The generated breakers take exactly their shape's arguments, so
        a sink declared with one argument more than its implementation
        accepts is caught (``*values`` used to swallow it)."""
        from repro.codegen.runtime import (agg_update_factory,
                                           build_insert_factory)
        from repro.plan.physical import AggregateSpec
        from repro.types import SQLType
        if family == "insert":
            name = "rt_build_insert_0"
            impl = build_insert_factory(1, 1)(0)   # ctx, key, payload
        else:
            name = "rt_agg_update_0"
            spec = AggregateSpec("count", None, SQLType.INT64)
            impl = agg_update_factory(1, [spec])(0)   # ctx, key
        accepted = impl.__code__.co_argcount
        extern = ExternFunction(name, [ptr] + [i64] * accepted, void, impl)
        module = build_module(make_caller(
            extern, lambda b, f: [f.args[0]]
            + [b.const_i64(1) for _ in range(accepted)]))
        findings = check_extern_contracts(module)
        assert [f.rule for f in findings] == ["impl-signature"]

    def test_lock_in_hot_path_impl_is_flagged(self):
        import threading
        shared_lock = threading.Lock()

        def insert(ctx, key, payload):
            with shared_lock:
                pass

        extern = ExternFunction("rt_build_insert_0", [ptr, i64, i64], void,
                                insert)
        module = build_module(make_caller(
            extern,
            lambda b, f: [f.args[0], b.const_i64(1), b.const_i64(2)]))
        rules = {f.rule for f in check_extern_contracts(module)}
        assert "lock" in rules

    def test_inline_template_on_impure_extern_is_flagged(self):
        extern = ExternFunction("rt_flag_set", [ptr], void,
                                lambda cell: None,
                                inline=InlineTemplate("{0}.clear()"))
        module = build_module(make_caller(
            extern, lambda b, f: [Constant(ptr, None)]))
        rules = {f.rule for f in check_extern_contracts(module)}
        assert rules == {"inline-purity"}

    def test_inline_placeholders_outside_contract_are_flagged(self):
        extern = ExternFunction("rt_match_get_0_1", [ptr, i64], i64,
                                lambda matches, row: 0,
                                has_side_effects=False,
                                inline=InlineTemplate("{0}[1]"))
        module = build_module(make_caller(
            extern, lambda b, f: [Constant(ptr, None), b.const_i64(0)]))
        rules = {f.rule for f in check_extern_contracts(module)}
        assert rules == {"inline-arity"}

    def test_runtime_templates_compute_what_the_impls_do(self):
        from repro.codegen.runtime import QueryRuntime

        class _State:
            join_partitions = {0: [{1: [(1, "a")], 3: [(3, "b")]},
                                   {2: [(2, "c"), (2, "d")]}]}

        runtime = QueryRuntime(_State())
        probe, template = runtime.make_probe(0, 1), runtime.probe_inline(0)
        getter = QueryRuntime.make_match_getter(1)
        get_template = QueryRuntime.match_getter_inline(1)
        names = {field: f"_o_{field}" for field in template.objects}
        scope = {names[field]: obj for field, obj in template.objects.items()}
        for key in (1, 2, 3, 4):
            scope["k"] = key
            matches = eval(template.render(["k"], names), scope)
            assert matches == probe(key)
            scope["m"] = matches
            assert eval(QueryRuntime.MATCH_COUNT_INLINE.render(["m"], {}),
                        scope) == QueryRuntime.match_count(matches)
            for row in range(len(matches)):
                scope["r"] = row
                assert eval(get_template.render(["m", "r"], {}), scope) \
                    == getter(matches, row)

    def test_real_query_modules_are_clean(self, tpch_db_tiny):
        generated, _, _ = tpch_db_tiny.generate(
            "select l_orderkey, sum(l_extendedprice) as revenue "
            "from lineitem where l_quantity < 30 "
            "group by l_orderkey order by revenue desc limit 5")
        assert check_extern_contracts(generated.module) == []


# --------------------------------------------------------------------------- #
# pass-pipeline validation + diagnostics
# --------------------------------------------------------------------------- #
class _BreakerPass:
    """A deliberately broken pass: drops the terminator of the last block."""

    name = "terminator-dropper"

    def run(self, function):
        if function.blocks[-1].instructions:
            function.blocks[-1].instructions.pop()
            return True
        return False


class TestPassPipelineValidation:
    def test_breaking_pass_is_named(self):
        function = make_worker()
        manager = PassManager([_BreakerPass()], verify=True)
        with pytest.raises(IRVerificationError) as info:
            manager.run_function(function)
        error = info.value
        assert error.pass_name == "terminator-dropper"
        assert "[after pass terminator-dropper]" in str(error)

    def test_verification_off_lets_bad_pass_through(self):
        function = make_worker()
        manager = PassManager([_BreakerPass()], verify=False)
        manager.run_function(function)  # no raise: validation disabled

    def test_env_flag_resolution(self, monkeypatch):
        monkeypatch.delenv("REPRO_VERIFY_IR", raising=False)
        assert verify_ir_enabled() is False
        assert verify_ir_enabled(True) is True
        monkeypatch.setenv("REPRO_VERIFY_IR", "1")
        assert verify_ir_enabled() is True
        assert verify_ir_enabled(False) is False
        monkeypatch.setenv("REPRO_VERIFY_IR", "off")
        assert verify_ir_enabled() is False

    def test_ir_error_carries_location_and_snippet(self):
        function = make_worker()
        function.blocks[0].instructions.pop()  # drop entry terminator
        with pytest.raises(IRVerificationError) as info:
            verify_function(function)
        error = info.value
        assert error.function_name == "worker0"
        assert error.block_name is not None
        assert str(error).startswith("worker0/")

    def test_verify_ir_option_accepted_end_to_end(self, simple_db):
        from repro.options import ExecOptions
        result = simple_db.execute(
            "select sum(price) as s from items",
            options=ExecOptions(mode="optimized", verify_ir=True))
        assert result.rows


# --------------------------------------------------------------------------- #
# lint
# --------------------------------------------------------------------------- #
def run_lint(tmp_path, source):
    path = tmp_path / "case.py"
    path.write_text(source)
    return lint_file(path, [cls() for cls in ALL_RULES])


class TestLint:
    def test_lock_discipline_fires(self, tmp_path):
        findings = run_lint(tmp_path, """
class T:
    def __init__(self):
        import threading
        self._lock = threading.Lock()
        self._rows = 0

    def guarded(self):
        with self._lock:
            self._rows = 1

    def unguarded(self):
        self._rows = 2
""")
        assert [f.rule for f in findings] == ["lock-discipline"]

    def test_locked_suffix_methods_are_exempt(self, tmp_path):
        findings = run_lint(tmp_path, """
class T:
    def guarded(self):
        with self._lock:
            self._rows = 1

    def _seal_tail_locked(self):
        self._rows = 2
""")
        assert findings == []

    def test_sealed_chunk_fires_and_allows_tail(self, tmp_path):
        findings = run_lint(tmp_path, """
class T:
    def bad(self, name, value):
        self._chunks[name][0].append(value)

    def good(self, name, value):
        self._chunks[name][-1].append(value)
""")
        assert [f.rule for f in findings] == ["sealed-chunk"]

    def test_sealed_chunk_tracks_aliases(self, tmp_path):
        findings = run_lint(tmp_path, """
class T:
    def bad(self, name, index, value):
        chunk = self._chunks[name][index]
        chunk.extend([value])
""")
        assert [f.rule for f in findings] == ["sealed-chunk"]

    def test_hot_path_lock_fires_on_renamed_externs(self, tmp_path):
        findings = run_lint(tmp_path, """
def make_update(state, big_lock):
    def update(ctx, *values):
        with big_lock:
            state.total += 1
    update.__name__ = f"rt_agg_update_3"
    return update
""")
        assert [f.rule for f in findings] == ["hot-path-lock"]

    def test_hot_path_has_no_sanctioned_lock(self, tmp_path):
        # The name the removed single-table fallback used is a lock like
        # any other.
        findings = run_lint(tmp_path, """
def make_emit(state, fallback_lock):
    def emit(ctx, *values):
        with fallback_lock:
            state.rows.append(values)
    emit.__name__ = "rt_emit_row"
    return emit
""")
        assert [f.rule for f in findings] == ["hot-path-lock"]

    def test_stats_key_fires(self, tmp_path):
        findings = run_lint(tmp_path, """
def report(stats, pass_stats):
    stats["rows"] = 1
    return pass_stats["cse"]
""")
        assert [f.rule for f in findings] == ["stats-key", "stats-key"]

    def test_suppression_comment(self, tmp_path):
        findings = run_lint(tmp_path, """
def report(stats):
    stats["rows"] = 1  # lint: ignore[stats-key]
""")
        assert findings == []

    def test_result_cache_key_fires_on_handrolled_key(self, tmp_path):
        findings = run_lint(tmp_path, """
def probe(self, sql, mode, values):
    return self.result_cache.get((sql, mode, tuple(values)), None)
""")
        assert [f.rule for f in findings] == ["result-cache-key"]

    def test_result_cache_key_allows_constructor(self, tmp_path):
        findings = run_lint(tmp_path, """
from repro.result_cache import result_cache_key

def probe(self, sql, mode, values):
    direct = self.result_cache.get(
        result_cache_key(sql, mode, values), None)
    key = result_cache_key(sql, mode, values)
    self.result_cache.put(key, {}, direct)
    return direct
""")
        assert findings == []

    def test_result_cache_key_ignores_other_caches(self, tmp_path):
        findings = run_lint(tmp_path, """
def probe(self, sql):
    return self.plan_cache.get(sql)
""")
        assert findings == []

    def test_engine_source_is_clean(self):
        rules = [cls() for cls in ALL_RULES]
        assert len(rules) >= 4
        findings = lint_paths([SRC_ROOT], rules)
        assert findings == [], "\n".join(str(f) for f in findings)
