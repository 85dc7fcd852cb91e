"""Property-based mutation tests for the static verification layer.

Each verifier must reject *every class* of seeded corruption, wherever
hypothesis chooses to plant it:

* the IR verifier over seven structural mutation classes (dropped
  terminators, mid-block terminators, stale parent links, use-before-def,
  call arity, call argument retyping, phi incoming removal),
* the bytecode verifier over six classes (jump targets out of range,
  register indices out of range, reads of never-written registers, writes
  to read-only constant slots, falling off the end of the code array,
  malformed call descriptors),
* the extern-contract checker over six classes (undeclared externs,
  sinks without the threaded state, purity mismatches, declared arity
  outside the contract, impl signature drift, locks in hot-path impls).

The workers being corrupted are themselves randomly shaped: a count loop
over ``begin..end`` with a hypothesis-chosen arithmetic chain feeding a
sink call, i.e. the same skeleton every real pipeline worker has.
"""

from __future__ import annotations

import dataclasses
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis import check_extern_contracts, verify_bytecode
from repro.errors import BytecodeVerificationError, IRVerificationError
from repro.ir import Constant, ExternFunction, Function, IRBuilder, verify_function
from repro.ir.function import Module
from repro.ir.instructions import CallInst, PhiInst, ReturnInst
from repro.ir.types import i1, i64, ptr, void
from repro.vm import translate_function
from repro.vm.opcodes import OPCODE_SIGNATURES

_SETTINGS = settings(max_examples=30, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])

_SINK = ExternFunction("rt_emit_row", [ptr, i64], void,
                       lambda ctx, value: None)

_OPS = st.lists(st.tuples(st.sampled_from(["add", "sub", "mul"]),
                          st.integers(min_value=1, max_value=9)),
                min_size=1, max_size=6)


def make_worker(ops):
    """A loop worker with a hypothesis-shaped arithmetic chain."""
    function = Function("worker0", [ptr, i64, i64],
                        ["state", "begin", "end"], void)
    builder = IRBuilder(function)
    index, _, _, close = builder.count_loop(function.args[1],
                                            function.args[2])
    value = index
    for op, literal in ops:
        value = getattr(builder, op)(value, builder.const_i64(literal))
    builder.call(_SINK, [function.args[0], value])
    close()
    builder.ret()
    return function


def pick(candidates, index):
    assert candidates, "mutation has no applicable site in this worker"
    return candidates[index % len(candidates)]


# --------------------------------------------------------------------------- #
# IR verifier mutations
# --------------------------------------------------------------------------- #
def _mutate_drop_terminator(function, index):
    block = pick(function.blocks, index)
    block.instructions.pop()


def _mutate_mid_block_terminator(function, index):
    block = pick([b for b in function.blocks if len(b.instructions) >= 2],
                 index)
    ret = ReturnInst(None)
    ret.block = block
    block.instructions.insert(0, ret)


def _mutate_stale_parent_link(function, index):
    block = pick(function.blocks, index)
    inst = block.instructions[0]
    inst.block = function.blocks[(function.blocks.index(block) + 1)
                                 % len(function.blocks)]


def _mutate_use_before_def(function, index):
    pairs = []
    for block in function.blocks:
        for i, inst in enumerate(block.instructions):
            for j in range(i + 1, len(block.instructions)):
                user = block.instructions[j]
                if inst in user.operands:
                    pairs.append((block, i, j))
    block, i, j = pick(pairs, index)
    block.instructions[i], block.instructions[j] = \
        block.instructions[j], block.instructions[i]


def _calls(function):
    return [inst for inst in function.instructions()
            if isinstance(inst, CallInst)]


def _mutate_call_arity(function, index):
    call = pick(_calls(function), index)
    call.operands.pop()


def _mutate_call_retype(function, index):
    call = pick(_calls(function), index)
    call.operands[-1] = Constant(ptr, None)


def _mutate_phi_drop_incoming(function, index):
    phis = [inst for inst in function.instructions()
            if isinstance(inst, PhiInst) and len(inst.incoming) >= 2]
    phi = pick(phis, index)
    victim = index % len(phi.incoming)
    del phi.incoming[victim]
    del phi.operands[victim]


IR_MUTATIONS = {
    "drop-terminator": _mutate_drop_terminator,
    "mid-block-terminator": _mutate_mid_block_terminator,
    "stale-parent-link": _mutate_stale_parent_link,
    "use-before-def": _mutate_use_before_def,
    "call-arity": _mutate_call_arity,
    "call-retype": _mutate_call_retype,
    "phi-drop-incoming": _mutate_phi_drop_incoming,
}


@_SETTINGS
@given(ops=_OPS, mutation=st.sampled_from(sorted(IR_MUTATIONS)),
       index=st.integers(min_value=0, max_value=63))
def test_ir_verifier_rejects_every_mutation_class(ops, mutation, index):
    function = make_worker(ops)
    verify_function(function)  # pristine worker is clean
    IR_MUTATIONS[mutation](function, index)
    with pytest.raises(IRVerificationError) as info:
        verify_function(function)
    assert info.value.function_name == "worker0"


# --------------------------------------------------------------------------- #
# bytecode verifier mutations
# --------------------------------------------------------------------------- #
def _with_field(code, field_kind, index):
    """Offsets of instructions whose signature has a non-empty field list."""
    offsets = [offset for offset, inst in enumerate(code)
               if getattr(OPCODE_SIGNATURES[inst.op], field_kind)]
    offset = pick(offsets, index)
    fields = getattr(OPCODE_SIGNATURES[code[offset].op], field_kind)
    return offset, fields[index % len(fields)]


def _mutate_jump_out_of_range(bytecode, index):
    code = list(bytecode.code)
    offset, field = _with_field(code, "jumps", index)
    code[offset] = code[offset]._replace(**{field: len(code) + 5})
    return dataclasses.replace(bytecode, code=code)


def _mutate_register_out_of_range(bytecode, index):
    code = list(bytecode.code)
    offset, field = _with_field(code, "reads", index)
    code[offset] = code[offset]._replace(
        **{field: bytecode.num_registers + 2})
    return dataclasses.replace(bytecode, code=code)


def _mutate_read_undefined(bytecode, index):
    grown = dataclasses.replace(bytecode,
                                num_registers=bytecode.num_registers + 1)
    code = list(grown.code)
    offset, field = _with_field(code, "reads", index)
    code[offset] = code[offset]._replace(**{field: grown.num_registers - 1})
    return dataclasses.replace(grown, code=code)


def _mutate_write_reserved_slot(bytecode, index):
    code = list(bytecode.code)
    offset, field = _with_field(code, "writes", index)
    code[offset] = code[offset]._replace(**{field: 0})
    return dataclasses.replace(bytecode, code=code)


def _mutate_fallthrough_off_end(bytecode, index):
    # Rewrite the final instruction into a plain falling-through write, so
    # execution runs off the end of the code array.
    code = list(bytecode.code)
    donor = code[pick([o for o, i in enumerate(code)
                       if OPCODE_SIGNATURES[i.op].writes
                       and not OPCODE_SIGNATURES[i.op].jumps
                       and not OPCODE_SIGNATURES[i.op].call
                       and OPCODE_SIGNATURES[i.op].falls_through], index)]
    code[-1] = donor._replace(a1=bytecode.num_registers - 1)
    return dataclasses.replace(bytecode, code=code)


def _mutate_call_descriptor(bytecode, index):
    code = list(bytecode.code)
    offsets = [offset for offset, inst in enumerate(code)
               if OPCODE_SIGNATURES[inst.op].call]
    offset = pick(offsets, index)
    code[offset] = code[offset]._replace(lit=42)
    return dataclasses.replace(bytecode, code=code)


BC_MUTATIONS = {
    "jump-out-of-range": _mutate_jump_out_of_range,
    "register-out-of-range": _mutate_register_out_of_range,
    "read-undefined": _mutate_read_undefined,
    "write-reserved-slot": _mutate_write_reserved_slot,
    "fallthrough-off-end": _mutate_fallthrough_off_end,
    "call-descriptor": _mutate_call_descriptor,
}


@_SETTINGS
@given(ops=_OPS, mutation=st.sampled_from(sorted(BC_MUTATIONS)),
       index=st.integers(min_value=0, max_value=63))
def test_bytecode_verifier_rejects_every_mutation_class(ops, mutation, index):
    bytecode, _ = translate_function(make_worker(ops))
    verify_bytecode(bytecode)  # pristine translation is clean
    corrupted = BC_MUTATIONS[mutation](bytecode, index)
    with pytest.raises(BytecodeVerificationError) as info:
        verify_bytecode(corrupted)
    assert info.value.function_name == "worker0"


# --------------------------------------------------------------------------- #
# extern-contract mutations
# --------------------------------------------------------------------------- #
def _module_with_call(extern, args_of):
    function = Function("workerX", [ptr, i64, i64],
                        ["state", "begin", "end"], void)
    builder = IRBuilder(function)
    builder.call(extern, args_of(builder, function))
    builder.ret()
    module = Module("test")
    module.add_function(function)
    return module


def _corrupt_undeclared(n):
    extern = ExternFunction(f"rt_mystery_{n}", [i64], i64, lambda x: x,
                            has_side_effects=False)
    return (_module_with_call(extern, lambda b, f: [b.const_i64(n)]),
            "undeclared-extern")


def _corrupt_sink_state(n):
    extern = ExternFunction(f"rt_build_insert_{n}", [ptr, i64], void,
                            lambda ctx, key: None)
    return (_module_with_call(
        extern, lambda b, f: [Constant(ptr, None), b.const_i64(n)]),
        "sink-state")


def _corrupt_purity(n):
    extern = ExternFunction(f"rt_probe_{n}", [i64], ptr,
                            lambda key: None, has_side_effects=True)
    return (_module_with_call(extern, lambda b, f: [b.const_i64(n)]),
            "purity")


def _corrupt_arity(n):
    extern = ExternFunction("rt_match_count", [ptr, i64], i64,
                            lambda matches, extra: 0,
                            has_side_effects=False)
    return (_module_with_call(
        extern, lambda b, f: [Constant(ptr, None), b.const_i64(n)]),
        "arity")


def _corrupt_impl_signature(n):
    extern = ExternFunction(f"rt_like_{n}", [ptr], i1, lambda: True,
                            has_side_effects=False)
    return (_module_with_call(extern, lambda b, f: [Constant(ptr, None)]),
            "impl-signature")


def _corrupt_lock(n):
    """Any lock in any ``rt_*`` extern: every sink family (the two that
    once held a ``may_lock`` grant included), a pure extern, and the name
    the removed fallback lock used."""
    fallback_lock = threading.Lock()   # a lock by any name is a lock

    def sink(ctx, key):
        with fallback_lock:
            pass

    def pure(key):
        with fallback_lock:
            return None

    families = [
        (f"rt_build_insert_{n}", [ptr, i64], void, sink, True),
        (f"rt_agg_update_{n}", [ptr, i64], void, sink, True),
        ("rt_emit_row", [ptr, i64], void, sink, True),
        (f"rt_probe_{n}", [i64], ptr, pure, False),
    ]
    name, arg_types, result, impl, is_sink = families[n % len(families)]
    extern = ExternFunction(name, arg_types, result, impl,
                            has_side_effects=is_sink)
    return (_module_with_call(
        extern, lambda b, f: ([f.args[0]] if is_sink else [])
        + [b.const_i64(n)]),
        "lock")


EXTERN_MUTATIONS = {
    "undeclared-extern": _corrupt_undeclared,
    "sink-state": _corrupt_sink_state,
    "purity": _corrupt_purity,
    "arity": _corrupt_arity,
    "impl-signature": _corrupt_impl_signature,
    "lock": _corrupt_lock,
}


@_SETTINGS
@given(mutation=st.sampled_from(sorted(EXTERN_MUTATIONS)),
       n=st.integers(min_value=0, max_value=99))
def test_extern_checker_rejects_every_mutation_class(mutation, n):
    module, expected_rule = EXTERN_MUTATIONS[mutation](n)
    rules = {finding.rule for finding in check_extern_contracts(module)}
    assert expected_rule in rules


@_SETTINGS
@given(ops=_OPS)
def test_pristine_workers_pass_every_verifier(ops):
    function = make_worker(ops)
    verify_function(function)
    bytecode, _ = translate_function(function)
    verify_bytecode(bytecode)
    module = Module("test")
    module.add_function(function)
    assert check_extern_contracts(module) == []
