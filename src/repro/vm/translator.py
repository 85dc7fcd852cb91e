"""Translation of IR functions into VM bytecode (paper Section IV-B/IV-F).

The translation follows Fig. 9 of the paper:

* compute liveness / allocate registers (the only algorithmically involved
  step, delegated to :mod:`repro.vm.liveness` and :mod:`repro.vm.regalloc`),
* iterate over the blocks in reverse postorder and translate instructions
  one by one, skipping instructions that are *subsumed* by a fused opcode,
* propagate values into phi nodes at the end of each predecessor block,
* patch branch targets once the final layout is known,
* build the VM's threaded handlers for the finished code
  (:func:`repro.vm.interpreter.build_handlers`), so that cost is part of
  translation rather than of the first morsel.

Two fusions from Section IV-F are implemented:

* the overflow-check sequence (``op`` / ``ovf.op`` / ``condbr``) becomes a
  single checked arithmetic opcode,
* ``gep`` + ``load`` / ``gep`` + ``store`` become ``load_idx`` /
  ``store_idx``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

from ..errors import VMError
from ..ir.analysis import LoopInfo, reverse_postorder
from ..ir.function import BasicBlock, ExternFunction, Function
from ..ir.instructions import (
    BinaryInst,
    BranchInst,
    CallInst,
    CastInst,
    CompareInst,
    CondBranchInst,
    GEPInst,
    LoadInst,
    OverflowCheckInst,
    PhiInst,
    ReturnInst,
    SelectInst,
    StoreInst,
    UnreachableInst,
)
from ..ir.values import Argument, Constant, Instruction, Undef, Value
from .bytecode import BytecodeFunction
from .interpreter import build_handlers
from .opcodes import (
    BCInstruction,
    BINARY_TO_OPCODE,
    CHECKED_TO_OPCODE,
    COMPARE_TO_OPCODE,
    OVERFLOW_TO_OPCODE,
    Opcode,
)
from .regalloc import RegisterAllocation, allocate_registers, constant_slot


@dataclass
class TranslationStats:
    """Bookkeeping about one translation, used by benchmarks and tests."""

    ir_instructions: int = 0
    bytecode_instructions: int = 0
    fused_overflow_checks: int = 0
    fused_memory_ops: int = 0
    phi_copies: int = 0
    num_registers: int = 0
    translation_seconds: float = 0.0


class _Emitter:
    """Accumulates bytecode with label-based branch targets."""

    def __init__(self):
        self.code: list[list] = []
        self.fixups: list[tuple[int, int, object]] = []  # (index, field, label)
        self.labels: dict[object, int] = {}

    def here(self, label: object) -> None:
        self.labels[label] = len(self.code)

    def emit(self, op: Opcode, a1: int = 0, a2: int = 0, a3: int = 0,
             lit=None) -> int:
        self.code.append([int(op), a1, a2, a3, lit])
        return len(self.code) - 1

    def emit_branch(self, label: object) -> None:
        index = self.emit(Opcode.BR, lit=None)
        self.fixups.append((index, 4, label))

    def emit_condbr(self, cond_slot: int, true_label: object,
                    false_label: object) -> None:
        index = self.emit(Opcode.CONDBR, cond_slot, 0, 0)
        self.fixups.append((index, 2, true_label))
        self.fixups.append((index, 3, false_label))

    def finish(self) -> list[BCInstruction]:
        for index, pos, label in self.fixups:
            try:
                target = self.labels[label]
            except KeyError as exc:
                raise VMError(f"unresolved branch target {label!r}") from exc
            self.code[index][pos] = target
        return [BCInstruction(*inst) for inst in self.code]


def translate_function(function: Function,
                       allocation: Optional[RegisterAllocation] = None,
                       loop_info: Optional[LoopInfo] = None,
                       enable_fusion: bool = True
                       ) -> tuple[BytecodeFunction, TranslationStats]:
    """Translate one IR function into a :class:`BytecodeFunction`."""
    start_time = time.perf_counter()
    stats = TranslationStats(ir_instructions=function.instruction_count())

    order = reverse_postorder(function)
    if allocation is None:
        allocation = allocate_registers(function, loop_info=loop_info)

    # One scratch slot is reserved for breaking cycles in phi parallel copies.
    scratch_slot = allocation.num_registers
    num_registers = allocation.num_registers + 1

    emitter = _Emitter()
    reachable = {id(block) for block in order}

    def slot_for(value: Value) -> int:
        if isinstance(value, Constant):
            return constant_slot(allocation, value)
        if isinstance(value, Undef):
            return 0
        return allocation.slot(value)

    # Pre-compute use counts of GEP results for the memory fusion, and of
    # overflow checks for the checked-arithmetic fusion.
    gep_single_use: dict[int, Instruction] = {}
    check_use_count: dict[int, int] = {}
    if enable_fusion:
        gep_single_use = _find_fusable_geps(function)
        check_use_count = _overflow_check_uses(function)

    block_offsets: dict[str, int] = {}
    # Trampolines for phi copies on conditional edges: (label, copies, target).
    pending_trampolines: list[tuple[object, list[tuple[int, int]],
                                    BasicBlock]] = []

    for block in order:
        emitter.here(id(block))
        block_offsets.setdefault(block.name, len(emitter.code))
        subsumed: set[int] = set()

        instructions = block.instructions
        for position, inst in enumerate(instructions):
            if inst.uid in subsumed:
                continue
            if isinstance(inst, PhiInst):
                continue  # materialised by copies at the predecessor ends

            if isinstance(inst, BinaryInst):
                fused = False
                if (enable_fusion and inst.opcode in CHECKED_TO_OPCODE
                        and position + 2 < len(instructions)):
                    fused = _try_fuse_overflow(
                        emitter, inst, instructions, position, subsumed,
                        slot_for, stats, block, check_use_count)
                if not fused:
                    opcode = BINARY_TO_OPCODE[(inst.opcode,
                                               inst.type.is_float
                                               or inst.opcode.startswith("f"))]
                    emitter.emit(opcode, slot_for(inst), slot_for(inst.lhs),
                                 slot_for(inst.rhs))
                continue

            if isinstance(inst, OverflowCheckInst):
                opcode = OVERFLOW_TO_OPCODE[inst.checked_opcode]
                emitter.emit(opcode, slot_for(inst), slot_for(inst.lhs),
                             slot_for(inst.rhs))
                continue

            if isinstance(inst, CompareInst):
                kind = ("f" if inst.lhs.type.is_float
                        else "o" if inst.lhs.type.is_pointer else "i")
                opcode = COMPARE_TO_OPCODE[(inst.predicate, kind)]
                emitter.emit(opcode, slot_for(inst), slot_for(inst.lhs),
                             slot_for(inst.rhs))
                continue

            if isinstance(inst, CastInst):
                if inst.opcode == "sitofp":
                    emitter.emit(Opcode.SITOFP, slot_for(inst),
                                 slot_for(inst.value))
                elif inst.opcode == "fptosi":
                    emitter.emit(Opcode.FPTOSI, slot_for(inst),
                                 slot_for(inst.value))
                elif inst.opcode == "trunc":
                    emitter.emit(Opcode.TRUNC, slot_for(inst),
                                 slot_for(inst.value), 0, inst.type.bits)
                else:  # zext / sext are no-ops on Python integers
                    emitter.emit(Opcode.MOV, slot_for(inst),
                                 slot_for(inst.value))
                continue

            if isinstance(inst, SelectInst):
                emitter.emit(Opcode.SELECT, slot_for(inst),
                             slot_for(inst.then_value),
                             slot_for(inst.else_value),
                             slot_for(inst.condition))
                continue

            if isinstance(inst, GEPInst):
                if inst.uid in gep_single_use:
                    # Subsumed into the fused LOAD_IDX / STORE_IDX below.
                    continue
                emitter.emit(Opcode.GEP, slot_for(inst), slot_for(inst.base),
                             slot_for(inst.index))
                continue

            if isinstance(inst, LoadInst):
                pointer = inst.pointer
                if (isinstance(pointer, GEPInst)
                        and pointer.uid in gep_single_use
                        and gep_single_use[pointer.uid] is inst):
                    emitter.emit(Opcode.LOAD_IDX, slot_for(inst),
                                 slot_for(pointer.base),
                                 slot_for(pointer.index))
                    stats.fused_memory_ops += 1
                else:
                    emitter.emit(Opcode.LOAD, slot_for(inst),
                                 slot_for(pointer))
                continue

            if isinstance(inst, StoreInst):
                pointer = inst.pointer
                if (isinstance(pointer, GEPInst)
                        and pointer.uid in gep_single_use
                        and gep_single_use[pointer.uid] is inst):
                    emitter.emit(Opcode.STORE_IDX, slot_for(inst.value),
                                 slot_for(pointer.base),
                                 slot_for(pointer.index))
                    stats.fused_memory_ops += 1
                else:
                    emitter.emit(Opcode.STORE, slot_for(inst.value),
                                 slot_for(pointer))
                continue

            if isinstance(inst, CallInst):
                impl = _callee_impl(inst)
                arg_slots = tuple(slot_for(arg) for arg in inst.args)
                if inst.has_result:
                    emitter.emit(Opcode.CALL, slot_for(inst), 0, 0,
                                 (impl, arg_slots))
                else:
                    emitter.emit(Opcode.CALL_VOID, 0, 0, 0, (impl, arg_slots))
                continue

            if isinstance(inst, BranchInst):
                copies = _phi_copies(block, inst.target, slot_for, reachable)
                _emit_parallel_copies(emitter, copies, scratch_slot, stats)
                emitter.emit_branch(id(inst.target))
                continue

            if isinstance(inst, CondBranchInst):
                true_label = _edge_label(emitter, block, inst.true_target,
                                         slot_for, reachable,
                                         pending_trampolines)
                false_label = _edge_label(emitter, block, inst.false_target,
                                          slot_for, reachable,
                                          pending_trampolines)
                emitter.emit_condbr(slot_for(inst.condition), true_label,
                                    false_label)
                continue

            if isinstance(inst, ReturnInst):
                if inst.value is None:
                    emitter.emit(Opcode.RET)
                else:
                    emitter.emit(Opcode.RET_VAL, slot_for(inst.value))
                continue

            if isinstance(inst, UnreachableInst):
                emitter.emit(Opcode.TRAP, 0, 0, 0,
                             f"unreachable code reached in {function.name}")
                continue

            raise VMError(
                f"{function.name}: cannot translate instruction "
                f"{inst.opcode!r}")

    # Emit the phi-copy trampolines for conditional edges.
    for label, copies, target in pending_trampolines:
        emitter.here(label)
        _emit_parallel_copies(emitter, copies, scratch_slot, stats)
        emitter.emit_branch(id(target))

    code = emitter.finish()

    # Pointer constants need the actual object (not its pooling key), so the
    # pool values are recollected from the IR itself.
    constant_slots = _collect_constant_values(function, allocation)

    arg_slots = [allocation.slot(arg) for arg in function.args]

    bytecode = BytecodeFunction(
        name=function.name,
        code=code,
        num_registers=num_registers,
        constant_slots=constant_slots,
        arg_slots=arg_slots,
        block_offsets=block_offsets,
        source_instruction_count=stats.ir_instructions,
    )
    bytecode.handlers = build_handlers(code, constant_slots)
    stats.bytecode_instructions = len(code)
    stats.num_registers = num_registers
    stats.translation_seconds = time.perf_counter() - start_time
    return bytecode, stats


# --------------------------------------------------------------------------- #
# helpers
# --------------------------------------------------------------------------- #
def _callee_impl(inst: CallInst):
    callee = inst.callee
    if isinstance(callee, ExternFunction):
        if callee.python_impl is None:
            raise VMError(f"extern @{callee.name} has no runtime binding")
        return callee.python_impl
    raise VMError(
        "direct IR-to-IR calls are not supported by the VM; pipeline worker "
        "functions are dispatched by the execution engine instead")


def _find_fusable_geps(function: Function) -> dict[int, Instruction]:
    """GEPs used exactly once, by a load/store in the same block."""
    use_count: dict[int, int] = {}
    single_user: dict[int, Instruction] = {}
    for block in function.blocks:
        for inst in block.instructions:
            operands = (inst.value_operands()
                        if not isinstance(inst, PhiInst)
                        else [v for v, _ in inst.incoming])
            for operand in operands:
                if isinstance(operand, GEPInst):
                    use_count[operand.uid] = use_count.get(operand.uid, 0) + 1
                    single_user[operand.uid] = inst
    fusable: dict[int, Instruction] = {}
    for block in function.blocks:
        for inst in block.instructions:
            if not isinstance(inst, GEPInst):
                continue
            if use_count.get(inst.uid) != 1:
                continue
            user = single_user[inst.uid]
            if not isinstance(user, (LoadInst, StoreInst)):
                continue
            if user.block is not inst.block:
                continue
            if isinstance(user, StoreInst) and user.pointer is not inst:
                continue  # the gep is the *value* being stored, not the target
            fusable[inst.uid] = user
    return fusable


def _overflow_check_uses(function: Function) -> dict[int, int]:
    """Use counts of overflow-check results, keyed by uid."""
    use_count: dict[int, int] = {}
    for block in function.blocks:
        for inst in block.instructions:
            operands = (inst.value_operands()
                        if not isinstance(inst, PhiInst)
                        else [v for v, _ in inst.incoming])
            for operand in operands:
                if isinstance(operand, OverflowCheckInst):
                    use_count[operand.uid] = use_count.get(operand.uid, 0) + 1
    return use_count


def _try_fuse_overflow(emitter: _Emitter, inst: BinaryInst,
                       instructions: list[Instruction], position: int,
                       subsumed: set[int], slot_for, stats: TranslationStats,
                       block: BasicBlock,
                       check_use_count: dict[int, int]) -> bool:
    """Try to fuse ``op / ovf.op / condbr`` into a single checked opcode.

    The pattern produced by :meth:`IRBuilder.checked_arith` places the
    overflow predicate directly after the arithmetic and branches to the
    error block on overflow.  The fused opcode performs the arithmetic and
    raises the overflow error itself, then control continues at the
    fall-through target, so both the predicate and the branch are subsumed.
    """
    check = instructions[position + 1]
    branch = instructions[position + 2]
    if not isinstance(check, OverflowCheckInst):
        return False
    if not isinstance(branch, CondBranchInst):
        return False
    if check.checked_opcode != inst.opcode:
        return False
    if check.lhs is not inst.lhs or check.rhs is not inst.rhs:
        return False
    if branch.condition is not check:
        return False
    if check_use_count.get(check.uid, 0) != 1:
        # After CSE a second branch elsewhere may test the same check value;
        # subsuming the check's register write would leave that branch
        # reading an undefined register.  Keep the unfused form.
        return False
    # The branch must be the block terminator (it is, by construction).
    opcode = CHECKED_TO_OPCODE[inst.opcode]
    emitter.emit(opcode, slot_for(inst), slot_for(inst.lhs),
                 slot_for(inst.rhs))
    emitter.emit_branch(id(branch.false_target))
    subsumed.add(check.uid)
    subsumed.add(branch.uid)
    stats.fused_overflow_checks += 1
    return True


def _phi_copies(pred: BasicBlock, succ: BasicBlock, slot_for,
                reachable: set[int]) -> list[tuple[int, int]]:
    """Register copies needed on the edge ``pred -> succ`` (dst, src)."""
    copies: list[tuple[int, int]] = []
    if id(succ) not in reachable:
        return copies
    for phi in succ.phis():
        incoming = phi.incoming_for(pred)
        if isinstance(incoming, Undef):
            continue
        dst = slot_for(phi)
        src = slot_for(incoming)
        if dst != src:
            copies.append((dst, src))
    return copies


def _edge_label(emitter: _Emitter, pred: BasicBlock, succ: BasicBlock,
                slot_for, reachable: set[int],
                pending: list) -> object:
    """Branch label for a conditional edge, adding a trampoline if needed."""
    copies = _phi_copies(pred, succ, slot_for, reachable)
    if not copies:
        return id(succ)
    label = ("edge", id(pred), id(succ))
    pending.append((label, copies, succ))
    return label


def _emit_parallel_copies(emitter: _Emitter, copies: list[tuple[int, int]],
                          scratch_slot: int, stats: TranslationStats) -> None:
    """Emit a set of simultaneous register copies.

    Copies are ordered so that no destination is overwritten before it has
    been read; cycles are broken with the reserved scratch register.
    """
    pending = list(copies)
    stats.phi_copies += len(pending)
    while pending:
        # Find a copy whose destination is not a source of any other copy.
        progress = False
        for index, (dst, src) in enumerate(pending):
            if any(other_src == dst for j, (_, other_src) in
                   enumerate(pending) if j != index):
                continue
            emitter.emit(Opcode.MOV, dst, src)
            pending.pop(index)
            progress = True
            break
        if progress:
            continue
        # Cycle: every pending destination is also a pending source.  Stash
        # the current value of one destination in the scratch register and
        # redirect every read of it there; that destination then stops
        # blocking and the loop makes progress on the next iteration.
        dst, _ = pending[0]
        emitter.emit(Opcode.MOV, scratch_slot, dst)
        pending = [(d, scratch_slot if s == dst else s) for d, s in pending]


def _collect_constant_values(function: Function,
                             allocation: RegisterAllocation
                             ) -> list[tuple[int, object]]:
    """Recover the actual constant objects for the constant pool slots."""
    from .regalloc import constant_key  # local import to avoid cycle noise

    slots: dict[int, object] = {}
    for block in function.blocks:
        for inst in block.instructions:
            operands = (inst.value_operands()
                        if not isinstance(inst, PhiInst)
                        else [v for v, _ in inst.incoming])
            for operand in operands:
                if not isinstance(operand, Constant):
                    continue
                key = constant_key(operand)
                slot = allocation.constant_slot_of.get(key)
                if slot is not None and slot not in slots:
                    slots[slot] = operand.value
    return sorted(slots.items())
