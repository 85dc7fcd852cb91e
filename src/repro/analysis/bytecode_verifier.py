"""Bytecode verifier for the VM tier (abstract interpretation).

The IR tier has an LLVM-style structural verifier; this module gives the
bytecode tier the same safety net.  After :func:`repro.vm.translate_function`
(and the register allocator behind it) has produced a
:class:`repro.vm.BytecodeFunction`, :func:`verify_bytecode` checks that the
flat instruction list is well formed along *every* path:

* every opcode is known and carries an :data:`repro.vm.opcodes.OPCODE_SIGNATURES`
  entry,
* jump targets are absolute instruction indices inside the code list,
* execution can never fall off the end of the code,
* every register operand addresses a slot of the register file, and no
  instruction or argument overwrites the reserved constant slots (0/1) or a
  pooled constant slot,
* call descriptors are structurally valid ``(impl, arg_slots)`` pairs,
* a forward dataflow over the instruction-level CFG proves that every
  register read is preceded by a write (or frame initialisation: reserved
  constants, the constant pool, the argument slots) on **all** paths.

:func:`verify_allocation` separately cross-checks a register allocation
against a fresh liveness computation (:mod:`repro.vm.liveness`): two values
may share a slot only if their live ranges cannot overlap under the
allocator's own reuse rules.
"""

from __future__ import annotations

from typing import Optional

from ..errors import BytecodeVerificationError
from ..ir.analysis import LoopInfo
from ..ir.function import Function
from ..vm.bytecode import BytecodeFunction
from ..vm.liveness import LiveRange, compute_live_ranges
from ..vm.opcodes import OPCODE_SIGNATURES, BCInstruction, Opcode
from ..vm.regalloc import RESERVED_SLOTS, RegisterAllocation

#: Fields of a :class:`BCInstruction` by name, for signature-driven access.
_FIELDS = ("a1", "a2", "a3", "lit")

#: ``BCInstruction`` tuple index per field name -- indexed access is much
#: cheaper than ``getattr`` on the per-instruction hot path.
_FIELD_INDEX = {name: BCInstruction._fields.index(name) for name in _FIELDS}

#: Per-opcode signature with field names resolved to tuple indices:
#: ``(read_indices, write_indices, jump_indices, call, falls_through)``.
_INDEXED_SIGNATURES = {
    op: (tuple(_FIELD_INDEX[name] for name in sig.reads),
         tuple(_FIELD_INDEX[name] for name in sig.writes),
         tuple(_FIELD_INDEX[name] for name in sig.jumps),
         sig.call, sig.falls_through)
    for op, sig in OPCODE_SIGNATURES.items()
}


def _field(inst: BCInstruction, name: str):
    return getattr(inst, name)


def _fail(message: str, function: BytecodeFunction, offset: int = None
          ) -> None:
    instruction = None
    if offset is not None and 0 <= offset < len(function.code):
        instruction = repr(function.code[offset]).strip()
    raise BytecodeVerificationError(message, function_name=function.name,
                                    offset=offset, instruction=instruction)


# --------------------------------------------------------------------------- #
# structural checks + defined-register dataflow
# --------------------------------------------------------------------------- #
def verify_bytecode(function: BytecodeFunction) -> None:
    """Verify one translated function.  Raises
    :class:`BytecodeVerificationError` on the first violation."""
    code = function.code
    if not code:
        _fail("function has no instructions", function)
    num_registers = function.num_registers

    # Frame-initialised slots: reserved constants, pooled constants, args.
    constant_slots = set()
    for slot, _value in function.constant_slots:
        if not (0 <= slot < num_registers):
            _fail(f"constant slot {slot} outside the register file "
                  f"(size {num_registers})", function)
        if slot < RESERVED_SLOTS or slot in constant_slots:
            _fail(f"constant pool reuses slot {slot}", function)
        constant_slots.add(slot)
    for slot in function.arg_slots:
        if not (0 <= slot < num_registers):
            _fail(f"argument slot {slot} outside the register file "
                  f"(size {num_registers})", function)
        if slot < RESERVED_SLOTS or slot in constant_slots:
            # The frame writes arguments after constants; the VM's handlers
            # capture constant-slot values when they are built.
            _fail(f"argument slot {slot} overwrites a read-only constant "
                  f"slot", function)

    #: Slots no instruction may ever write: the reserved 0/1 cells and the
    #: pooled constants (both initialised once per frame, read-only after).
    immutable = 0
    for slot in range(min(RESERVED_SLOTS, num_registers)):
        immutable |= 1 << slot
    for slot in constant_slots:
        immutable |= 1 << slot

    initial = immutable
    for slot in function.arg_slots:
        initial |= 1 << slot

    read_mask: list[int] = []       # per instruction: bitmask of slots read
    write_mask: list[int] = []      # per instruction: bitmask of slots written
    # Per instruction: its successor indices, or None when its only
    # successor is the next instruction (the common case, which the
    # dataflow below follows without a worklist round trip).
    successors: list = []

    code_len = len(code)
    signatures = _INDEXED_SIGNATURES
    for offset, inst in enumerate(code):
        indexed = signatures.get(inst.op)
        if indexed is None:
            try:
                opcode = Opcode(inst.op)
            except ValueError:
                _fail(f"unknown opcode {inst.op!r}", function, offset)
            _fail(f"opcode {opcode.name} has no signature "
                  f"(OPCODE_SIGNATURES is out of date)", function, offset)
        read_fields, write_fields, jump_fields, is_call, falls = indexed

        rmask = 0
        for index in read_fields:
            slot = inst[index]
            if not isinstance(slot, int) or not (0 <= slot < num_registers):
                _fail(f"{Opcode(inst.op).name} reads register {slot!r} outside the "
                      f"register file (size {num_registers})",
                      function, offset)
            rmask |= 1 << slot

        mask = 0
        for index in write_fields:
            slot = inst[index]
            if not isinstance(slot, int) or not (0 <= slot < num_registers):
                _fail(f"{Opcode(inst.op).name} writes register {slot!r} outside the "
                      f"register file (size {num_registers})",
                      function, offset)
            if (immutable >> slot) & 1:
                _fail(f"{Opcode(inst.op).name} overwrites read-only "
                      f"constant slot {slot}", function, offset)
            mask |= 1 << slot

        if is_call:
            descriptor = inst.lit
            if (not isinstance(descriptor, tuple) or len(descriptor) != 2
                    or not callable(descriptor[0])):
                _fail(f"{Opcode(inst.op).name} has a malformed call descriptor "
                      f"{descriptor!r} (expected (impl, arg_slots))",
                      function, offset)
            for slot in descriptor[1]:
                if not isinstance(slot, int) \
                        or not (0 <= slot < num_registers):
                    _fail(f"{Opcode(inst.op).name} argument register {slot!r} "
                          f"outside the register file (size {num_registers})",
                          function, offset)
                rmask |= 1 << slot

        succ = None
        if jump_fields:
            succ = []
            for index in jump_fields:
                target = inst[index]
                if not isinstance(target, int) \
                        or not (0 <= target < code_len):
                    _fail(f"{Opcode(inst.op).name} jump target {target!r} out of "
                          f"range [0, {code_len})", function, offset)
                succ.append(target)
        if falls:
            if offset + 1 >= code_len:
                _fail(f"{Opcode(inst.op).name} falls off the end of the code",
                      function, offset)
            if succ is not None:
                succ.append(offset + 1)
        elif succ is None:
            succ = ()

        read_mask.append(rmask)
        write_mask.append(mask)
        successors.append(succ)

    # Forward dataflow: a register read is legal only if every path from
    # entry wrote the slot first.  IN[i] is the set of definitely-defined
    # slots (bitmask, None until a path reaches i); meet is intersection
    # over predecessors.
    defined_in: list = [None] * code_len
    defined_in[0] = initial
    worklist = [0]
    while worklist:
        offset = worklist.pop()
        incoming = defined_in[offset]
        while True:
            rmask = read_mask[offset]
            if incoming & rmask != rmask:
                _fail_undefined_read(function, offset, incoming)
            outgoing = incoming | write_mask[offset]
            succs = successors[offset]
            if succs is None:  # falls through to the next instruction only
                offset += 1
                current = defined_in[offset]
                if current is not None:
                    outgoing &= current
                    if outgoing == current:
                        break
                defined_in[offset] = incoming = outgoing
                continue
            for succ in succs:
                current = defined_in[succ]
                if current is None:
                    defined_in[succ] = outgoing
                    worklist.append(succ)
                else:
                    merged = current & outgoing
                    if merged != current:
                        defined_in[succ] = merged
                        worklist.append(succ)
            break


def _fail_undefined_read(function: BytecodeFunction, offset: int,
                         defined: int) -> None:
    """Name the first register ``code[offset]`` reads that ``defined``
    (the slots written on every path to it) lacks."""
    inst = function.code[offset]
    read_fields, _, _, is_call, _ = _INDEXED_SIGNATURES[inst.op]
    reads = [inst[index] for index in read_fields]
    if is_call:
        reads.extend(inst.lit[1])
    for slot in reads:
        if not (defined >> slot) & 1:
            _fail(f"{Opcode(inst.op).name} reads register {slot}, which is "
                  f"not defined on every path from entry", function, offset)


# --------------------------------------------------------------------------- #
# allocation / liveness cross-check
# --------------------------------------------------------------------------- #
def verify_allocation(function: Function, allocation: RegisterAllocation,
                      loop_info: Optional[LoopInfo] = None) -> None:
    """Check an allocation against a fresh liveness computation.

    Raises :class:`BytecodeVerificationError` when two values whose live
    ranges may overlap share a register slot, when a value has no slot, or
    when a value's slot collides with the constant pool.  The overlap rules
    mirror the allocator's own reuse discipline (:mod:`repro.vm.regalloc`):

    * values spanning several blocks conflict when their block intervals
      intersect at all (spanning slots are only recycled after the range's
      last block is fully processed),
    * two values local to the same block conflict unless one's last use
      strictly precedes the other's definition,
    * a block-local value conflicts with any spanning range whose block
      interval covers its block.
    """
    ranges, _info = compute_live_ranges(function, loop_info)
    first_free = RESERVED_SLOTS + len(allocation.constants)

    def fail(message: str) -> None:
        raise BytecodeVerificationError(message,
                                        function_name=function.name)

    by_slot: dict[int, list[LiveRange]] = {}
    for uid, live_range in ranges.items():
        slot = allocation.slot_of.get(uid)
        if slot is None:
            fail(f"value {live_range.value.short_name()} has a live range "
                 f"but no register slot")
        if not (first_free <= slot < allocation.num_registers):
            fail(f"value {live_range.value.short_name()} assigned slot "
                 f"{slot} outside the allocatable region "
                 f"[{first_free}, {allocation.num_registers})")
        by_slot.setdefault(slot, []).append(live_range)

    for slot, shared in by_slot.items():
        if len(shared) < 2:
            continue
        shared.sort(key=lambda r: (r.start_block, r.def_position))
        for i, first in enumerate(shared):
            for second in shared[i + 1:]:
                if second.start_block > first.end_block:
                    break  # sorted by start_block: no later range overlaps
                if _conflicts(first, second):
                    fail(f"values {first.value.short_name()} and "
                         f"{second.value.short_name()} share slot {slot} "
                         f"but their live ranges overlap "
                         f"(blocks [{first.start_block},{first.end_block}] "
                         f"vs [{second.start_block},{second.end_block}])")


def _conflicts(first: LiveRange, second: LiveRange) -> bool:
    """Whether two live ranges may be simultaneously live (allocator rules)."""
    if not first.overlaps(second):
        return False
    if first.single_block and second.single_block:
        # Same block (overlap + single-block implies equal indices): the
        # allocator recycles a local slot only when the previous holder's
        # last use strictly precedes the next definition.
        return not (first.last_use_position < second.def_position
                    or second.last_use_position < first.def_position)
    # At least one range spans blocks: any block-interval intersection is a
    # conflict (spanning slots are held for their whole interval).
    return True
