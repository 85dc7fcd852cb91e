"""Bytecode function container and disassembler."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from .opcodes import BCInstruction, Opcode


@dataclass
class BytecodeFunction:
    """A translated function ready for interpretation.

    Attributes
    ----------
    name:
        Name of the originating IR function.
    code:
        Flat list of :class:`BCInstruction`; branch operands are absolute
        instruction indices.
    num_registers:
        Size of the register file (in slots).  The register file is laid out
        as ``[0, 1, constants..., arguments..., temporaries...]`` -- the first
        two slots always hold the constants 0 and 1, mirroring the paper.
    constant_slots:
        Pairs of ``(slot, value)`` initialised when a frame is created.
    arg_slots:
        Register slot of each formal argument, in argument order.
    block_offsets:
        Map from basic-block name to the instruction index of its first
        opcode (used by tests and the disassembler).
    handlers:
        The threaded code the VM runs, built from ``code`` and
        ``constant_slots`` by :func:`repro.vm.interpreter.build_handlers`
        (eagerly by the translator, else on first execution).  Not an
        ``__init__`` field, so a ``dataclasses.replace`` copy starts without
        handlers and builds its own from its own ``code``.
    """

    name: str
    code: list[BCInstruction]
    num_registers: int
    constant_slots: list[tuple[int, object]]
    arg_slots: list[int]
    block_offsets: dict[str, int] = field(default_factory=dict)
    source_instruction_count: int = 0
    handlers: Optional[tuple] = field(default=None, init=False, repr=False,
                                      compare=False)

    # ------------------------------------------------------------------ #
    # frames
    # ------------------------------------------------------------------ #
    def make_register_file(self, args: Sequence[object]) -> list:
        """Allocate and initialise a register file for one invocation.

        The allocation is a plain Python list, the closest equivalent of the
        paper's stack-allocated register file.
        """
        regs = [0] * self.num_registers
        if self.num_registers >= 2:
            regs[0] = 0
            regs[1] = 1
        for slot, value in self.constant_slots:
            regs[slot] = value
        if len(args) != len(self.arg_slots):
            raise ValueError(
                f"{self.name}: expected {len(self.arg_slots)} arguments, "
                f"got {len(args)}")
        for slot, value in zip(self.arg_slots, args):
            regs[slot] = value
        return regs

    # ------------------------------------------------------------------ #
    # metrics
    # ------------------------------------------------------------------ #
    @property
    def register_file_bytes(self) -> int:
        """Register file size in bytes, assuming 8-byte slots (paper IV-C)."""
        return self.num_registers * 8

    def __len__(self) -> int:
        return len(self.code)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<BytecodeFunction {self.name}: {len(self.code)} insts, "
                f"{self.num_registers} regs>")


def disassemble(function: BytecodeFunction) -> str:
    """Human-readable dump of a bytecode function (for tests and debugging)."""
    offset_to_block = {off: name for name, off in function.block_offsets.items()}
    lines = [f"; function {function.name}: {function.num_registers} registers"]
    for slot, value in function.constant_slots:
        lines.append(f";   const r{slot} = {value!r}")
    for idx, arg_slot in enumerate(function.arg_slots):
        lines.append(f";   arg{idx} -> r{arg_slot}")
    for addr, inst in enumerate(function.code):
        block = offset_to_block.get(addr)
        if block is not None:
            lines.append(f"{block}:")
        op = Opcode(inst.op)
        if op in (Opcode.CALL, Opcode.CALL_VOID):
            impl, arg_slots = inst.lit
            args = ", ".join(f"r{slot}" for slot in arg_slots)
            target = getattr(impl, "__name__", repr(impl))
            if op is Opcode.CALL:
                lines.append(f"  {addr:4}  call        r{inst.a1} = "
                             f"{target}({args})")
            else:
                lines.append(f"  {addr:4}  call_void   {target}({args})")
        elif op is Opcode.BR:
            lines.append(f"  {addr:4}  br          -> {inst.lit}")
        elif op is Opcode.CONDBR:
            lines.append(f"  {addr:4}  condbr      r{inst.a1} ? "
                         f"{inst.a2} : {inst.a3}")
        elif op is Opcode.LOAD_CONST:
            lines.append(f"  {addr:4}  load_const  r{inst.a1} = {inst.lit!r}")
        else:
            lines.append(f"  {addr:4}  {op.name.lower():<11} "
                         f"r{inst.a1} r{inst.a2} r{inst.a3}"
                         + (f" lit={inst.lit!r}" if inst.lit is not None else ""))
    return "\n".join(lines)
