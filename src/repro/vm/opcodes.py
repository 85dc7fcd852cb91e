"""Bytecode opcodes and the fixed-length instruction encoding.

Every bytecode instruction is a 5-tuple ``(op, a1, a2, a3, lit)``:

* ``op``  -- the :class:`Opcode` (an ``IntEnum``; the VM looks it up once,
  when it builds the instruction's handler),
* ``a1``  -- usually the destination register slot,
* ``a2``/``a3`` -- operand register slots (or branch targets),
* ``lit`` -- an immediate literal (constants, call descriptors, jump targets).

The encoding is deliberately fixed length, mirroring the paper's design: the
interpreter never has to decode variable-length operands, and the translated
function is a flat Python list that stays cache friendly.

Opcodes are statically typed (``ADD_I64`` vs ``ADD_F64``), so no handler
inspects operand types at runtime -- the second property the paper calls out
as essential for a fast interpreter.
"""

from __future__ import annotations

import enum
from typing import NamedTuple


class Opcode(enum.IntEnum):
    """All bytecode opcodes understood by the virtual machine."""

    # -- moves and constants ------------------------------------------------
    MOV = 1                 # regs[a1] = regs[a2]
    LOAD_CONST = 2          # regs[a1] = lit

    # -- 64-bit integer arithmetic (wrapping) --------------------------------
    ADD_I64 = 10            # regs[a1] = wrap(regs[a2] + regs[a3])
    SUB_I64 = 11
    MUL_I64 = 12
    SDIV_I64 = 13
    SREM_I64 = 14
    AND_I64 = 15
    OR_I64 = 16
    XOR_I64 = 17
    SHL_I64 = 18
    ASHR_I64 = 19
    SMIN_I64 = 20
    SMAX_I64 = 21

    # -- 64-bit integer arithmetic, fused overflow check ---------------------
    # On overflow the VM raises a query error (the paper's error code path).
    ADD_CHK_I64 = 25
    SUB_CHK_I64 = 26
    MUL_CHK_I64 = 27
    # standalone overflow predicates (unfused fallback)
    OVF_ADD_I64 = 28
    OVF_SUB_I64 = 29
    OVF_MUL_I64 = 22

    # -- double arithmetic ----------------------------------------------------
    ADD_F64 = 30
    SUB_F64 = 31
    MUL_F64 = 32
    DIV_F64 = 33
    FMIN_F64 = 34
    FMAX_F64 = 35

    # -- comparisons ----------------------------------------------------------
    ICMP_EQ_I64 = 40
    ICMP_NE_I64 = 41
    ICMP_LT_I64 = 42
    ICMP_LE_I64 = 43
    ICMP_GT_I64 = 44
    ICMP_GE_I64 = 45
    FCMP_EQ_F64 = 46
    FCMP_NE_F64 = 47
    FCMP_LT_F64 = 48
    FCMP_LE_F64 = 49
    FCMP_GT_F64 = 50
    FCMP_GE_F64 = 51
    # object comparisons (strings and other runtime objects)
    OCMP_EQ = 52
    OCMP_NE = 53
    OCMP_LT = 54
    OCMP_LE = 55
    OCMP_GT = 56
    OCMP_GE = 57

    # -- select / casts -------------------------------------------------------
    SELECT = 60             # regs[a1] = regs[a2] if regs[lit] else regs[a3]
    SITOFP = 61             # regs[a1] = float(regs[a2])
    FPTOSI = 62             # regs[a1] = int(regs[a2])
    TRUNC = 63              # regs[a1] = wrap(regs[a2], bits=lit)

    # -- memory ---------------------------------------------------------------
    GEP = 70                # regs[a1] = (buf, off + regs[a3]) of pointer a2
    LOAD = 71               # regs[a1] = buf[off] of pointer a2
    STORE = 72              # buf[off] = regs[a1]  (pointer in a2)
    LOAD_IDX = 73           # fused gep+load: regs[a1] = buf[off + regs[a3]]
    STORE_IDX = 74          # fused gep+store: buf[off + regs[a3]] = regs[a1]

    # -- calls ----------------------------------------------------------------
    CALL = 80               # lit = (impl, arg_slots); regs[a1] = impl(*args)
    CALL_VOID = 81          # lit = (impl, arg_slots); impl(*args)

    # -- control flow ---------------------------------------------------------
    BR = 90                 # ip = lit
    CONDBR = 91             # ip = a2 if regs[a1] else a3
    RET = 92                # return None
    RET_VAL = 93            # return regs[a1]
    TRAP = 94               # unreachable reached -> raise

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name.lower()


class BCInstruction(NamedTuple):
    """A single fixed-length bytecode instruction."""

    op: int
    a1: int
    a2: int
    a3: int
    lit: object

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"{Opcode(self.op).name.lower():<12} "
                f"{self.a1:>4} {self.a2:>4} {self.a3:>4} "
                f"{'' if self.lit is None else self.lit}")


#: Opcodes whose ``lit``/operands reference jump targets, patched after layout.
BRANCH_OPCODES = frozenset({Opcode.BR, Opcode.CONDBR})

#: Checked arithmetic opcodes and the exception message they raise.
CHECKED_OPCODES = {
    Opcode.ADD_CHK_I64: "integer addition overflow",
    Opcode.SUB_CHK_I64: "integer subtraction overflow",
    Opcode.MUL_CHK_I64: "integer multiplication overflow",
}

#: Map (binary IR opcode, is_float) -> VM opcode for plain arithmetic.
BINARY_TO_OPCODE = {
    ("add", False): Opcode.ADD_I64,
    ("sub", False): Opcode.SUB_I64,
    ("mul", False): Opcode.MUL_I64,
    ("sdiv", False): Opcode.SDIV_I64,
    ("srem", False): Opcode.SREM_I64,
    ("and", False): Opcode.AND_I64,
    ("or", False): Opcode.OR_I64,
    ("xor", False): Opcode.XOR_I64,
    ("shl", False): Opcode.SHL_I64,
    ("ashr", False): Opcode.ASHR_I64,
    ("smin", False): Opcode.SMIN_I64,
    ("smax", False): Opcode.SMAX_I64,
    ("fadd", True): Opcode.ADD_F64,
    ("fsub", True): Opcode.SUB_F64,
    ("fmul", True): Opcode.MUL_F64,
    ("fdiv", True): Opcode.DIV_F64,
    ("fmin", True): Opcode.FMIN_F64,
    ("fmax", True): Opcode.FMAX_F64,
}

#: Map (predicate, kind) -> comparison opcode; kind is "i", "f" or "o".
COMPARE_TO_OPCODE = {
    ("eq", "i"): Opcode.ICMP_EQ_I64,
    ("ne", "i"): Opcode.ICMP_NE_I64,
    ("lt", "i"): Opcode.ICMP_LT_I64,
    ("le", "i"): Opcode.ICMP_LE_I64,
    ("gt", "i"): Opcode.ICMP_GT_I64,
    ("ge", "i"): Opcode.ICMP_GE_I64,
    ("eq", "f"): Opcode.FCMP_EQ_F64,
    ("ne", "f"): Opcode.FCMP_NE_F64,
    ("lt", "f"): Opcode.FCMP_LT_F64,
    ("le", "f"): Opcode.FCMP_LE_F64,
    ("gt", "f"): Opcode.FCMP_GT_F64,
    ("ge", "f"): Opcode.FCMP_GE_F64,
    ("eq", "o"): Opcode.OCMP_EQ,
    ("ne", "o"): Opcode.OCMP_NE,
    ("lt", "o"): Opcode.OCMP_LT,
    ("le", "o"): Opcode.OCMP_LE,
    ("gt", "o"): Opcode.OCMP_GT,
    ("ge", "o"): Opcode.OCMP_GE,
}

#: Map checked IR opcode -> fused checked VM opcode.
CHECKED_TO_OPCODE = {
    "add": Opcode.ADD_CHK_I64,
    "sub": Opcode.SUB_CHK_I64,
    "mul": Opcode.MUL_CHK_I64,
}

#: Map checked IR opcode -> standalone overflow-predicate VM opcode.
OVERFLOW_TO_OPCODE = {
    "add": Opcode.OVF_ADD_I64,
    "sub": Opcode.OVF_SUB_I64,
    "mul": Opcode.OVF_MUL_I64,
}


class OpcodeSignature(NamedTuple):
    """Static register/control effects of one opcode.

    ``reads`` / ``writes`` name the instruction fields (``"a1"``, ``"a2"``,
    ``"a3"``, ``"lit"``) holding register slots the instruction reads or
    writes; ``jumps`` names fields holding absolute jump targets.  ``call``
    marks the two call opcodes, whose ``lit`` is an ``(impl, arg_slots)``
    descriptor (the tuple's slots are all read).  ``falls_through`` is False
    for every opcode after which execution never reaches ``ip + 1``.

    This table is the single source of truth for the bytecode verifier's
    abstract interpretation (:mod:`repro.analysis.bytecode_verifier`); a new
    opcode without a signature is itself a verification failure.
    """

    reads: tuple = ()
    writes: tuple = ()
    jumps: tuple = ()
    call: bool = False
    falls_through: bool = True


def _binary_signature() -> OpcodeSignature:
    return OpcodeSignature(reads=("a2", "a3"), writes=("a1",))


def _unary_signature() -> OpcodeSignature:
    return OpcodeSignature(reads=("a2",), writes=("a1",))


#: Opcode -> :class:`OpcodeSignature` for every opcode the VM understands.
OPCODE_SIGNATURES: dict = {
    Opcode.MOV: _unary_signature(),
    Opcode.LOAD_CONST: OpcodeSignature(writes=("a1",)),
    # SELECT reads its condition register out of ``lit``.
    Opcode.SELECT: OpcodeSignature(reads=("a2", "a3", "lit"), writes=("a1",)),
    Opcode.SITOFP: _unary_signature(),
    Opcode.FPTOSI: _unary_signature(),
    Opcode.TRUNC: _unary_signature(),        # lit is a bit width, not a slot
    Opcode.GEP: OpcodeSignature(reads=("a2", "a3"), writes=("a1",)),
    Opcode.LOAD: _unary_signature(),
    Opcode.STORE: OpcodeSignature(reads=("a1", "a2")),
    Opcode.LOAD_IDX: OpcodeSignature(reads=("a2", "a3"), writes=("a1",)),
    Opcode.STORE_IDX: OpcodeSignature(reads=("a1", "a2", "a3")),
    Opcode.CALL: OpcodeSignature(writes=("a1",), call=True),
    Opcode.CALL_VOID: OpcodeSignature(call=True),
    Opcode.BR: OpcodeSignature(jumps=("lit",), falls_through=False),
    Opcode.CONDBR: OpcodeSignature(reads=("a1",), jumps=("a2", "a3"),
                                   falls_through=False),
    Opcode.RET: OpcodeSignature(falls_through=False),
    Opcode.RET_VAL: OpcodeSignature(reads=("a1",), falls_through=False),
    Opcode.TRAP: OpcodeSignature(falls_through=False),
}

# All two-operand arithmetic / comparison / overflow-predicate opcodes share
# the (reads a2+a3, writes a1) shape.
for _op in (Opcode.ADD_I64, Opcode.SUB_I64, Opcode.MUL_I64, Opcode.SDIV_I64,
            Opcode.SREM_I64, Opcode.AND_I64, Opcode.OR_I64, Opcode.XOR_I64,
            Opcode.SHL_I64, Opcode.ASHR_I64, Opcode.SMIN_I64, Opcode.SMAX_I64,
            Opcode.ADD_CHK_I64, Opcode.SUB_CHK_I64, Opcode.MUL_CHK_I64,
            Opcode.OVF_ADD_I64, Opcode.OVF_SUB_I64, Opcode.OVF_MUL_I64,
            Opcode.ADD_F64, Opcode.SUB_F64, Opcode.MUL_F64, Opcode.DIV_F64,
            Opcode.FMIN_F64, Opcode.FMAX_F64,
            Opcode.ICMP_EQ_I64, Opcode.ICMP_NE_I64, Opcode.ICMP_LT_I64,
            Opcode.ICMP_LE_I64, Opcode.ICMP_GT_I64, Opcode.ICMP_GE_I64,
            Opcode.FCMP_EQ_F64, Opcode.FCMP_NE_F64, Opcode.FCMP_LT_F64,
            Opcode.FCMP_LE_F64, Opcode.FCMP_GT_F64, Opcode.FCMP_GE_F64,
            Opcode.OCMP_EQ, Opcode.OCMP_NE, Opcode.OCMP_LT, Opcode.OCMP_LE,
            Opcode.OCMP_GT, Opcode.OCMP_GE):
    OPCODE_SIGNATURES[_op] = _binary_signature()
del _op
