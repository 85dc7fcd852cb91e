"""IRBuilder: the fluent construction API used by the query code generator.

The builder keeps an insertion block and offers one method per instruction,
mirroring ``llvm::IRBuilder``.  It also provides the higher-level
``checked_add``/``checked_sub``/``checked_mul`` helpers that emit the paper's
overflow-check sequence (arithmetic + overflow predicate + conditional branch
to an error block), which the bytecode translator later fuses into a single
opcode.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..errors import IRError
from .types import IRType, i1, i64, f64, ptr, void
from .values import Constant, Value
from .instructions import (
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
from .function import BasicBlock, ExternFunction, Function, Module


class IRBuilder:
    """Builds instructions into a current insertion block."""

    def __init__(self, function: Function, block: Optional[BasicBlock] = None):
        self.function = function
        if block is not None:
            self.block = block
        elif function.blocks:
            self.block = function.blocks[0]
        else:
            self.block = function.add_block("entry")

    # ------------------------------------------------------------------ #
    # positioning
    # ------------------------------------------------------------------ #
    def set_block(self, block: BasicBlock) -> BasicBlock:
        self.block = block
        return block

    def new_block(self, name: str = "") -> BasicBlock:
        return self.function.add_block(name)

    def _emit(self, inst):
        return self.block.append(inst)

    # ------------------------------------------------------------------ #
    # constants
    # ------------------------------------------------------------------ #
    def const_i64(self, value: int) -> Constant:
        return Constant.int64(value)

    def const_f64(self, value: float) -> Constant:
        return Constant.float64(value)

    def const_ptr(self, obj) -> Constant:
        return Constant.pointer(obj)

    # ------------------------------------------------------------------ #
    # arithmetic
    # ------------------------------------------------------------------ #
    def binary(self, opcode: str, lhs: Value, rhs: Value, name: str = "") -> Value:
        return self._emit(BinaryInst(opcode, lhs, rhs, name))

    def add(self, lhs, rhs, name=""):
        return self.binary("fadd" if lhs.type.is_float else "add", lhs, rhs, name)

    def sub(self, lhs, rhs, name=""):
        return self.binary("fsub" if lhs.type.is_float else "sub", lhs, rhs, name)

    def mul(self, lhs, rhs, name=""):
        return self.binary("fmul" if lhs.type.is_float else "mul", lhs, rhs, name)

    def div(self, lhs, rhs, name=""):
        return self.binary("fdiv" if lhs.type.is_float else "sdiv", lhs, rhs, name)

    def and_(self, lhs, rhs, name=""):
        return self.binary("and", lhs, rhs, name)

    def or_(self, lhs, rhs, name=""):
        return self.binary("or", lhs, rhs, name)

    def xor(self, lhs, rhs, name=""):
        return self.binary("xor", lhs, rhs, name)

    def smin(self, lhs, rhs, name=""):
        return self.binary("fmin" if lhs.type.is_float else "smin", lhs, rhs, name)

    def smax(self, lhs, rhs, name=""):
        return self.binary("fmax" if lhs.type.is_float else "smax", lhs, rhs, name)

    def overflow_check(self, opcode: str, lhs: Value, rhs: Value,
                       name: str = "") -> Value:
        return self._emit(OverflowCheckInst(opcode, lhs, rhs, name))

    # ------------------------------------------------------------------ #
    # comparisons / selects / casts
    # ------------------------------------------------------------------ #
    def cmp(self, predicate: str, lhs: Value, rhs: Value, name: str = "") -> Value:
        return self._emit(CompareInst(predicate, lhs, rhs, name))

    def select(self, cond: Value, then_value: Value, else_value: Value,
               name: str = "") -> Value:
        return self._emit(SelectInst(cond, then_value, else_value, name))

    def sitofp(self, value: Value, name: str = "") -> Value:
        return self._emit(CastInst("sitofp", value, f64, name))

    def fptosi(self, value: Value, name: str = "") -> Value:
        return self._emit(CastInst("fptosi", value, i64, name))

    def zext(self, value: Value, to_type: IRType, name: str = "") -> Value:
        return self._emit(CastInst("zext", value, to_type, name))

    def sext(self, value: Value, to_type: IRType, name: str = "") -> Value:
        return self._emit(CastInst("sext", value, to_type, name))

    def trunc(self, value: Value, to_type: IRType, name: str = "") -> Value:
        return self._emit(CastInst("trunc", value, to_type, name))

    # ------------------------------------------------------------------ #
    # memory
    # ------------------------------------------------------------------ #
    def gep(self, base: Value, index: Value, name: str = "") -> Value:
        return self._emit(GEPInst(base, index, name))

    def load(self, ty: IRType, pointer: Value, name: str = "") -> Value:
        return self._emit(LoadInst(ty, pointer, name))

    def store(self, value: Value, pointer: Value) -> Value:
        return self._emit(StoreInst(value, pointer))

    # ------------------------------------------------------------------ #
    # calls
    # ------------------------------------------------------------------ #
    def call(self, callee, args: Sequence[Value], name: str = "") -> Value:
        if isinstance(callee, ExternFunction):
            if len(args) != len(callee.arg_types):
                raise IRError(
                    f"call to @{callee.name}: expected "
                    f"{len(callee.arg_types)} args, got {len(args)}")
            if self.function.module is not None:
                self.function.module.declare_extern(callee)
        return self._emit(CallInst(callee, args, name))

    # ------------------------------------------------------------------ #
    # control flow
    # ------------------------------------------------------------------ #
    def phi(self, ty: IRType, name: str = "") -> PhiInst:
        phi = PhiInst(ty, name)
        # Phis must be grouped at the top of the block.
        if self.block.is_terminated:
            raise IRError("cannot add phi to a terminated block")
        phi.block = self.block
        insert_at = 0
        for idx, inst in enumerate(self.block.instructions):
            if isinstance(inst, PhiInst):
                insert_at = idx + 1
            else:
                break
        self.block.instructions.insert(insert_at, phi)
        return phi

    def br(self, target: BasicBlock) -> Value:
        return self._emit(BranchInst(target))

    def condbr(self, cond: Value, true_target: BasicBlock,
               false_target: BasicBlock) -> Value:
        return self._emit(CondBranchInst(cond, true_target, false_target))

    def ret(self, value: Optional[Value] = None) -> Value:
        return self._emit(ReturnInst(value))

    def unreachable(self) -> Value:
        return self._emit(UnreachableInst())

    # ------------------------------------------------------------------ #
    # composite helpers
    # ------------------------------------------------------------------ #
    def checked_arith(self, opcode: str, lhs: Value, rhs: Value,
                      error_block: BasicBlock, name: str = "") -> Value:
        """Emit overflow-checked integer arithmetic.

        Produces the canonical four-part sequence the paper describes for
        overflow checking: the arithmetic itself, the overflow predicate, a
        conditional branch to ``error_block`` and a fresh continuation block
        that becomes the new insertion point.
        """
        result = self.binary(opcode, lhs, rhs, name)
        flag = self.overflow_check(opcode, lhs, rhs)
        cont = self.new_block(f"{self.block.name}.ovf.cont")
        self.condbr(flag, error_block, cont)
        self.set_block(cont)
        return result

    def checked_add(self, lhs, rhs, error_block, name=""):
        return self.checked_arith("add", lhs, rhs, error_block, name)

    def checked_sub(self, lhs, rhs, error_block, name=""):
        return self.checked_arith("sub", lhs, rhs, error_block, name)

    def checked_mul(self, lhs, rhs, error_block, name=""):
        return self.checked_arith("mul", lhs, rhs, error_block, name)

    def count_loop(self, begin: Value, end: Value, body_name: str = "loop"):
        """Open a canonical counted loop ``for i in [begin, end)``.

        Returns ``(index_phi, body_block, exit_block, latch_callback)``; the
        caller emits the body starting at ``body_block`` and finally calls
        ``latch_callback()`` to close the loop.  This is the shape every
        table-scan worker function uses.
        """
        head = self.new_block(f"{body_name}.head")
        body = self.new_block(f"{body_name}.body")
        exit_block = self.new_block(f"{body_name}.exit")

        preheader = self.block
        self.br(head)

        self.set_block(head)
        index = self.phi(i64, name=f"{body_name}.i")
        index.add_incoming(begin, preheader)
        in_range = self.cmp("lt", index, end)
        self.condbr(in_range, body, exit_block)

        self.set_block(body)

        def close_loop():
            next_index = self.add(index, self.const_i64(1))
            index.add_incoming(next_index, self.block)
            self.br(head)
            self.set_block(exit_block)

        return index, body, exit_block, close_loop
