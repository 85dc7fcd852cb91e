"""Common subexpression elimination.

Pure instructions (arithmetic, comparisons, casts, selects, geps, calls to
side-effect-free externs) that compute the same expression as an earlier
instruction in a dominating position are replaced by the earlier value.

Loads count as pure in a function without a ``store``.  The code generator
emits none, and what worker functions read -- table columns (append-only:
a row's value never changes once written) and materialised aggregate
intermediates (filled before the pipeline that scans them starts) -- is not
written while they run, so two loads of one element read one value.  A
``(buffer, offset)`` pointer constant is keyed by the buffer's identity and
the offset: the generator builds a fresh pair per column reference, so the
loads of one column in one row meet at the same key.

The implementation performs dominator-tree scoped value numbering: walking
the dominator tree top-down, an expression table maps structural keys to the
first value computing them; entries added in a subtree are popped when the
walk leaves it.  Uses of a removed instruction are forwarded to its survivor
in the same walk, so the pass is linear (no whole-function walk per
replacement).
"""

from __future__ import annotations

from ..ir.analysis import compute_dominator_tree
from ..ir.function import Function
from ..ir.instructions import (
    BinaryInst,
    CastInst,
    CompareInst,
    GEPInst,
    LoadInst,
    OverflowCheckInst,
    SelectInst,
    StoreInst,
    CallInst,
)
from ..ir.values import Constant, Value


def _operand_key(value: Value):
    if isinstance(value, Constant):
        if value.type.is_pointer:
            pointer = value.value
            if type(pointer) is tuple:
                # A ``(buffer, offset)`` pointer: the generator builds a
                # fresh pair per column reference, so key by the buffer.
                buffer, offset = pointer
                return ("const-ptr", id(buffer), offset)
            return ("const-ptr", id(pointer))
        return ("const", value.type.name, value.value)
    return ("val", value.uid)


def _expression_key(inst, loads_are_pure: bool):
    if isinstance(inst, BinaryInst):
        key = [inst.opcode]
        operands = [_operand_key(inst.lhs), _operand_key(inst.rhs)]
        if inst.opcode in ("add", "mul", "fadd", "fmul", "and", "or", "xor",
                           "smin", "smax", "fmin", "fmax"):
            operands.sort()  # commutative
        return tuple(key + operands)
    if isinstance(inst, OverflowCheckInst):
        return ("ovf", inst.checked_opcode, _operand_key(inst.lhs),
                _operand_key(inst.rhs))
    if isinstance(inst, CompareInst):
        return (inst.opcode, inst.predicate, _operand_key(inst.lhs),
                _operand_key(inst.rhs))
    if isinstance(inst, CastInst):
        return (inst.opcode, inst.type.name, _operand_key(inst.value))
    if isinstance(inst, SelectInst):
        return ("select", _operand_key(inst.condition),
                _operand_key(inst.then_value), _operand_key(inst.else_value))
    if isinstance(inst, GEPInst):
        return ("gep", _operand_key(inst.base), _operand_key(inst.index))
    if isinstance(inst, LoadInst) and loads_are_pure:
        return ("load", inst.type.name, _operand_key(inst.pointer))
    if isinstance(inst, CallInst) and not inst.has_side_effects:
        return tuple(["call", inst.callee.name]
                     + [_operand_key(a) for a in inst.args])
    return None


class CommonSubexpressionEliminationPass:
    """Dominator-scoped value numbering."""

    name = "cse"

    def run(self, function: Function) -> bool:
        if not function.blocks:
            return False
        dom_tree = compute_dominator_tree(function)
        order, children = dom_tree.order, dom_tree.children
        changed = False
        table: dict = {}
        loads_are_pure = not any(isinstance(inst, StoreInst)
                                 for inst in function.instructions())

        # A removed instruction's uses are forwarded to its survivor as the
        # walk reaches them (definitions dominate uses, so a use is visited
        # after its definition was numbered); one sweep at the end catches
        # phi operands along back edges and unreachable blocks.
        survivors: dict = {}

        def forward(inst) -> None:
            for operand in inst.operands:
                survivor = survivors.get(operand.uid)
                if survivor is not None:
                    inst.replace_operand(operand, survivor)

        # Iterative dominator-tree DFS with scope markers (~b leaves b).
        stack = [0]
        scopes: list[list] = []
        while stack:
            b = stack.pop()
            if b < 0:
                for key in scopes.pop():
                    table.pop(key, None)
                continue
            added: list = []
            scopes.append(added)
            stack.append(~b)
            block = order[b]
            kept = []
            for inst in block.instructions:
                if survivors:
                    forward(inst)
                key = _expression_key(inst, loads_are_pure)
                if key is not None:
                    existing = table.get(key)
                    if existing is not None:
                        survivors[inst.uid] = existing
                        continue
                    table[key] = inst
                    added.append(key)
                kept.append(inst)
            if len(kept) != len(block.instructions):
                block.instructions[:] = kept
            stack.extend(reversed(children[b]))
        if not survivors:
            return False
        for inst in function.instructions():
            forward(inst)
        return True
