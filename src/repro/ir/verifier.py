"""Structural verification of IR functions and modules.

The verifier catches code-generation bugs early and is run by the test suite
on every module the query compiler produces.  It checks the same invariants
LLVM's verifier would for our instruction subset:

* every block ends in exactly one terminator and has no terminator earlier,
* phi nodes appear only at the top of a block and have exactly one incoming
  value per predecessor,
* every operand is defined in the function (SSA: defined exactly once) and
  its definition dominates the use,
* instruction result types are consistent with their operands,
* call argument counts/types match the callee's declaration.

Failures raise :class:`repro.errors.IRVerificationError` carrying the
function, block and offending instruction (rendered via
:mod:`repro.ir.printer`), so a CI failure names the exact defect site.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Optional

from ..errors import IRVerificationError
from .analysis import immediate_dominators, reverse_postorder
from .function import BasicBlock, Function, Module
from .instructions import CallInst, PhiInst
from .values import Argument, Constant, Instruction, Undef, Value

_type_of = attrgetter("type")


def verify_module(module: Module) -> None:
    """Verify every function of a module.  Raises on the first violation."""
    for function in module.functions.values():
        verify_function(function)


def verify_function(function: Function) -> None:
    """Verify a single function.  Raises :class:`IRVerificationError`.

    The pass pipeline re-runs this after every pass that changed a function
    (``REPRO_VERIFY_IR``), so the walk is engineered to stay a small
    fraction of compile time: every block's successors are read once and
    shared by the predecessor map and the reverse postorder, the uses of
    the reachable blocks are checked in one walk, and dominance is answered
    from dominator sets computed only when a cross-block use needs them.
    """
    if not function.blocks:
        raise IRVerificationError("function has no blocks",
                                  function_name=function.name)

    successors: dict[BasicBlock, list[BasicBlock]] = {}
    preds: dict[BasicBlock, list[BasicBlock]] = {
        block: [] for block in function.blocks}
    for block in function.blocks:
        instructions = block.instructions
        if not instructions:
            _fail("empty basic block", function, block)
        terminator = instructions[-1]
        if not terminator.is_terminator:
            _fail(f"block does not end in a terminator "
                  f"(last opcode: {terminator.opcode})",
                  function, block, terminator)
        successors[block] = targets = terminator.successors()
        for target in targets:
            target_preds = preds.get(target)
            if target_preds is None:
                _fail(f"branch to block {target.name} of another function",
                      function, block, terminator)
            target_preds.append(block)

    for block in function.blocks:
        _verify_placement(function, block)
    order = reverse_postorder(function, successors)
    _verify_reachable(function, order, preds)


def _fail(message: str, function: Function,
          block: Optional[BasicBlock] = None,
          inst: Optional[Instruction] = None) -> None:
    """Raise a verification error with full location context attached."""
    snippet = None
    if inst is not None:
        from .printer import _value_names, format_instruction
        try:
            snippet = format_instruction(inst, _value_names(function))
        except Exception:  # a malformed instruction must not mask the error
            snippet = repr(inst)
        if block is None:
            block = inst.block
    raise IRVerificationError(
        message,
        function_name=function.name,
        block_name=block.name if block is not None else None,
        instruction=snippet)


# --------------------------------------------------------------------------- #
# individual checks
# --------------------------------------------------------------------------- #
def _verify_placement(function: Function, block: BasicBlock) -> None:
    """Parent links, terminator and phi placement of one block."""
    instructions = block.instructions
    last = len(instructions) - 1
    seen_non_phi = False
    for idx, inst in enumerate(instructions):
        if inst.block is not block:
            _fail(f"instruction {inst.opcode} has a stale "
                  f"parent-block link", function, block, inst)
        if inst.is_terminator and idx != last:
            _fail(f"terminator {inst.opcode} in the middle of a block",
                  function, block, inst)
        if isinstance(inst, PhiInst):
            if seen_non_phi:
                _fail("phi after non-phi", function, block, inst)
        else:
            seen_non_phi = True


def _dominator_sets(order: list[BasicBlock], preds: dict
                    ) -> dict[BasicBlock, set]:
    """Every reachable block's dominators (itself included).

    One pass in reverse postorder intersects the sets of the predecessors
    already visited, which gives the dominators of the graph without its
    retreating edges.  When every retreating edge ``p -> b`` has ``b``
    among ``p``'s dominators, the graph is reducible and those are its
    dominators too (a path using such an edge passes every dominator of
    ``b`` before it reaches ``p``); otherwise they come from
    :func:`immediate_dominators`.
    """
    dominators: dict[BasicBlock, set] = {}
    retreating = []
    for block in order:
        found = None
        for pred in preds[block]:
            pred_dominators = dominators.get(pred)
            if pred_dominators is None:
                retreating.append((pred, block))
            elif found is None:
                found = set(pred_dominators)
            else:
                found &= pred_dominators
        if found is None:  # the entry
            found = set()
        found.add(block)
        dominators[block] = found
    if all(pred not in dominators or block in dominators[pred]
           for pred, block in retreating):
        return dominators
    index = {block: i for i, block in enumerate(order)}
    idom = immediate_dominators(
        [[index[p] for p in preds[block] if p in index] for block in order])
    for i, block in enumerate(order):
        dominators[block] = {block}
        if idom[i] >= 0:
            dominators[block] |= dominators[order[idom[i]]]
    return dominators


def _verify_reachable(function: Function, order: list[BasicBlock],
                      preds: dict) -> None:
    """Phi edges, SSA def/use dominance and call signatures of every
    reachable block, in one walk in reverse postorder.

    Defs are recorded as they appear and uses are checked against the defs
    seen so far.  On a valid function only back-edge uses (phi incoming
    from loop latches) are seen before their definition; those go onto
    ``pending`` and are re-checked once every def is known.  A def seen
    earlier in the use's own block is therefore above the use, and a
    non-phi use still pending at the end is below its def or in a block its
    def does not dominate.
    """
    # Dominator sets are only needed for cross-block uses; straight-line
    # functions never pay for them.
    dominator_sets: dict[BasicBlock, set] = {}

    def dominators(block: BasicBlock) -> Optional[set]:
        """The dominators of ``block``; None if it is unreachable."""
        if not dominator_sets:
            dominator_sets.update(_dominator_sets(order, preds))
        return dominator_sets.get(block)

    def check_phi_use(phi: PhiInst, operand: Instruction,
                      def_block: BasicBlock, block: BasicBlock) -> None:
        # Phi uses are checked against the incoming edge, not the phi's own
        # block: the incoming value must dominate the incoming block.
        for value, incoming_block in phi.incoming:
            if value is operand:
                incoming_dominators = dominators(incoming_block)
                if incoming_dominators is not None \
                        and def_block not in incoming_dominators:
                    _fail(f"phi incoming value {operand.short_name()} "
                          f"does not dominate edge from "
                          f"{incoming_block.name}", function, block, phi)

    defs: dict[Instruction, BasicBlock] = {}  # value -> defining block
    arguments = {arg.uid for arg in function.args}
    pending: list[tuple] = []

    for block in order:
        block_dominators = None
        for inst in block.instructions:
            # Exact class tests: neither instruction class has subclasses.
            cls = inst.__class__
            is_phi = cls is PhiInst
            if is_phi:
                if {b for _, b in inst.incoming} != set(preds[block]):
                    pred_names = sorted(p.name for p in preds[block])
                    inc_names = sorted(b.name for _, b in inst.incoming)
                    _fail(f"phi incoming blocks {inc_names} do not match "
                          f"predecessors {pred_names}", function, block, inst)
            for operand in inst.operands:
                def_block = defs.get(operand)
                if def_block is not None:
                    if is_phi:
                        check_phi_use(inst, operand, def_block, block)
                    elif def_block is not block:
                        if block_dominators is None:
                            block_dominators = dominators(block)
                        if def_block not in block_dominators:
                            _fail(f"definition of {operand.short_name()} "
                                  f"(in {def_block.name}) does not "
                                  f"dominate this use", function, block, inst)
                elif isinstance(operand, Instruction):
                    pending.append((block, inst, operand))
                elif isinstance(operand, (Constant, Undef)):
                    pass
                elif isinstance(operand, Argument):
                    if operand.uid not in arguments:
                        _fail(f"use of foreign argument "
                              f"{operand.short_name()}",
                              function, block, inst)
                else:
                    _fail(f"operand {operand!r} is not a value",
                          function, block, inst)
            if inst.type.name != "void":  # has_result, sans property calls
                if inst in defs:
                    _fail(f"value {inst.short_name()} defined more than "
                          f"once (SSA violation)", function, block, inst)
                defs[inst] = block
            if cls is CallInst:
                _check_call(function, block, inst)

    for block, inst, operand in pending:
        def_block = defs.get(operand)
        if def_block is None:
            _fail(f"use of value {operand.short_name()} that is never "
                  f"defined (or defined in an unreachable block)",
                  function, block, inst)
        if isinstance(inst, PhiInst):
            check_phi_use(inst, operand, def_block, block)
        elif def_block is block:
            _fail(f"value {operand.short_name()} used before its "
                  f"definition", function, block, inst)
        elif def_block not in dominators(block):
            _fail(f"definition of {operand.short_name()} (in "
                  f"{def_block.name}) does not dominate this use",
                  function, block, inst)


def _check_call(function: Function, block: BasicBlock,
                inst: CallInst) -> None:
    callee = inst.callee
    arg_types = getattr(callee, "arg_types", None)
    if arg_types is None:
        # Call to another IR function: check against its argument list.
        arg_types = tuple(arg.type for arg in callee.args)
    args = inst.operands
    if len(arg_types) != len(args):
        _fail(f"call to @{callee.name} expects {len(arg_types)} "
              f"arguments, got {len(args)}",
              function, block, inst)
    # Types are interned, so the tuple comparison's identity shortcut
    # settles nearly every call without a Python-level ``__eq__``.
    if tuple(map(_type_of, args)) == tuple(arg_types):
        return
    for expected, actual in zip(arg_types, args):
        if expected != actual.type:
            _fail(f"call to @{callee.name} argument type mismatch: "
                  f"expected {expected}, got {actual.type}",
                  function, block, inst)
