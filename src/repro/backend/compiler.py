"""Lowering of query IR to executable Python (the "machine code" tiers).

Both tiers share one lowering; they differ, as in the paper, only in
whether the pass pipeline ran first.  ``unoptimized`` lowers the IR as
code generation left it; ``optimized`` runs the pipeline over a clone and
lowers that.  The lowering emits one function whose SSA values are locals
and whose control flow is *structured*, following Ramsey's "Beyond
Relooper" (ICFP 2022) without the labels Python lacks, driven by the
dominator tree:

* a loop header becomes ``while True:``, a back edge ``continue`` and a
  loop exit ``break``; the blocks a loop exits to follow its ``while``;
* a *morsel loop* -- header holding only the counter phi ``i`` and a fused
  ``i < end`` over the worker's ``end`` argument, every back edge carrying
  an ``i + 1`` nothing else uses, ``i`` unused outside the loop, no phi in
  the exit block -- runs without its increment or phi copy.  It runs per
  chunk: ``while i < end:`` binds the chunk index, base and clamped limit
  and each counter-indexed column's chunk list to locals, then ``for j in
  range(i - base, limit):`` reads ``k[j]``, materialising ``i = base + j``
  only if something else reads ``i``.  A body that can leave the loop
  other than through its header (a trap's ``raise`` aside), or column
  reads without one shared chunk shift and offset 0, or none, make it a
  plain ``for i in range(i, end):`` instead.  Either way a zero-argument
  pure extern call in the body (a bind-parameter load) runs once, before
  the loop.  Inner probe loops stay ``while True:`` (with 0-2 matches per
  probe a ``range`` costs more than it saves);
* a successor with one forward predecessor is nested inline under its
  ``if``/``else``; a merge block follows the construct that jumps to it;
* the shared ``overflow.error`` block (any phi-free block ending in
  ``unreachable``) is duplicated as an inline ``raise``, and a small loop
  latch is duplicated in front of ``continue``, so checked arithmetic and
  filter chains stay flat instead of nesting;
* a comparison or overflow check used only by its block's branch is fused
  into the ``if``.

Each IR instruction becomes Python through :func:`_emit_instruction`,
which keeps the per-row path free of generic machinery:

* a column read ``load(gep((buffer, 0), i))`` at a per-chunk morsel loop's
  counter is one subscript ``k[j]`` of a chunk-local list; elsewhere it is
  ``_Kn[i >> shift][i & mask]`` over the :class:`ColumnView`'s chunk list
  (``_Bn[i]`` over a plain intermediate list) -- no pointer tuple, no
  ``ColumnView.__getitem__`` call;
* wrapping ``add``/``sub``/``mul`` test the int64 range inline and call
  ``_wrap64`` only when the result left it;
* a pure extern carrying an :class:`InlineTemplate` (the single-key hash
  probe, the match count, the match payload read) is emitted as that
  expression instead of a call.

A CFG this cannot express -- irreducible, a ``break``/``continue`` across
two loops, or deeper nesting than CPython compiles -- raises
:class:`BackendError` in either tier; there is no second lowering to fall
back to.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional

from ..catalog.table import ColumnView
from ..errors import BackendError
from ..ir.analysis import compute_dominator_tree, natural_loop
from ..ir.function import ExternFunction, Function, InlineTemplate
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
from ..ir.values import Constant, Instruction, Undef, Value
from ..passes import default_pipeline

#: Preamble shared by all generated modules.
_PRELUDE = """\
from repro.errors import DivisionByZeroError, ExecutionError
_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1
_INT64_MASK = (1 << 64) - 1
_INT64_SIGN = 1 << 63

def _wrap64(value):
    value &= _INT64_MASK
    if value & _INT64_SIGN:
        value -= 1 << 64
    return value

def _sdiv(a, b):
    if b == 0:
        raise DivisionByZeroError("integer division by zero")
    q = abs(a) // abs(b)
    if (a < 0) != (b < 0):
        q = -q
    return _wrap64(q)

def _srem(a, b):
    if b == 0:
        raise DivisionByZeroError("integer modulo by zero")
    r = abs(a) % abs(b)
    return -r if a < 0 else r

def _fdiv(a, b):
    if b == 0.0:
        raise DivisionByZeroError("float division by zero")
    return a / b
"""

#: The prelude's definitions, executed once; every generated module starts
#: from a copy.
_PRELUDE_NAMESPACE: dict[str, object] = {}
exec(compile(_PRELUDE, "<backend-prelude>", "exec"), _PRELUDE_NAMESPACE)

#: Inline int64 range test of one expression (literal bounds: no lookups).
_IN_INT64 = f"{-(1 << 63)} <= {{}} <= {(1 << 63) - 1}"

_ARITH_SIGN = {"add": "+", "sub": "-", "mul": "*"}

_PYTHON_COMPARE = {"eq": "==", "ne": "!=", "lt": "<", "le": "<=",
                   "gt": ">", "ge": ">="}

#: A loop latch of at most this many instructions is duplicated in front of
#: ``continue`` rather than reached by falling out of nested ``if``\ s.
_MAX_DUPLICATED_LATCH = 6


@dataclass
class CompiledFunction:
    """An executable lowering of one IR function."""

    name: str
    tier: str
    entry: Callable
    compile_seconds: float
    source: str
    instructions_before: int
    instructions_after: int
    pass_seconds: float = 0.0

    def __call__(self, *args):
        return self.entry(*args)


# --------------------------------------------------------------------------- #
# public API
# --------------------------------------------------------------------------- #
def compile_function(function: Function, tier: str,
                     verify: bool = None) -> CompiledFunction:
    """Compile ``function`` with the given tier (``"unoptimized"``/``"optimized"``).

    ``verify`` controls pass-pipeline validation on the optimized tier
    (re-verifying the IR after each pass that changed it); ``None`` defers
    to the ``REPRO_VERIFY_IR`` environment flag.
    """
    if tier == "unoptimized":
        return compile_unoptimized(function)
    if tier == "optimized":
        return compile_optimized(function, verify=verify)
    raise BackendError(f"unknown compilation tier {tier!r}")


def compile_unoptimized(function: Function) -> CompiledFunction:
    """Cheap lowering: the IR as generated, no passes, so no clone."""
    start = time.perf_counter()
    return _lower_and_load(function, "unoptimized", start,
                           function.instruction_count(), 0.0)


def compile_optimized(function: Function,
                      verify: bool = None) -> CompiledFunction:
    """Full lowering: the pass pipeline over a clone, then the same lowering."""
    start = time.perf_counter()
    target = function.clone()
    before = target.instruction_count()
    pass_stats = default_pipeline(verify=verify).run_function(target)
    return _lower_and_load(target, "optimized", start, before,
                           pass_stats.total_seconds)


def _lower_and_load(function: Function, tier: str, start: float,
                    instructions_before: int,
                    pass_seconds: float) -> CompiledFunction:
    """Lower ``function``, compile and execute the module, and wrap its
    entry; ``start`` is when the tier's compile began."""
    try:
        source, namespace = _lower(function)
        code = compile(source, f"<{tier}:{function.name}>", "exec")
    except (SyntaxError, RecursionError) as exc:  # CPython's nesting limits
        raise BackendError(
            f"@{function.name}: control flow nests too deeply for Python: "
            f"{exc}") from exc
    exec(code, namespace)
    entry = namespace[f"_entry_{_safe(function.name)}"]
    elapsed = time.perf_counter() - start
    return CompiledFunction(
        name=function.name, tier=tier, entry=entry,
        compile_seconds=elapsed, source=source,
        instructions_before=instructions_before,
        instructions_after=function.instruction_count(),
        pass_seconds=pass_seconds)


# --------------------------------------------------------------------------- #
# shared emission helpers
# --------------------------------------------------------------------------- #
def _safe(name: str) -> str:
    return "".join(ch if ch.isalnum() or ch == "_" else "_" for ch in name)


def _local(value: Value) -> str:
    return f"v{value.uid}"


def _users(function: Function) -> dict[int, list[Instruction]]:
    """Instructions using each instruction's result, keyed by uid."""
    users: dict[int, list[Instruction]] = {}
    for block in function.blocks:
        for inst in block.instructions:
            operands = (inst.operands if not isinstance(inst, PhiInst)
                        else [value for value, _ in inst.incoming])
            for operand in operands:
                if isinstance(operand, Instruction):
                    users.setdefault(operand.uid, []).append(inst)
    return users


def _column_pointer(value: Value) -> Optional[tuple]:
    """``(buffer, offset)`` when ``value`` is a constant column pointer."""
    if isinstance(value, Constant) and isinstance(value.value, tuple) \
            and len(value.value) == 2:
        buffer, offset = value.value
        if isinstance(buffer, (ColumnView, list)) and isinstance(offset, int):
            return buffer, offset
    return None


def _is_increment(value: Value, counter: Value) -> bool:
    """Whether ``value`` is ``counter + 1``."""
    if not isinstance(value, BinaryInst) or value.opcode != "add":
        return False
    step = (value.rhs if value.lhs is counter
            else value.lhs if value.rhs is counter else None)
    return isinstance(step, Constant) and step.value == 1


def _offset_index(index: str, offset: int) -> str:
    return index if offset == 0 else f"({index} + {offset})"


class _Namer:
    """Maps IR values to Python identifiers / literals inside generated code.

    Built per function: it also records how the lowering represents
    column pointers, which :func:`_emit_instruction` reads.
    """

    def __init__(self, function: Function,
                 users: dict[int, list[Instruction]]):
        self.namespace: dict[str, object] = {}
        self._bound: dict[int, str] = {}
        self._extern_names: dict[int, str] = {}
        #: gep uid -> ``(buffer, offset)`` for a gep off a constant column
        #: pointer whose every user is a load: its value is the plain
        #: element index, and the loads read the buffer directly.
        self.direct: dict[int, tuple] = {}
        #: Direct geps whose only user is the next instruction: folded
        #: into that load, no value of their own.
        self.folded: set[int] = set()
        #: Wrapping add/sub/mul that provably need no wrap test (filled by
        #: :class:`_Structurer`: an op right before its overflow trap, a
        #: counted loop's increment).
        self.unwrapped: set[int] = set()
        #: Direct geps at the counter of a per-chunk morsel loop (filled by
        #: :class:`_Structurer`): the chunk-local subscript their loads
        #: read.  Such a gep emits nothing itself.
        self.chunk_reads: dict[int, str] = {}
        for block in function.blocks:
            instructions = block.instructions
            for position, inst in enumerate(instructions):
                if not isinstance(inst, GEPInst):
                    continue
                pointer = _column_pointer(inst.base)
                uses = users.get(inst.uid, [])
                if pointer is None or not all(isinstance(user, LoadInst)
                                              for user in uses):
                    continue
                self.direct[inst.uid] = pointer
                if len(uses) == 1 and position + 1 < len(instructions) \
                        and instructions[position + 1] is uses[0]:
                    self.folded.add(inst.uid)

    def bind(self, obj, prefix: str) -> str:
        """The namespace name of ``obj`` (bound once, by identity)."""
        name = self._bound.get(id(obj))
        if name is None:
            name = f"{prefix}{len(self._bound)}"
            self._bound[id(obj)] = name
            self.namespace[name] = obj
        return name

    def constant(self, value: Constant) -> str:
        if value.type.is_pointer:
            return self.bind(value.value, "_C")
        if value.type.is_float:
            return repr(float(value.value))
        return repr(int(value.value))

    def element(self, buffer, index: str) -> str:
        """A call-free Python expression reading ``buffer[index]``."""
        if isinstance(buffer, ColumnView):
            chunks, shift, mask = buffer.chunk_layout()
            name = self.bind(chunks, "_K")
            return f"{name}[{index} >> {shift}][{index} & {mask}]"
        return f"{self.bind(buffer, '_B')}[{index}]"

    def inline(self, template: InlineTemplate, args: list[str]) -> str:
        names = {field: self.bind(obj, "_I")
                 for field, obj in template.objects.items()}
        return template.render(args, names)

    def extern(self, extern: ExternFunction) -> str:
        name = self._extern_names.get(id(extern))
        if name is None:
            if extern.python_impl is None:
                raise BackendError(
                    f"extern @{extern.name} has no runtime binding")
            name = f"_E{len(self._extern_names)}_{_safe(extern.name)}"
            self._extern_names[id(extern)] = name
            self.namespace[name] = extern.python_impl
        return name


# --------------------------------------------------------------------------- #
# the lowering: one structured function, SSA values become locals
# --------------------------------------------------------------------------- #
def _lower(function: Function) -> tuple[str, dict]:
    users = _users(function)
    namer = _Namer(function, users)
    body = _Structurer(function, namer, users).lower()
    params = ", ".join(_local(arg) for arg in function.args)
    lines = [f"def _entry_{_safe(function.name)}({params}):"] + body
    return "\n".join(lines), {**_PRELUDE_NAMESPACE, **namer.namespace}


class _Frame:
    """An enclosing construct of the code being emitted: the ``while`` of
    loop header ``block``, or the region that block ``block`` follows."""

    __slots__ = ("block", "is_loop", "broken")

    def __init__(self, block, is_loop: bool):
        self.block = block
        self.is_loop = is_loop
        #: A ``break`` out of this loop was emitted (code after it runs).
        self.broken = False


@dataclass
class _MorselLoop:
    """How a morsel loop over ``[i, end)`` is lowered (see the module
    docstring)."""

    counter: PhiInst
    #: Zero-argument pure extern calls of the body (bind-parameter loads):
    #: the same value on every row, so called once before the loop.
    invariant: list
    #: ``(chunk list name, local)`` per column the body reads at the
    #: counter; empty for a plain ``for``.
    chunks: tuple = ()
    shift: int = 0
    #: Something other than a chunk-local read uses ``i`` in the body.
    needs_index: bool = False


class _Structurer:
    """Emits one function as structured Python (see the module docstring).

    Emission methods take ``ctx``, the enclosing frames innermost first,
    and return whether control can fall off the end of what they emitted
    -- or, for a block to emit next at the same place, the ``(block, ctx,
    indent)`` to continue with, so that flat chains of blocks are a loop
    here rather than a recursion.
    """

    def __init__(self, function: Function, namer: _Namer,
                 users: dict[int, list[Instruction]]):
        self.function = function
        self.namer = namer
        # Blocks are named by their reverse-postorder index below.
        self.dom = dom = compute_dominator_tree(function)
        self.order = order = dom.order
        self.index = dom.index
        self.traps = {b for b, block in enumerate(order)
                      if isinstance(block.terminator, UnreachableInst)
                      and not block.phis()}

        # Edge classification: forward in-degree (merge blocks have two or
        # more) and the natural loop of every header, from its back edges.
        forward = [0] * len(order)
        bodies: dict[int, set[int]] = {}
        for b, succs in enumerate(dom.succs):
            for s in succs:
                if s > b:
                    forward[s] += 1
                    continue
                if not dom.dominates(s, b):
                    raise self._unstructured(order[b], order[s],
                                             "irreducible")
                bodies.setdefault(s, set()).update(
                    natural_loop(dom.preds, s, b))
        self.headers = set(bodies)

        # Loop exits: a block outside a loop whose immediate dominator is in
        # it follows that loop's ``while`` (the outermost such loop's).
        self.follows: dict[int, list] = {}
        exits: set[int] = set()
        outermost_first = sorted(bodies.items(), key=lambda kv: -len(kv[1]))
        for b in range(1, len(order)):
            if b in self.traps:
                continue
            idom = dom.idom[b]
            for head, body in outermost_first:
                if idom in body and b not in body:
                    self.follows.setdefault(head, []).append(order[b])
                    exits.add(b)
                    break
        merges = {b for b, count in enumerate(forward) if count >= 2}
        merges -= self.traps
        #: Merge blocks emitted after the region of their dominator.
        self.merge_children = merges - exits
        #: Blocks reached through a frame rather than nested inline.
        self.framed = merges | exits

        #: Instructions that emit no statement where they stand: compares /
        #: overflow checks emitted as their branch's condition, the
        #: increments of morsel loops (the ``for`` steps ``i``) and the
        #: invariant calls emitted before them.
        self.elided: set[int] = set()
        self.conditions: dict[int, tuple[str, bool]] = {}
        for b, block in enumerate(order):
            term = block.terminator
            if isinstance(term, CondBranchInst):
                self._fuse_condition(block, term, users)
                if b in bodies:
                    self._unwrap_counter(block, term, bodies[b], users)

        #: Morsel loops lowered as ``for`` loops, by header index.
        self.morsels: dict[int, _MorselLoop] = {}
        for b, body in bodies.items():
            morsel = self._morsel_loop(b, body, users)
            if morsel is not None:
                self.morsels[b] = morsel

    # ------------------------------------------------------------------ #
    def lower(self) -> list[str]:
        self.lines: list[str] = []
        self._finish((self.order[0], (), "    "))
        return self.lines

    def ref(self, value: Value) -> str:
        if isinstance(value, Constant):
            return self.namer.constant(value)
        if isinstance(value, Undef):
            return "0"
        return _local(value)

    def _unstructured(self, source, target, why: str) -> BackendError:
        return BackendError(
            f"@{self.function.name}: cannot structure the edge "
            f"{source.name} -> {target.name} ({why})")

    def _unwrap_counter(self, head, term: CondBranchInst, body: set[int],
                        users) -> None:
        """A counted loop's ``i + 1`` cannot leave int64 where the header's
        ``i < bound`` guards it: in a body block other than the header, so
        the current iteration took the header's in-loop edge.  It needs no
        wrap test."""
        cond = term.condition
        index = self.index
        if not isinstance(cond, CompareInst) or cond.predicate != "lt" \
                or not isinstance(cond.lhs, PhiInst) \
                or cond.lhs.block is not head \
                or index[term.true_target] not in body \
                or index[term.false_target] in body:
            return
        counter = cond.lhs
        for user in users.get(counter.uid, ()):
            if _is_increment(user, counter) and user.block is not head \
                    and index.get(user.block) in body:
                self.namer.unwrapped.add(user.uid)

    def _morsel_loop(self, h: int, body: set[int],
                     users) -> Optional[_MorselLoop]:
        """The lowering of header ``h``'s loop if it is a morsel loop: the
        header holds only the counter phi and the fused ``i < end`` over
        the worker's ``end`` argument, every back edge carries ``i + 1``
        used by nothing else, ``i`` is not used outside the loop, and the
        exit block has no phis."""
        order, index = self.order, self.index
        head = order[h]
        term = head.terminator
        cond = term.condition
        args = self.function.args
        if len(head.instructions) != 3 or cond.uid not in self.elided \
                or not isinstance(cond, CompareInst) \
                or cond.predicate != "lt" or not args \
                or cond.rhs is not args[-1] \
                or head.instructions[0] is not cond.lhs \
                or index[term.true_target] not in body \
                or term.false_target.phis() \
                or self.follows.get(h, [None])[0] is not term.false_target \
                or any(child in self.merge_children
                       for child in self.dom.children[h]):
            return None
        counter = cond.lhs
        increments: set[int] = set()
        for value, pred in counter.incoming:
            if index[pred] not in body:
                continue
            if not _is_increment(value, counter) or any(
                    user is not counter for user in users.get(value.uid, ())):
                return None
            increments.add(value.uid)
        # Column reads at the counter share one chunk layout, offset 0.
        reads: dict[int, list] = {}
        shifts, flat, needs_index = set(), False, False
        for user in users.get(counter.uid, ()):
            if index.get(user.block) not in body:
                return None
            if user is cond or user.uid in increments:
                continue
            pointer = self.namer.direct.get(user.uid)
            if isinstance(user, GEPInst) and user.index is counter \
                    and pointer is not None \
                    and isinstance(pointer[0], ColumnView):
                if any(index.get(load.block) not in body
                       for load in users.get(user.uid, ())):
                    return None
                chunks, shift, _ = pointer[0].chunk_layout()
                shifts.add(shift)
                flat = flat or pointer[1] != 0
                reads[user.uid] = chunks
            else:
                needs_index = True
        invariant = []
        for b in sorted(body):
            block = order[b]
            # The chunk loop runs its body as an inner ``for``: a ``break``
            # or ``return`` there would not leave the chunk loop.
            if b != h and (isinstance(block.terminator, ReturnInst) or any(
                    s not in body and s not in self.traps
                    for s in self.dom.succs[b])):
                flat = True
            invariant += [inst for inst in block.instructions
                          if isinstance(inst, CallInst) and not inst.args
                          and isinstance(inst.callee, ExternFunction)
                          and not inst.callee.has_side_effects]
        self.elided |= increments
        self.elided.update(inst.uid for inst in invariant)
        if flat or not reads or len(shifts) != 1:
            return _MorselLoop(counter, invariant)
        uid = counter.uid
        locals_: dict[int, str] = {}
        chunks = []
        for gep, chunk_list in reads.items():
            local = locals_.get(id(chunk_list))
            if local is None:
                local = locals_[id(chunk_list)] = f"_k{uid}_{len(locals_)}"
                chunks.append((self.namer.bind(chunk_list, "_K"), local))
            self.namer.chunk_reads[gep] = f"{local}[_j{uid}]"
        return _MorselLoop(counter, invariant, tuple(chunks), shifts.pop(),
                           needs_index)

    def _fuse_condition(self, block, term: CondBranchInst, users) -> None:
        """Record a compare or overflow check whose only user is its own
        block's branch as that branch's ``if`` condition."""
        cond = term.condition
        if not isinstance(cond, (CompareInst, OverflowCheckInst)) \
                or cond.block is not block \
                or len(users.get(cond.uid, ())) != 1:
            return
        instructions = block.instructions
        position = instructions.index(cond)
        if any(inst.has_side_effects for inst in instructions[position + 1:-1]):
            return
        self.elided.add(cond.uid)
        lhs, rhs = self.ref(cond.lhs), self.ref(cond.rhs)
        if isinstance(cond, CompareInst):
            self.conditions[id(term)] = (
                f"{lhs} {_PYTHON_COMPARE[cond.predicate]} {rhs}", True)
            return
        arith = instructions[position - 1] if position else None
        if isinstance(arith, BinaryInst) \
                and arith.opcode == cond.checked_opcode \
                and arith.lhs is cond.lhs and arith.rhs is cond.rhs \
                and position + 2 == len(instructions) \
                and self.index[term.true_target] in self.traps:
            # ``op; ovf.op; condbr -> trap``: the trap's range test is the
            # wrap test, so the op needs none.
            self.namer.unwrapped.add(arith.uid)
            value = _local(arith)
        else:
            value = f"{lhs} {_ARITH_SIGN[cond.checked_opcode]} {rhs}"
        self.conditions[id(term)] = (_IN_INT64.format(value), False)

    # ------------------------------------------------------------------ #
    def _finish(self, step) -> bool:
        """Emit continuations until one reports whether control falls off."""
        while not isinstance(step, bool):
            step = self._tree(*step)
        return step

    def _tree(self, block, ctx, indent):
        """Emit ``block``'s dominator subtree, minus what frames own."""
        b = self.index[block]
        children = [self.order[child] for child in self.dom.children[b]
                    if child in self.merge_children]
        if b in self.headers:
            return self._loop(block, self.follows.get(b, []),
                              children, ctx, indent)
        return self._within(block, children, ctx, indent)

    def _loop(self, head, follows, children, ctx, indent):
        if follows:
            follow = follows[-1]
            inner = (_Frame(follow, False),) + ctx
            if not self._finish(self._loop(head, follows[:-1], children,
                                           inner, indent)):
                return False
            return follow, ctx, indent
        frame = _Frame(head, True)
        morsel = self.morsels.get(self.index[head])
        if morsel is not None:
            falls = self._morsel(head, morsel, (frame,) + ctx, indent)
        else:
            self.lines.append(f"{indent}while True:")
            falls = self._finish(self._within(head, children, (frame,) + ctx,
                                              indent + "    "))
        if falls:
            raise BackendError(
                f"@{self.function.name}: loop body of {head.name} falls "
                f"through")
        # A morsel loop ends when its ``range`` or ``i < end`` runs out.
        return morsel is not None or frame.broken

    def _morsel(self, head, morsel: _MorselLoop, ctx, indent) -> bool:
        """A morsel loop: ``for i in range(i, end):``, or per chunk, ``while
        i < end:`` over the chunk holding ``i`` and an inner ``for j`` whose
        column reads are ``k[j]`` over chunk lists bound once per chunk.
        Neither runs the increment or its phi copy.  Returns whether the
        body falls through."""
        i, end = _local(morsel.counter), self.ref(self.function.args[-1])
        lines = self.lines
        for inst in morsel.invariant:
            lines.extend(_emit_instruction(inst, self.ref, indent,
                                           self.namer))
        inner = indent + "    "
        if not morsel.chunks:
            lines.append(f"{indent}for {i} in range({i}, {end}):")
            body = inner
        else:
            uid, shift = morsel.counter.uid, morsel.shift
            c, base, limit, j = f"_c{uid}", f"_b{uid}", f"_n{uid}", f"_j{uid}"
            lines += [f"{indent}while {i} < {end}:",
                      f"{inner}{c} = {i} >> {shift}",
                      f"{inner}{base} = {c} << {shift}",
                      f"{inner}{limit} = min({end} - {base}, {1 << shift})"]
            lines += [f"{inner}{local} = {name}[{c}]"
                      for name, local in morsel.chunks]
            lines.append(f"{inner}for {j} in range({i} - {base}, {limit}):")
            body = inner + "    "
            if morsel.needs_index:
                lines.append(f"{body}{i} = {base} + {j}")
        falls = self._finish(self._branch(head, head.terminator.true_target,
                                          ctx, body))
        if morsel.chunks:
            lines.append(f"{inner}{i} = {base} + {limit}")
        return falls

    def _within(self, block, children, ctx, indent):
        """``block``'s code, then each merge child after the region before
        it (innermost = lowest reverse-postorder number)."""
        if children:
            follow = children[-1]
            inner = (_Frame(follow, False),) + ctx
            if not self._finish(self._within(block, children[:-1], inner,
                                             indent)):
                return False
            return follow, ctx, indent
        lines = self.lines
        for inst in block.instructions:
            if isinstance(inst, PhiInst) or inst.is_terminator \
                    or inst.uid in self.elided:
                continue
            lines.extend(_emit_instruction(inst, self.ref, indent,
                                           self.namer))
        return self._terminator(block, ctx, indent)

    def _terminator(self, block, ctx, indent):
        term = block.terminator
        if isinstance(term, BranchInst):
            return self._branch(block, term.target, ctx, indent)
        if isinstance(term, CondBranchInst):
            return self._cond_branch(block, term, ctx, indent)
        if isinstance(term, ReturnInst):
            value = "None" if term.value is None else self.ref(term.value)
            self.lines.append(f"{indent}return {value}")
            return False
        if isinstance(term, UnreachableInst):
            self.lines.append(
                f"{indent}raise ExecutionError('unreachable code reached')")
            return False
        raise BackendError(f"unsupported terminator {term.opcode!r}")

    def _cond_branch(self, block, term: CondBranchInst, ctx, indent):
        text, positive = self.conditions.get(
            id(term), (self.ref(term.condition), True))
        taken = text if positive else f"not ({text})"
        not_taken = f"not ({text})" if positive else text
        yes, no = term.true_target, term.false_target
        inner = indent + "    "
        lines = self.lines
        # An arm that always jumps away lets the other one continue flat.
        if self._jumps(block, no, ctx):
            lines.append(f"{indent}if {not_taken}:")
            self._finish(self._branch(block, no, ctx, inner))
            return self._branch(block, yes, ctx, indent)
        if self._jumps(block, yes, ctx):
            lines.append(f"{indent}if {taken}:")
            self._finish(self._branch(block, yes, ctx, inner))
            return self._branch(block, no, ctx, indent)
        yes_lines, yes_falls = self._capture(block, yes, ctx, inner)
        if not yes_falls:
            lines.append(f"{indent}if {taken}:")
            lines.extend(yes_lines)
            return self._branch(block, no, ctx, indent)
        no_lines, no_falls = self._capture(block, no, ctx, inner)
        if not no_falls:
            lines.append(f"{indent}if {not_taken}:")
            lines.extend(no_lines)
            lines.extend(line[4:] for line in yes_lines)
        elif yes_lines:
            lines.append(f"{indent}if {taken}:")
            lines.extend(yes_lines)
            if no_lines:
                lines.append(f"{indent}else:")
                lines.extend(no_lines)
        elif no_lines:
            lines.append(f"{indent}if {not_taken}:")
            lines.extend(no_lines)
        return True

    def _capture(self, source, target, ctx, indent) -> tuple[list[str], bool]:
        saved, self.lines = self.lines, []
        falls = self._finish(self._branch(source, target, ctx, indent))
        captured, self.lines = self.lines, saved
        return captured, falls

    def _jumps(self, source, target, ctx) -> bool:
        """Whether the edge is emitted as a jump (never falls through)."""
        index = self.index
        t = index[target]
        if t in self.traps or t <= index[source]:
            return True
        if t not in self.framed:
            return False
        if self._duplicable(target, ctx):
            return True
        for frame in ctx:
            if frame.is_loop:
                return True  # ``break``
            if frame.block is target:
                return False
        return False

    def _duplicable(self, block, ctx) -> bool:
        """A small latch branching back to the innermost loop's header."""
        term = block.terminator
        if not isinstance(term, BranchInst) \
                or self.index[block] in self.headers \
                or len(block.instructions) > _MAX_DUPLICATED_LATCH:
            return False
        loop = next((frame for frame in ctx if frame.is_loop), None)
        return loop is not None and term.target is loop.block

    def _branch(self, source, target, ctx, indent):
        self.lines.extend(self._phi_copies(source, target, indent))
        index = self.index
        t = index[target]
        if t in self.traps:
            return self._within(target, [], ctx, indent)
        if t <= index[source]:
            loop = next((frame for frame in ctx if frame.is_loop), None)
            if loop is None or loop.block is not target:
                raise self._unstructured(source, target,
                                         "continue across a loop")
            self.lines.append(f"{indent}continue")
            return False
        if t not in self.framed:
            return target, ctx, indent
        if self._duplicable(target, ctx):
            return self._within(target, [], ctx, indent)
        loops, skipped, exited = 0, False, None
        for frame in ctx:
            if frame.is_loop:
                loops += 1
                exited = frame
            elif frame.block is target:
                break
            elif loops:
                raise self._unstructured(source, target,
                                         "break past a merge block")
            else:
                skipped = True
        else:
            raise self._unstructured(source, target, "no enclosing region")
        if loops == 0:
            if skipped:
                raise self._unstructured(source, target,
                                         "exit past a merge block")
            return True
        if loops > 1:
            raise self._unstructured(source, target, "break across loops")
        exited.broken = True
        self.lines.append(f"{indent}break")
        return False

    def _phi_copies(self, pred, succ, indent: str) -> list[str]:
        index = self.index
        if index[succ] in self.morsels and index[pred] >= index[succ]:
            return []  # a morsel loop's back edge: ``for`` steps ``i``
        copies = []
        for phi in succ.phis():
            incoming = phi.incoming_for(pred)
            if isinstance(incoming, Undef):
                continue
            dst = _local(phi)
            src = self.ref(incoming)
            if src != dst:
                copies.append((dst, src))
        return _ordered_copy_lines(copies, indent)


# --------------------------------------------------------------------------- #
# straight-line instruction emission
# --------------------------------------------------------------------------- #
def _emit_instruction(inst: Instruction, ref, indent: str, namer: _Namer
                      ) -> list[str]:
    """Emit the Python statement(s) implementing one non-terminator inst."""
    target = _local(inst) if inst.has_result else None

    if isinstance(inst, BinaryInst):
        lhs, rhs = ref(inst.lhs), ref(inst.rhs)
        op = inst.opcode
        simple = {"fadd": "+", "fsub": "-", "fmul": "*",
                  "and": "&", "or": "|", "xor": "^"}
        if op in _ARITH_SIGN:
            line = f"{indent}{target} = {lhs} {_ARITH_SIGN[op]} {rhs}"
            if inst.uid in namer.unwrapped:
                return [line]
            return [line, f"{indent}if not {_IN_INT64.format(target)}: "
                          f"{target} = _wrap64({target})"]
        if op in simple:
            return [f"{indent}{target} = {lhs} {simple[op]} {rhs}"]
        if op == "sdiv":
            return [f"{indent}{target} = _sdiv({lhs}, {rhs})"]
        if op == "srem":
            return [f"{indent}{target} = _srem({lhs}, {rhs})"]
        if op == "fdiv":
            return [f"{indent}{target} = _fdiv({lhs}, {rhs})"]
        if op == "shl":
            return [f"{indent}{target} = _wrap64({lhs} << ({rhs} & 63))"]
        if op == "ashr":
            return [f"{indent}{target} = {lhs} >> ({rhs} & 63)"]
        if op in ("smin", "fmin"):
            return [f"{indent}{target} = {lhs} if {lhs} < {rhs} else {rhs}"]
        if op in ("smax", "fmax"):
            return [f"{indent}{target} = {lhs} if {lhs} > {rhs} else {rhs}"]
        raise BackendError(f"cannot lower binary opcode {op!r}")

    if isinstance(inst, OverflowCheckInst):
        lhs, rhs = ref(inst.lhs), ref(inst.rhs)
        sign = _ARITH_SIGN[inst.checked_opcode]
        return [f"{indent}{target} = 1 if not "
                f"({_IN_INT64.format(f'{lhs} {sign} {rhs}')}) else 0"]

    if isinstance(inst, CompareInst):
        return [f"{indent}{target} = 1 if {ref(inst.lhs)} "
                f"{_PYTHON_COMPARE[inst.predicate]} {ref(inst.rhs)} else 0"]

    if isinstance(inst, CastInst):
        source = ref(inst.value)
        if inst.opcode == "sitofp":
            return [f"{indent}{target} = float({source})"]
        if inst.opcode == "fptosi":
            return [f"{indent}{target} = int({source})"]
        if inst.opcode == "trunc":
            bits = inst.type.bits
            return [f"{indent}{target} = (({source}) & {(1 << bits) - 1})"
                    if bits == 1 else
                    f"{indent}{target} = ((({source}) & {(1 << bits) - 1}) - "
                    f"{1 << bits} if (({source}) & {(1 << bits) - 1}) >= "
                    f"{1 << (bits - 1)} else (({source}) & {(1 << bits) - 1}))"]
        return [f"{indent}{target} = {source}"]

    if isinstance(inst, SelectInst):
        return [f"{indent}{target} = {ref(inst.then_value)} if "
                f"{ref(inst.condition)} else {ref(inst.else_value)}"]

    if isinstance(inst, GEPInst):
        pointer = namer.direct.get(inst.uid)
        if pointer is not None:
            if inst.uid in namer.folded or inst.uid in namer.chunk_reads:
                return []
            return [f"{indent}{target} = "
                    f"{_offset_index(ref(inst.index), pointer[1])}"]
        return [f"{indent}_p = {ref(inst.base)}",
                f"{indent}{target} = (_p[0], _p[1] + {ref(inst.index)})"]

    if isinstance(inst, LoadInst):
        gep = inst.pointer
        local = namer.chunk_reads.get(gep.uid)
        if local is not None:
            return [f"{indent}{target} = {local}"]
        pointer = namer.direct.get(gep.uid)
        if pointer is not None:
            buffer, offset = pointer
            index = (_offset_index(ref(gep.index), offset)
                     if gep.uid in namer.folded else ref(gep))
            return [f"{indent}{target} = {namer.element(buffer, index)}"]
        return [f"{indent}_p = {ref(gep)}",
                f"{indent}{target} = _p[0][_p[1]]"]

    if isinstance(inst, StoreInst):
        return [f"{indent}_p = {ref(inst.pointer)}",
                f"{indent}_p[0][_p[1]] = {ref(inst.value)}"]

    if isinstance(inst, CallInst):
        callee = inst.callee
        if not isinstance(callee, ExternFunction):
            raise BackendError(
                "direct IR-to-IR calls are not supported by the backend")
        args = [ref(a) for a in inst.args]
        if callee.inline is not None:
            call = namer.inline(callee.inline, args)
        else:
            call = f"{namer.extern(callee)}({', '.join(args)})"
        if inst.has_result:
            return [f"{indent}{target} = {call}"]
        return [f"{indent}{call}"]

    raise BackendError(f"cannot lower instruction {inst.opcode!r}")


def _ordered_copy_lines(copies, indent: str) -> list[str]:
    """Order parallel copies, breaking cycles through ``_tmp``.

    ``copies`` is a list of ``(dst, src)``: a local name and a Python
    expression.  A copy may only run once no other pending copy still reads
    its destination; a cycle is broken by stashing one destination in
    ``_tmp`` and redirecting its readers there.
    """
    lines: list[str] = []
    pending = list(copies)
    while pending:
        for index, (dst, _) in enumerate(pending):
            if not any(src == dst
                       for j, (_, src) in enumerate(pending) if j != index):
                lines.append(f"{indent}{dst} = {pending.pop(index)[1]}")
                break
        else:
            dst, _ = pending[0]
            lines.append(f"{indent}_tmp = {dst}")
            pending = [(d, "_tmp" if s == dst else s) for d, s in pending]
    return lines
