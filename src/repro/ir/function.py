"""Basic blocks, functions, extern declarations and the module container."""

from __future__ import annotations

import itertools
import string
from typing import Callable, Iterable, Iterator, Optional, Sequence

from ..errors import IRError
from .types import IRType, void
from .values import Argument, Constant, Instruction, Value
from .instructions import BranchInst, CondBranchInst, PhiInst


#: type -> every ``__slots__`` attribute along its MRO (the IR classes have
#: no ``__dict__``), so a shallow copy is one ``setattr`` per slot.
_SLOTS: dict[type, tuple[str, ...]] = {}


def _shallow_copy(obj):
    cls = type(obj)
    slots = _SLOTS.get(cls)
    if slots is None:
        slots = _SLOTS[cls] = tuple(
            slot for klass in cls.__mro__
            for slot in getattr(klass, "__slots__", ()))
    copy = object.__new__(cls)
    for slot in slots:
        setattr(copy, slot, getattr(obj, slot))
    return copy


class BasicBlock:
    """A straight-line sequence of instructions ending in one terminator."""

    _name_counter = itertools.count()

    __slots__ = ("name", "instructions", "function")

    def __init__(self, name: str = "", function: Optional["Function"] = None):
        self.name = name or f"bb{next(self._name_counter)}"
        self.instructions: list[Instruction] = []
        self.function = function

    # ------------------------------------------------------------------ #
    # structure
    # ------------------------------------------------------------------ #
    def append(self, inst: Instruction) -> Instruction:
        if self.is_terminated:
            raise IRError(
                f"cannot append to already-terminated block {self.name}")
        inst.block = self
        self.instructions.append(inst)
        return inst

    @property
    def terminator(self) -> Optional[Instruction]:
        if self.instructions and self.instructions[-1].is_terminator:
            return self.instructions[-1]
        return None

    @property
    def is_terminated(self) -> bool:
        return self.terminator is not None

    def successors(self) -> list["BasicBlock"]:
        term = self.terminator
        if term is None:
            return []
        return term.successors()  # type: ignore[attr-defined]

    def phis(self) -> list[PhiInst]:
        return [inst for inst in self.instructions if isinstance(inst, PhiInst)]

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    def __len__(self) -> int:
        return len(self.instructions)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<BasicBlock {self.name} ({len(self.instructions)} insts)>"


class InlineTemplate:
    """A Python expression the compiled tiers emit instead of an extern call.

    ``{0}``, ``{1}``, ... stand for the call's arguments; every other
    ``{name}`` field names one of ``objects``, which the lowering binds into
    the generated module's namespace.  Arguments are plain names, literals
    or register reads, so a template may repeat one cheaply.  The IR
    interpreter and the bytecode VM keep calling ``python_impl``, so the
    template must compute the same value -- which is why only pure externs
    may carry one (:mod:`repro.analysis.extern_contracts` checks it).
    """

    __slots__ = ("expression", "objects")

    def __init__(self, expression: str, **objects):
        self.expression = expression
        self.objects = objects

    @property
    def placeholders(self) -> int:
        """Number of distinct argument placeholders (``{0}``, ``{1}``, ...)."""
        return len({field for _, field, _, _ in
                    string.Formatter().parse(self.expression)
                    if field is not None and field.isdigit()})

    def render(self, args: Sequence[str], names: dict) -> str:
        """The expression over argument expressions ``args``; ``names`` maps
        each object field to its namespace name."""
        return self.expression.format(*args, **names)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<inline {self.expression!r}>"


class ExternFunction:
    """A declaration of a runtime (C++-equivalent) function callable from IR.

    ``python_impl`` is the Python callable implementing the runtime function;
    it receives already-decoded operand values.  Externs with
    ``has_side_effects=False`` (pure string predicates, hash computations) may
    be eliminated by DCE and deduplicated by CSE.  ``inline`` optionally
    gives the compiled tiers an :class:`InlineTemplate` to emit in place of
    the call.
    """

    __slots__ = ("name", "arg_types", "return_type", "python_impl",
                 "has_side_effects", "inline")

    def __init__(self, name: str, arg_types: Sequence[IRType],
                 return_type: IRType,
                 python_impl: Optional[Callable] = None,
                 has_side_effects: bool = True,
                 inline: Optional[InlineTemplate] = None):
        self.name = name
        self.arg_types = tuple(arg_types)
        self.return_type = return_type
        self.python_impl = python_impl
        self.has_side_effects = has_side_effects
        self.inline = inline

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        args = ", ".join(str(t) for t in self.arg_types)
        return f"<extern {self.return_type} @{self.name}({args})>"


class Function:
    """An IR function: arguments plus an ordered list of basic blocks.

    The query code generator produces one ``queryStart`` function and one
    worker function per pipeline (paper Fig. 4).  Worker functions always have
    the signature ``void worker(ptr state, i64 morsel_begin, i64 morsel_end)``.
    """

    __slots__ = ("name", "args", "return_type", "blocks", "module")

    def __init__(self, name: str, arg_types: Sequence[IRType],
                 arg_names: Sequence[str], return_type: IRType = void):
        if len(arg_types) != len(arg_names):
            raise IRError("argument type/name count mismatch")
        self.name = name
        self.args = [Argument(ty, arg_name, idx)
                     for idx, (ty, arg_name) in enumerate(zip(arg_types,
                                                              arg_names))]
        self.return_type = return_type
        self.blocks: list[BasicBlock] = []
        self.module: Optional["Module"] = None

    # ------------------------------------------------------------------ #
    # blocks
    # ------------------------------------------------------------------ #
    @property
    def entry_block(self) -> BasicBlock:
        if not self.blocks:
            raise IRError(f"function {self.name} has no blocks")
        return self.blocks[0]

    def add_block(self, name: str = "") -> BasicBlock:
        block = BasicBlock(name, function=self)
        self.blocks.append(block)
        return block

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    def instructions(self) -> Iterator[Instruction]:
        for block in self.blocks:
            yield from block.instructions

    def instruction_count(self) -> int:
        """Total number of instructions (the paper's query-size metric)."""
        return sum(len(block) for block in self.blocks)

    def clone(self) -> "Function":
        """A structural copy that passes may rewrite without touching this
        function (whose bytecode and unoptimized tier keep running).

        Blocks, arguments, instructions and non-pointer constants are new
        objects keeping their names and uids (the clone prints the same);
        operands, phi incomings and branch targets are remapped onto them.
        Call targets, pointer constants (runtime objects) and IR types are
        shared.  The clone belongs to no module, so cloning one worker does
        not copy the rest of the query.
        """
        clone = _shallow_copy(self)
        clone.module = None
        copies: dict[int, Value] = {}
        clone.args = []
        for arg in self.args:
            copies[id(arg)] = copied = _shallow_copy(arg)
            clone.args.append(copied)
        blocks: dict[int, BasicBlock] = {}
        clone.blocks = []
        for block in self.blocks:
            new_block = BasicBlock(block.name, function=clone)
            blocks[id(block)] = new_block
            clone.blocks.append(new_block)
            for inst in block.instructions:
                copies[id(inst)] = copied = _shallow_copy(inst)
                copied.block = new_block
                new_block.instructions.append(copied)

        def remap(value: Value) -> Value:
            copied = copies.get(id(value))
            if copied is None:
                if isinstance(value, Constant) and value.type.is_pointer:
                    return value
                copies[id(value)] = copied = _shallow_copy(value)
            return copied

        for block in clone.blocks:
            for inst in block.instructions:
                inst.operands = [remap(op) for op in inst.operands]
                if isinstance(inst, PhiInst):
                    inst.incoming = [(remap(value), blocks[id(pred)])
                                     for value, pred in inst.incoming]
                elif isinstance(inst, BranchInst):
                    inst.target = blocks[id(inst.target)]
                elif isinstance(inst, CondBranchInst):
                    inst.true_target = blocks[id(inst.true_target)]
                    inst.false_target = blocks[id(inst.false_target)]
        return clone

    def predecessors(self) -> dict[BasicBlock, list[BasicBlock]]:
        """Map each block to the list of blocks that branch to it."""
        preds: dict[BasicBlock, list[BasicBlock]] = {b: [] for b in self.blocks}
        for block in self.blocks:
            for succ in block.successors():
                preds[succ].append(block)
        return preds

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<Function {self.name} ({len(self.blocks)} blocks, "
                f"{self.instruction_count()} insts)>")


class Module:
    """A compilation unit: the functions generated for one query."""

    __slots__ = ("name", "functions", "externs")

    def __init__(self, name: str = "query"):
        self.name = name
        self.functions: dict[str, Function] = {}
        self.externs: dict[str, ExternFunction] = {}

    def add_function(self, function: Function) -> Function:
        if function.name in self.functions:
            raise IRError(f"duplicate function {function.name!r}")
        function.module = self
        self.functions[function.name] = function
        return function

    def declare_extern(self, extern: ExternFunction) -> ExternFunction:
        existing = self.externs.get(extern.name)
        if existing is not None:
            return existing
        self.externs[extern.name] = extern
        return extern

    def instruction_count(self) -> int:
        """Total instruction count over all functions (paper Fig. 6 x-axis)."""
        return sum(f.instruction_count() for f in self.functions.values())

    def worker_functions(self) -> list[Function]:
        """The pipeline worker functions, in generation order."""
        return [f for name, f in self.functions.items()
                if name.startswith("worker")]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<Module {self.name}: {len(self.functions)} functions, "
                f"{self.instruction_count()} insts>")
