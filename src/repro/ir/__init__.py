"""SSA intermediate representation modelled on LLVM IR.

The paper's system (HyPer) generates LLVM IR for every query and then either
compiles it to machine code or, with this paper's contribution, translates it
into a compact register-machine bytecode.  This package provides the
equivalent IR for the Python reproduction:

* typed SSA values (:mod:`repro.ir.values`),
* a fixed set of instructions that mirrors the subset of LLVM IR a query
  compiler actually emits (:mod:`repro.ir.instructions`),
* functions made of basic blocks and a module container
  (:mod:`repro.ir.function`),
* a builder API used by the query code generator (:mod:`repro.ir.builder`),
* CFG analyses -- reverse postorder, dominator tree, natural loops --
  shared by the optimizer passes and by the bytecode translator's
  linear-time liveness algorithm (:mod:`repro.ir.analysis`),
* a structural verifier and a textual printer.
"""

from .types import IRType, i1, i8, i32, i64, f64, ptr, void
from .values import Value, Constant, Argument, Instruction, Undef
from .instructions import (
    BinaryInst,
    OverflowCheckInst,
    CompareInst,
    CastInst,
    SelectInst,
    GEPInst,
    LoadInst,
    StoreInst,
    CallInst,
    PhiInst,
    BranchInst,
    CondBranchInst,
    ReturnInst,
    UnreachableInst,
)
from .function import (BasicBlock, Function, Module, ExternFunction,
                       InlineTemplate)
from .builder import IRBuilder
from .verifier import verify_function, verify_module
from .printer import print_function, print_module
from .analysis import (
    reverse_postorder,
    compute_dominator_tree,
    DominatorTree,
    LoopInfo,
    find_loops,
)

__all__ = [
    "IRType", "i1", "i8", "i32", "i64", "f64", "ptr", "void",
    "Value", "Constant", "Argument", "Instruction", "Undef",
    "BinaryInst", "OverflowCheckInst", "CompareInst", "CastInst",
    "SelectInst", "GEPInst", "LoadInst", "StoreInst", "CallInst", "PhiInst",
    "BranchInst", "CondBranchInst", "ReturnInst", "UnreachableInst",
    "BasicBlock", "Function", "Module", "ExternFunction", "InlineTemplate",
    "IRBuilder",
    "verify_function", "verify_module",
    "print_function", "print_module",
    "reverse_postorder", "compute_dominator_tree", "DominatorTree",
    "LoopInfo", "find_loops",
]
