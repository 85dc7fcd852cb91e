"""Machine-code execution tiers.

The paper's system compiles LLVM IR to x86 machine code in two flavours:
*unoptimized* (fast instruction selection, no IR passes, low backend effort)
and *optimized* (hand-picked IR passes plus full backend optimisation).  In
this reproduction the equivalent tiers lower the query IR to executable
Python:

* :func:`compile_unoptimized` -- lowers the IR exactly as code generation
  left it: no IR passes, no clone.  The cheaper tier to produce.
* :func:`compile_optimized` -- runs the full pass pipeline
  (:mod:`repro.passes`) over a clone of the IR, then lowers that.  The more
  expensive to produce and the faster to run.

Like the paper's two LLVM rungs, they share one backend: both emit a
single Python function with structured control flow (loops,
``if``/``else``, ``break``/``continue``) in which SSA values become local
variables, and they differ only in whether the passes ran.

Both tiers execute the same IR semantics as the bytecode VM (including
overflow checks and runtime calls), so a pipeline can switch tiers between
morsels without losing work.

:mod:`repro.backend.cost_model` provides the compile-time / speedup
extrapolation model the adaptive policy uses (paper Fig. 6 and Fig. 7).
"""

from .compiler import (
    CompiledFunction,
    compile_function,
    compile_optimized,
    compile_unoptimized,
)
from .cost_model import CostModel, TierEstimate, default_cost_model

__all__ = [
    "CompiledFunction",
    "compile_function",
    "compile_optimized",
    "compile_unoptimized",
    "CostModel",
    "TierEstimate",
    "default_cost_model",
]
