"""Execution modes and the per-pipeline function handle (paper Fig. 5).

The :class:`FunctionHandle` is the indirection the paper introduces: instead
of calling a worker function through a fixed pointer, every morsel goes
through the handle, which holds all available variants of the function
(IR interpretation, bytecode, unoptimized machine code, optimized machine
code) and always dispatches to the fastest one.  The two machine-code
variants come from one lowering (:mod:`repro.backend.compiler`); they
differ only in whether the pass pipeline ran first.  Switching execution modes
is a single assignment, so all worker threads pick up the new variant with
their next morsel.  A static mode is the degenerate case: the handle starts
in that mode's tier and never switches.

The handle is the only place that builds a tier: it translates bytecode,
compiles machine code, runs the bytecode verifier and measures what that
cost.  It calls :func:`translate_function` and :func:`compile_function`
through this module's globals at call time, so wrapping those names (as a
tracer or a test does) reaches every tier build.
"""

from __future__ import annotations

import enum
import threading
import time
from typing import Callable, Optional

from ..backend import compile_function
from ..ir.function import Function
from ..vm import IRInterpreter, VirtualMachine, translate_function


class ExecutionMode(enum.IntEnum):
    """The execution tiers, ordered by throughput.

    ``UNOPTIMIZED`` and ``OPTIMIZED`` lower through the same backend path
    and differ only in whether the pass pipeline ran first; on a worker
    the passes barely shrink, the two run at about the same speed.
    """

    IR_INTERP = 0
    BYTECODE = 1
    UNOPTIMIZED = 2
    OPTIMIZED = 3

    @property
    def tier_name(self) -> str:
        return _TIER_NAMES[self]

    @classmethod
    def of(cls, tier_name: str) -> "ExecutionMode":
        """The mode whose :attr:`tier_name` is ``tier_name``."""
        return cls[tier_name.upper().replace("-", "_")]

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.tier_name


#: The mode strings (``"ir-interp"``, ...), computed once: every morsel's
#: trace event reads one.
_TIER_NAMES = {mode: mode.name.lower().replace("_", "-")
               for mode in ExecutionMode}


class FunctionHandle:
    """Holds every available variant of one pipeline worker function.

    Only the start tier ``mode`` is built up front (its cost is
    :attr:`build_seconds`); faster tiers are added by :meth:`compile`.
    """

    def __init__(self, function: Function,
                 mode: ExecutionMode = ExecutionMode.BYTECODE,
                 vm: Optional[VirtualMachine] = None,
                 verify_ir: Optional[bool] = None):
        self.function = function
        self.vm = vm or VirtualMachine()
        from ..analysis import verify_ir_enabled
        self.verify = verify_ir_enabled(verify_ir)
        self._lock = threading.Lock()
        #: Serializes compilations of this handle so that two concurrent
        #: ``compile`` calls can never translate the same tier twice.
        self._compile_lock = threading.Lock()
        self._variants: dict[ExecutionMode, Callable] = {}
        self._compile_seconds: dict[ExecutionMode, float] = {}
        self._current_mode = mode
        self._current: Optional[Callable] = None
        self.compiling: Optional[ExecutionMode] = None
        self.build_seconds = self.compile(mode)

    # ------------------------------------------------------------------ #
    @property
    def mode(self) -> ExecutionMode:
        return self._current_mode

    @property
    def instruction_count(self) -> int:
        return self.function.instruction_count()

    def is_compiled(self, mode: ExecutionMode) -> bool:
        return mode in self._variants

    # ------------------------------------------------------------------ #
    def executable(self) -> tuple[Callable, ExecutionMode]:
        """The fastest currently available variant (checked per morsel)."""
        return self._current, self._current_mode

    def compile(self, mode: ExecutionMode) -> float:
        """Build the requested variant (synchronously) and install it.

        Returns the build time in seconds.  Installing a slower mode than
        the current one is a no-op apart from making the variant available.
        Concurrent calls serialize on a per-handle lock: the loser of the
        race observes the winner's cached variant instead of rebuilding.
        """
        with self._compile_lock:
            with self._lock:
                if mode in self._variants:
                    if self.compiling is mode:
                        self.compiling = None
                    return self._compile_seconds[mode]
                self.compiling = mode
            try:
                variant, seconds = self._build(mode)
                with self._lock:
                    self._variants[mode] = variant
                    self._compile_seconds[mode] = seconds
                    if self._current is None or mode > self._current_mode:
                        self._current = variant
                        self._current_mode = mode
            finally:
                with self._lock:
                    self.compiling = None
        return seconds

    def _build(self, mode: ExecutionMode) -> tuple[Callable, float]:
        """Return ``(callable(state, begin, end), build_seconds)``."""
        function = self.function
        if mode is ExecutionMode.IR_INTERP:
            interpreter = IRInterpreter()

            def run_ir(state, begin, end):
                interpreter.execute(function, [state, begin, end])
            return run_ir, 0.0
        if mode is ExecutionMode.BYTECODE:
            start = time.perf_counter()
            bytecode, _ = translate_function(function)
            if self.verify:
                from ..analysis import verify_bytecode
                verify_bytecode(bytecode)
            seconds = time.perf_counter() - start
            vm = self.vm

            def run_bytecode(state, begin, end):
                vm.execute(bytecode, [state, begin, end])
            return run_bytecode, seconds
        compiled = compile_function(function, mode.tier_name,
                                    verify=self.verify)
        return compiled, compiled.compile_seconds
