"""Pass manager: runs a pipeline of function passes over a module."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Protocol

from ..errors import IRVerificationError
from ..ir.function import Function
from ..ir.verifier import verify_function


class FunctionPass(Protocol):
    """A transformation applied to one function at a time."""

    name: str

    def run(self, function: Function) -> bool:
        """Transform ``function`` in place; return True if anything changed."""
        ...  # pragma: no cover - protocol


@dataclass
class PassStats:
    """Statistics collected while running a pass pipeline."""

    per_pass_seconds: dict[str, float] = field(default_factory=dict)
    per_pass_changes: dict[str, int] = field(default_factory=dict)
    total_seconds: float = 0.0
    instructions_before: int = 0
    instructions_after: int = 0

    @property
    def instructions_removed(self) -> int:
        return self.instructions_before - self.instructions_after


class PassManager:
    """Runs an ordered list of function passes, optionally until fixpoint.

    With ``verify=True`` the IR verifier re-checks the function after every
    pass that reported a change, so a bad rewrite fails *at the breaking
    pass* (the raised :class:`repro.errors.IRVerificationError` carries the
    pass name) instead of three tiers later.  The default of ``None`` defers
    to the ``REPRO_VERIFY_IR`` environment flag, which is how CI keeps
    validation on for the whole test suite.
    """

    def __init__(self, passes: list[FunctionPass], max_iterations: int = 2,
                 verify: bool = None):
        self.passes = passes
        self.max_iterations = max_iterations
        if verify is None:
            from ..analysis import verify_ir_enabled
            verify = verify_ir_enabled()
        self.verify = verify

    def run_function(self, function: Function) -> PassStats:
        stats = PassStats(instructions_before=function.instruction_count())
        start = time.perf_counter()
        for _ in range(self.max_iterations):
            changed = False
            for pass_ in self.passes:
                pass_start = time.perf_counter()
                pass_changed = pass_.run(function)
                elapsed = time.perf_counter() - pass_start
                stats.per_pass_seconds[pass_.name] = (
                    stats.per_pass_seconds.get(pass_.name, 0.0) + elapsed)
                if pass_changed:
                    stats.per_pass_changes[pass_.name] = (
                        stats.per_pass_changes.get(pass_.name, 0) + 1)
                    changed = True
                    if self.verify:
                        self._verify_after(pass_, function)
            if not changed:
                break
        stats.total_seconds = time.perf_counter() - start
        stats.instructions_after = function.instruction_count()
        return stats

    @staticmethod
    def _verify_after(pass_: FunctionPass, function: Function) -> None:
        try:
            verify_function(function)
        except IRVerificationError as error:
            wrapped = IRVerificationError(str(error), pass_name=pass_.name)
            wrapped.function_name = error.function_name
            wrapped.block_name = error.block_name
            wrapped.instruction = error.instruction
            raise wrapped from error


def default_pipeline(verify: bool = None) -> PassManager:
    """The optimized tier's pass pipeline (mirrors the paper's pass list)."""
    from .constant_folding import ConstantFoldingPass
    from .cse import CommonSubexpressionEliminationPass
    from .dce import DeadCodeEliminationPass
    from .peephole import PeepholePass
    from .simplify_cfg import SimplifyCFGPass

    return PassManager([
        ConstantFoldingPass(),
        PeepholePass(),
        CommonSubexpressionEliminationPass(),
        SimplifyCFGPass(),
        DeadCodeEliminationPass(),
    ], verify=verify)
