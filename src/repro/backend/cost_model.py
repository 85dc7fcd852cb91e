"""Compile-time and speedup estimation (paper Fig. 6 and Section III-C).

The adaptive policy needs two estimates per execution tier *k*:

* ``ctime_k(f)`` -- how long compiling worker function *f* will take, and
* ``speedup_k(f)`` -- how much faster the compiled code will process tuples
  than the bytecode interpreter.

Like the paper, the compile-time estimate is a linear function of the number
of IR instructions: Fig. 6 shows a near-linear relationship for all TPC-H and
TPC-DS queries and the paper states both numbers are "determined empirically
in our system".  Here too they are measured, not assumed: the shipped
:data:`_DEFAULT_ESTIMATES` come from the procedure below, and
:meth:`CostModel.fit` re-fits a tier from any ``(instructions, seconds)``
samples.

To re-derive the defaults (do it whenever a tier gets faster or slower):

1. compile lines -- generate the TPC-H 22 queries at SF 0.05
   (``Database.generate``; 90 worker functions, 2,604 IR instructions),
   time ``translate_function`` / ``compile_unoptimized`` /
   ``compile_optimized`` on each worker, keep the best of three calls per
   worker and tier, and pass each tier's 90 ``(instruction_count,
   seconds)`` pairs to :meth:`CostModel.fit`;
2. speedups -- the ratios of the benchmark harness's
   ``tier.rows_per_s.{unoptimized,optimized}`` to
   ``tier.rows_per_s.bytecode`` (four Fig. 2 kernels at SF 5, any
   ``--trace 1`` run of ``benchmarks/harness/run.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from ..errors import BackendError


@dataclass
class TierEstimate:
    """Linear compile-time model ``seconds = base + per_instruction * n``."""

    base_seconds: float
    per_instruction_seconds: float
    speedup_over_bytecode: float

    def compile_seconds(self, instruction_count: int) -> float:
        return (self.base_seconds
                + self.per_instruction_seconds * max(instruction_count, 0))


#: Default coefficients, measured by the procedure in the module docstring
#: with CPython 3.11 on a 2-core x86-64 VM (medians of four fits; the box
#: moves them by ~15 % between runs and more between days).  The bytecode
#: line was fitted on a slower day than the other two: there the previous
#: translator read 0.061 ms + 21.9 us (0.065 ms + 10.6 us on the day of the
#: others), and summed over the 90 TPC-H workers producing bytecode took
#: ~22 ms.  The policy compares the compiled tiers only, so the bytecode
#: line moves no decision.
#:
#: The unoptimized line (and its 2.0x speedup) was fitted on an earlier
#: unoptimized lowering -- one Python function per basic block over a
#: register list -- that no longer exists; it is kept so that the policy
#: decides as it did, which leaves that tier unchosen.  The tier is now the
#: optimized tier's lowering without the passes: refitted by the procedure
#: above it reads about 0.017 ms + 13 us per instruction (medians of four
#: fits; about half the optimized tier's total over the 90 workers) and
#: runs about 4.2x as many rows per second as the bytecode VM, against
#: about 4.5x for the optimized tier on the same days.
_DEFAULT_ESTIMATES = {
    "bytecode": TierEstimate(base_seconds=4.7e-5,
                             per_instruction_seconds=7.3e-6,
                             speedup_over_bytecode=1.0),
    "unoptimized": TierEstimate(base_seconds=3.4e-4,
                                per_instruction_seconds=2.3e-5,
                                speedup_over_bytecode=2.0),
    "optimized": TierEstimate(base_seconds=3.2e-4,
                              per_instruction_seconds=3.5e-5,
                              speedup_over_bytecode=3.6),
}


@dataclass
class CostModel:
    """Per-tier compile-time / speedup estimates used by the adaptive policy."""

    estimates: dict[str, TierEstimate] = field(
        default_factory=lambda: dict(_DEFAULT_ESTIMATES))

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def compile_seconds(self, tier: str, instruction_count: int) -> float:
        return self._tier(tier).compile_seconds(instruction_count)

    def speedup(self, tier: str) -> float:
        return self._tier(tier).speedup_over_bytecode

    def _tier(self, tier: str) -> TierEstimate:
        try:
            return self.estimates[tier]
        except KeyError as exc:
            raise BackendError(f"unknown execution tier {tier!r}") from exc

    # ------------------------------------------------------------------ #
    # fitting
    # ------------------------------------------------------------------ #
    def fit(self, tier: str,
            samples: Iterable[tuple[int, float]],
            speedup: Optional[float] = None) -> TierEstimate:
        """Fit the linear compile-time model from ``(instructions, seconds)``.

        Uses an ordinary least-squares line; with fewer than two samples the
        existing estimate is kept.  ``speedup`` optionally replaces the
        tier's speedup factor.
        """
        points = list(samples)
        current = self._tier(tier)
        if len(points) >= 2:
            xs = [float(n) for n, _ in points]
            ys = [float(s) for _, s in points]
            n = len(xs)
            mean_x = sum(xs) / n
            mean_y = sum(ys) / n
            var_x = sum((x - mean_x) ** 2 for x in xs)
            if var_x > 0:
                slope = sum((x - mean_x) * (y - mean_y)
                            for x, y in zip(xs, ys)) / var_x
                intercept = mean_y - slope * mean_x
                current = TierEstimate(
                    base_seconds=max(intercept, 0.0),
                    per_instruction_seconds=max(slope, 1e-9),
                    speedup_over_bytecode=current.speedup_over_bytecode)
        if speedup is not None:
            current = TierEstimate(
                base_seconds=current.base_seconds,
                per_instruction_seconds=current.per_instruction_seconds,
                speedup_over_bytecode=speedup)
        self.estimates[tier] = current
        return current


_default_model: Optional[CostModel] = None


def default_cost_model() -> CostModel:
    """The process-wide cost model instance (lazily created)."""
    global _default_model
    if _default_model is None:
        _default_model = CostModel()
    return _default_model

