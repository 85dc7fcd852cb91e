"""Adaptive execution framework (paper Section III).

Every query pipeline starts executing in the bytecode interpreter on all
available worker threads.  Each worker records its tuple-processing rate per
morsel; a designated thread extrapolates the remaining pipeline duration for
the three execution modes (Fig. 7) and, when switching pays off, compiles the
pipeline's worker function on a background thread.  Once the compilation
finishes, the function handle is swapped and all workers pick up the faster
variant with their next morsel -- no work is lost because every execution
mode operates on the same state through the same runtime calls.  The static
modes run through the same executor and handles with the policy off.
"""

from .modes import ExecutionMode, FunctionHandle
from .progress import PipelineProgress
from .policy import AdaptivePolicy, Decision
from ..telemetry.trace import ExecutionTrace, TraceEvent, render_trace
from .morsel import MorselDispatcher
from .executor import PipelineExecutor
from .simulation import (
    PipelineProfile,
    QueryProfile,
    SimulationResult,
    profile_query,
    simulate_adaptive,
    simulate_static,
)

__all__ = [
    "ExecutionMode", "FunctionHandle",
    "PipelineProgress",
    "AdaptivePolicy", "Decision",
    "ExecutionTrace", "TraceEvent", "render_trace",
    "MorselDispatcher",
    "PipelineExecutor",
    "PipelineProfile", "QueryProfile", "SimulationResult",
    "profile_query", "simulate_adaptive", "simulate_static",
]
