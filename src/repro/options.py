"""Unified execution options for every query entry point.

One :class:`ExecOptions` value describes *how* a statement executes --
execution mode, thread budget, cache usage, scan pruning and telemetry --
and it is the only way to say so: ``Database``, ``Session``,
``PreparedQuery`` and ``QueryScheduler`` entry points take
``options=ExecOptions(...)`` and nothing else.  :meth:`ExecOptions.merged`
is the single merge, for the two callers that override a base value: a
session's per-call ``**overrides`` on its defaults, and the wire
protocol's per-request ``options`` dict on the connection's session.

What a statement executes *with* -- the bind-parameter values -- is
deliberately not part of :class:`ExecOptions`: parameters vary per call,
options describe a policy, so ``params=`` stays a separate argument.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional

from .errors import ExecutionError


@dataclass(frozen=True)
class ExecOptions:
    """How one query execution should run."""

    mode: str = "adaptive"
    threads: int = 1
    #: Plan caching: ``False`` builds every artifact cold from the literal
    #: text (no auto-parameterization, no plan or result cache).
    use_cache: bool = True
    #: Semantic result caching (:mod:`repro.result_cache`): repeated
    #: identical reads are served from materialized rows without executing.
    #: ``False`` forces real execution (the escape hatch for measuring
    #: execution and for callers that want fresh statistics); results are
    #: identical either way.  ``use_cache=False`` implies this off too.
    use_result_cache: bool = True
    #: Zone-map chunk pruning for table scans.  ``False`` scans every chunk
    #: (the escape hatch for measuring pruning and for debugging); results
    #: are identical either way.
    use_pruning: bool = True
    #: Telemetry level of this execution: ``"off"`` records nothing,
    #: ``"basic"`` (the default) updates the database's metrics registry
    #: and attaches a :class:`repro.telemetry.QueryTrace` to the result
    #: (lifecycle spans and, when an engine mode executed, its tier
    #: switches and morsel events); ``"trace"`` additionally bypasses the
    #: result cache, so the trace always shows a real execution.
    telemetry: str = "basic"
    #: Collect per-operator cardinalities that are not free to maintain
    #: (currently: hash-join build-side entry counts).  EXPLAIN ANALYZE
    #: turns this on for its inner execution; everything else defaults off.
    collect_operator_stats: bool = False

    @classmethod
    def of(cls, options: Optional["ExecOptions"]) -> "ExecOptions":
        """``options`` itself, or the defaults when an entry point got none."""
        if options is None:
            return cls()
        if not isinstance(options, ExecOptions):
            raise ExecutionError(
                f"options must be an ExecOptions, got "
                f"{type(options).__name__}; build one with "
                f"ExecOptions(mode=..., threads=..., ...)")
        return options

    def merged(self, **overrides) -> "ExecOptions":
        """This options value with the non-``None`` overrides applied.

        An override naming no :class:`ExecOptions` field is an
        :class:`~repro.errors.ExecutionError` (over the wire: a typed
        ERROR frame), never a silently ignored key.
        """
        supplied = {key: value for key, value in overrides.items()
                    if value is not None}
        if not supplied:
            return self
        unknown = set(supplied) - {f.name for f in dataclasses.fields(self)}
        if unknown:
            raise ExecutionError(
                f"unknown execution option(s) {sorted(unknown)}")
        return dataclasses.replace(self, **supplied)
