"""Unified query-lifecycle tracing (subsumes paper Fig. 14 traces).

Historically the engine had two disjoint records of what happened during a
query: :class:`~repro.engine.PhaseTimings` (per-phase wall-clock totals)
and the morsel-level ``ExecutionTrace`` the adaptive executor produced for
the Fig. 14 reproduction.  This module unifies them:

* :class:`TraceEvent` / :class:`ExecutionTrace` -- the original morsel /
  compile event model, unchanged (``repro.adaptive`` re-exports it, with
  :func:`render_trace`, for the simulator's callers).
* :class:`Span` -- one named interval of the query lifecycle
  (``parse`` / ``bind`` / ``plan`` / ``codegen`` / ``compile`` /
  ``pipeline`` / ``execution``), nesting under the whole-query span.
* :class:`TierSwitchEvent` -- one adaptive tier-switch *decision* with the
  trigger that caused it (the Fig. 7 cost-model evaluation: projected
  remaining seconds per tier, observed tuple rate, progress), so a future
  history-informed policy can replay why the engine switched.
* :class:`QueryTrace` -- an :class:`ExecutionTrace` extended with a stable
  query id, the SQL text, lifecycle spans and tier-switch events, plus
  ``to_dict`` / ``to_json`` for machine-readable dumps.

All timestamps are seconds relative to the start of the query (the same
clock base the morsel events always used).  Phase spans derived from a
:class:`PhaseTimings` are laid out sequentially in phase order -- they
reconstruct the lifecycle from per-phase totals, so their offsets are
logical rather than measured wall-clock instants (morsel events, by
contrast, carry measured offsets).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional


@dataclass
class TraceEvent:
    """One morsel execution or compilation on one thread."""

    thread_id: int
    start: float
    end: float
    kind: str                 # "morsel" | "compile" | "finish"
    pipeline: str
    mode: str                 # ir-interp | bytecode | unoptimized | optimized
    tuples: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class ExecutionTrace:
    """All events of one query execution."""

    label: str = ""
    events: list[TraceEvent] = field(default_factory=list)

    def add(self, event: TraceEvent) -> None:
        self.events.append(event)

    @property
    def duration(self) -> float:
        if not self.events:
            return 0.0
        return max(event.end for event in self.events)

    def events_for_thread(self, thread_id: int) -> list[TraceEvent]:
        return sorted((e for e in self.events if e.thread_id == thread_id),
                      key=lambda e: e.start)

    def thread_ids(self) -> list[int]:
        return sorted({event.thread_id for event in self.events})

    def pipelines(self) -> list[str]:
        seen: list[str] = []
        for event in sorted(self.events, key=lambda e: e.start):
            if event.pipeline not in seen:
                seen.append(event.pipeline)
        return seen

    def mode_switches(self) -> list[tuple[str, str]]:
        """Pipelines and the sequence of modes they were executed in."""
        order: dict[str, list[str]] = {}
        for event in sorted(self.events, key=lambda e: e.start):
            if event.kind != "morsel":
                continue
            modes = order.setdefault(event.pipeline, [])
            if not modes or modes[-1] != event.mode:
                modes.append(event.mode)
        return [(pipeline, "->".join(modes))
                for pipeline, modes in order.items()]


@dataclass
class Span:
    """One named interval of the query lifecycle."""

    name: str
    start: float
    end: float
    kind: str = "phase"       # "phase" | "pipeline" | "queue"
    meta: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        out = {"name": self.name, "start": self.start, "end": self.end,
               "kind": self.kind}
        if self.meta:
            out["meta"] = self.meta
        return out


@dataclass
class TierSwitchEvent:
    """One adaptive tier-switch decision, with the trigger that caused it.

    ``trigger`` carries the cost-model evaluation the Fig. 7 policy based
    the decision on: ``decision`` (the chosen action), ``keep_seconds`` /
    ``unoptimized_seconds`` / ``optimized_seconds`` (projected remaining
    seconds per tier), ``rate`` (observed tuples/second), plus the
    progress estimate (``processed`` / ``total`` tuples) and the worker
    count the extrapolation assumed.
    """

    pipeline: str
    from_mode: str
    to_mode: str
    at: float                 # seconds since query start
    synchronous: bool = False
    trigger: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"pipeline": self.pipeline, "from_mode": self.from_mode,
                "to_mode": self.to_mode, "at": self.at,
                "synchronous": self.synchronous, "trigger": self.trigger}


#: Lifecycle phases, in order, as attributes of ``PhaseTimings``.
_PHASES = ("queue", "parse", "bind", "plan", "codegen", "compile",
           "execution")


@dataclass
class QueryTrace(ExecutionTrace):
    """The unified trace of one query execution.

    Extends the morsel-level :class:`ExecutionTrace` with identity
    (``query_id``, ``sql``, ``mode``), lifecycle :class:`Span` s and
    adaptive :class:`TierSwitchEvent` s.  Attached to every result at
    telemetry level ``basic`` and above; an engine-mode execution's trace
    holds the morsel and compile events its executor recorded at either
    level (a result-cache hit or a baseline run has none).
    """

    query_id: str = ""
    sql: str = ""
    mode: str = ""
    spans: list[Span] = field(default_factory=list)
    tier_switches: list[TierSwitchEvent] = field(default_factory=list)

    # ------------------------------------------------------------------ #
    def add_span(self, name: str, start: float, end: float,
                 kind: str = "phase", **meta) -> Span:
        span = Span(name, start, end, kind, dict(meta))
        self.spans.append(span)
        return span

    def record_tier_switch(self, pipeline: str, from_mode: str,
                           to_mode: str, at: float,
                           synchronous: bool = False,
                           trigger: Optional[dict] = None) -> TierSwitchEvent:
        event = TierSwitchEvent(pipeline, from_mode, to_mode, at,
                                synchronous, trigger or {})
        self.tier_switches.append(event)
        return event

    def add_phase_spans(self, timings) -> None:
        """Lay the :class:`PhaseTimings` phases out as sequential spans.

        Zero-duration phases (e.g. parse/bind/plan on a cached execution)
        are skipped: a span records that a phase *ran*.
        """
        cursor = 0.0
        for phase in _PHASES:
            seconds = getattr(timings, phase, 0.0)
            if seconds <= 0.0:
                continue
            kind = "queue" if phase == "queue" else "phase"
            self.add_span(phase, cursor, cursor + seconds, kind=kind)
            cursor += seconds

    def add_pipeline_spans(self, pipeline_stats) -> None:
        """One span per executed pipeline (from ``PipelineExecution``)."""
        cursor = 0.0
        for stats in pipeline_stats:
            self.add_span(stats.name, cursor, cursor + stats.seconds,
                          kind="pipeline", rows=stats.rows,
                          morsels=stats.morsels,
                          modes="->".join(stats.mode_history))
            cursor += stats.seconds

    # ------------------------------------------------------------------ #
    @classmethod
    def from_execution(cls, trace: ExecutionTrace, query_id: str = "",
                       sql: str = "", mode: str = "") -> "QueryTrace":
        """Wrap a plain :class:`ExecutionTrace` (e.g. from the simulator)."""
        if isinstance(trace, cls):
            out = trace
        else:
            out = cls(label=trace.label, events=list(trace.events))
        if query_id:
            out.query_id = query_id
        if sql:
            out.sql = sql
        if mode:
            out.mode = mode or out.label
        return out

    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict:
        return {
            "query_id": self.query_id,
            "sql": self.sql,
            "mode": self.mode,
            "label": self.label,
            "duration": self.duration,
            "spans": [span.to_dict() for span in self.spans],
            "tier_switches": [event.to_dict()
                              for event in self.tier_switches],
            "events": [{"thread_id": e.thread_id, "start": e.start,
                        "end": e.end, "kind": e.kind,
                        "pipeline": e.pipeline, "mode": e.mode,
                        "tuples": e.tuples}
                       for e in self.events],
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)


_MODE_CHARS = {"bytecode": "b", "unoptimized": "u", "optimized": "o",
               "compile": "C", "finish": "f"}


def render_trace(trace: ExecutionTrace, width: int = 100) -> str:
    """Render the trace as an ASCII per-thread timeline (Fig. 14 style).

    Each character cell covers ``duration / width`` seconds; morsel cells show
    the execution mode (``b``/``u``/``o``), compilations show ``C``.
    """
    duration = trace.duration
    if duration <= 0:
        return f"{trace.label}: (empty trace)"
    scale = width / duration
    lines = [f"{trace.label}  (total {duration * 1000:.2f} ms, "
             f"1 cell = {duration / width * 1000:.3f} ms)"]
    for thread_id in trace.thread_ids():
        cells = [" "] * width
        for event in trace.events_for_thread(thread_id):
            start_cell = min(int(event.start * scale), width - 1)
            end_cell = min(max(int(event.end * scale), start_cell + 1), width)
            char = ("C" if event.kind == "compile"
                    else _MODE_CHARS.get(event.mode, "?"))
            for cell in range(start_cell, end_cell):
                cells[cell] = char
        lines.append(f"thread {thread_id}: |{''.join(cells)}|")
    lines.append("legend: b=bytecode morsel, u=unoptimized morsel, "
                 "o=optimized morsel, C=compilation")
    if isinstance(trace, QueryTrace) and trace.tier_switches:
        for event in trace.tier_switches:
            lines.append(
                f"switch: {event.pipeline} {event.from_mode}->"
                f"{event.to_mode} at {event.at * 1000:.2f} ms")
    return "\n".join(lines)
