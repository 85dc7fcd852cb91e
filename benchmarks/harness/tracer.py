"""Spans around the calls into each layer, recorded from the harness.

The engine's own telemetry stops at ``PhaseTimings``; spans *inside* the
program are ROADMAP item 5.  Until then the harness wraps each layer's
public entry point -- ``parse``, ``Binder.bind``, ``Planner.plan``,
``CodeGenerator.generate``, every ``FunctionPass`` of ``default_pipeline``,
``translate_function``, ``compile_unoptimized`` / ``compile_optimized``,
``Database.execute`` / ``submit`` / ``insert``, plan- and result-cache
``get``, protocol ``encode_frame`` / ``decode_payload`` -- for the length of
a traced run and removes the wrappers afterwards.  No file under ``src/``
changes.

Spans live in memory and are written out once, by :meth:`Tracer.write`.  A
span's parent is the span that was open on the same thread when it started;
spans on server or pool threads therefore start new trees.  Self time is a
span's duration minus the part of it its children cover.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from collections import defaultdict

from repro import Database, PlanCache, ResultCache
from repro import backend, passes, server, sqlparser, vm
from repro.codegen import CodeGenerator
from repro.optimizer import Planner
from repro.semantics import Binder


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "thread")

    def __init__(self, name, start, parent, op, thread):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.thread = thread

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(intervals, begin: float, end: float) -> float:
    """Length of ``[begin, end]`` covered by the union of ``intervals``."""
    total = 0.0
    cursor = begin
    for start, stop in sorted(intervals):
        start = max(start, cursor)
        stop = min(stop, end)
        if stop > start:
            total += stop - start
            cursor = stop
    return total


def self_times(spans) -> dict:
    """Span -> self time: duration minus the cover of its child spans."""
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return {span: span.duration - covered(children.get(span, ()),
                                          span.start, span.end)
            for span in spans}


class Tracer:
    """Collects spans and per-operation counts for one traced run."""

    def __init__(self):
        self.spans: list[Span] = []
        #: (operation id, counter name) -> summed count.
        self.counts: dict = defaultdict(int)
        self._local = threading.local()
        self._undo: list = []

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #
    def begin(self, name: str, op=None) -> Span:
        local = self._local
        parent = getattr(local, "current", None)
        if op is None and parent is not None:
            op = parent.op
        span = Span(name, time.perf_counter(), parent, op,
                    threading.get_ident())
        local.current = span
        return span

    def finish(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._local.current = span.parent
        self.spans.append(span)

    def wrap(self, name: str, function, on_result=None):
        """``function`` with a span around every call.

        ``on_result(result, span)`` runs after the span closed (its cost is
        charged to the parent) and is where counts are read off results.
        """
        @functools.wraps(function)
        def traced(*args, **kwargs):
            span = self.begin(name)
            try:
                result = function(*args, **kwargs)
            finally:
                self.finish(span)
            if on_result is not None:
                on_result(result, span)
            return result
        return traced

    def count(self, name: str, amount: int, span: Span) -> None:
        self.counts[(span.op, name)] += amount

    # ------------------------------------------------------------------ #
    # installing the wrappers
    # ------------------------------------------------------------------ #
    def _patch(self, owner, attribute: str, replacement) -> None:
        self._undo.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    def _rebind(self, original, traced) -> None:
        """Replace ``original`` wherever a ``repro`` module bound it
        (``from x import f`` copies the reference into the importer)."""
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").split(".")[0] != "repro":
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, key, traced)

    def _wrap_function(self, package, attribute: str, name: str,
                       on_result=None) -> None:
        original = getattr(package, attribute)
        self._rebind(original, self.wrap(name, original, on_result))

    def _wrap_method(self, cls, attribute: str, name: str,
                     on_result=None) -> None:
        self._patch(cls, attribute,
                    self.wrap(name, cls.__dict__[attribute], on_result))

    def _traced_pipeline(self, default_pipeline):
        @functools.wraps(default_pipeline)
        def traced(*args, **kwargs):
            manager = default_pipeline(*args, **kwargs)
            for function_pass in manager.passes:
                function_pass.run = self.wrap(
                    f"passes.{function_pass.name}", function_pass.run)
            manager.run_function = self.wrap(
                "passes.run", manager.run_function,
                lambda stats, span: self.count(
                    "passes.ir_removed", stats.instructions_removed, span))
            return manager
        return traced

    def _count_translation(self, result, span: Span) -> None:
        _, stats = result
        self.count("vm.bytecode_instructions", stats.bytecode_instructions,
                   span)
        self.count("vm.registers", stats.num_registers, span)

    def install(self) -> None:
        self._wrap_function(sqlparser, "parse", "sqlparser.parse")
        self._wrap_method(Binder, "bind", "semantics.bind")
        self._wrap_method(Planner, "plan", "optimizer.plan")
        self._wrap_method(CodeGenerator, "generate", "codegen.generate")
        self._wrap_function(vm, "translate_function", "vm.translate",
                            self._count_translation)
        self._rebind(passes.default_pipeline,
                     self._traced_pipeline(passes.default_pipeline))
        self._wrap_function(backend, "compile_unoptimized",
                            "backend.compile_unopt")
        self._wrap_function(backend, "compile_optimized",
                            "backend.compile_opt")
        self._wrap_method(Database, "execute", "engine.execute")
        self._wrap_method(Database, "submit", "scheduler.submit")
        self._wrap_method(Database, "insert", "catalog.insert")
        self._wrap_method(PlanCache, "get", "cache.plan_get")
        self._wrap_method(ResultCache, "get", "result_cache.get")
        self._wrap_function(server, "encode_frame", "protocol.encode")
        self._wrap_function(server, "decode_payload", "protocol.decode")

    def uninstall(self) -> None:
        while self._undo:
            owner, attribute, original = self._undo.pop()
            setattr(owner, attribute, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    # ------------------------------------------------------------------ #
    # reading the spans back
    # ------------------------------------------------------------------ #
    def self_time_by_name(self, spans=None) -> dict:
        """Layer span name -> summed self seconds."""
        totals: dict = defaultdict(float)
        for span, seconds in self_times(
                self.spans if spans is None else spans).items():
            totals[span.name] += seconds
        return dict(totals)

    def write(self, path) -> None:
        """Dump every span (ids assigned in recording order)."""
        ids = {span: index for index, span in enumerate(self.spans)}
        with open(path, "w") as handle:
            json.dump({
                "spans": [{
                    "id": ids[span], "name": span.name,
                    "start": span.start, "end": span.end,
                    "parent": ids.get(span.parent), "op": span.op,
                    "thread": span.thread} for span in self.spans],
                "counts": [{"op": op, "name": name, "value": value}
                           for (op, name), value
                           in sorted(self.counts.items(), key=str)],
            }, handle)
