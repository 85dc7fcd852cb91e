"""Built-in lint rules.

Each rule encodes one invariant the engine has already paid for in bug-hunt
time (see DESIGN.md, "Static verification & lint").  Rules are deliberately
narrow: a lint that cries wolf gets deleted, so every rule below was tuned
to run clean over the current ``src/repro`` tree and to fire on the
historical bug shapes.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Iterator, Optional

from . import Finding, Rule

#: Names that refer to a lock (locals, attributes, freevars).
_LOCK_NAME = re.compile(r"lock|mutex|semaphore", re.IGNORECASE)
#: Attributes holding per-chunk columnar storage (sealed once published).
_CHUNK_ATTR = re.compile(r"(^|_)(chunks|zone_maps|numpy_chunks)$")
#: List/dict mutator method names.
_MUTATORS = frozenset({
    "append", "extend", "insert", "remove", "pop", "clear", "sort",
    "reverse", "update", "setdefault", "popitem",
})


def _terminal_name(node: ast.AST) -> Optional[str]:
    """The rightmost identifier of a Name/Attribute chain, else None."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _is_lock_expr(node: ast.AST) -> bool:
    name = _terminal_name(node)
    return name is not None and bool(_LOCK_NAME.search(name))


# --------------------------------------------------------------------------- #
# R1: lock discipline
# --------------------------------------------------------------------------- #
class LockDisciplineRule(Rule):
    """An attribute written under ``with self._lock:`` in one method must
    never be written unguarded in another method of the same class.

    This is the invariant behind the chunk-sealing publish-order race
    (PR 4): ``_num_rows`` is the published row count, and a store outside
    the table lock can expose rows before their chunk data is visible.
    ``__init__`` is exempt (the object is not yet shared), as are methods
    whose name ends in ``_locked`` (the caller holds the lock by
    convention).
    """

    rule_id = "lock-discipline"
    description = ("attributes guarded by a lock in one method must not be "
                   "written unguarded elsewhere in the class")

    def check(self, tree: ast.Module, source: str) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                yield from self._check_class(node)

    def _check_class(self, cls: ast.ClassDef) -> Iterator[Finding]:
        guarded: set = set()
        unguarded: dict = {}
        for method in cls.body:
            if not isinstance(method, (ast.FunctionDef,
                                       ast.AsyncFunctionDef)):
                continue
            exempt = (method.name == "__init__"
                      or method.name.endswith("_locked"))
            for attr, store, under_lock in _self_attr_stores(method):
                if under_lock:
                    guarded.add(attr)
                elif not exempt:
                    unguarded.setdefault(attr, []).append((method.name,
                                                           store))
        for attr in sorted(guarded):
            for method_name, store in unguarded.get(attr, ()):
                yield self.finding(
                    store,
                    f"self.{attr} is written under a lock elsewhere in "
                    f"{cls.name} but stored unguarded in {method_name}()")


def _self_attr_stores(method: ast.AST):
    """Yield ``(attr_name, store_node, under_lock)`` for ``self.X = ...``."""

    def walk(node: ast.AST, under_lock: bool):
        if isinstance(node, ast.With):
            holds = any(_is_lock_expr(item.context_expr)
                        for item in node.items)
            for child in node.body:
                yield from walk(child, under_lock or holds)
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)) and node is not method:
            return  # nested scope: a different "self" discipline
        targets = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        for target in targets:
            if (isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"):
                yield target.attr, node, under_lock
        for child in ast.iter_child_nodes(node):
            yield from walk(child, under_lock)

    yield from walk(method, False)


# --------------------------------------------------------------------------- #
# R2: sealed-chunk immutability
# --------------------------------------------------------------------------- #
class SealedChunkRule(Rule):
    """Only the unsealed tail chunk (index ``-1``) may be mutated.

    Sealed chunks are published to concurrent readers without a lock
    (scans, zone-map pruning, numpy snapshots — the ragged-snapshot race of
    PR 2/4 came from exactly this).  Any mutator call or element store on a
    chunk obtained with a non-``-1`` chunk index is therefore a race.
    """

    rule_id = "sealed-chunk"
    description = ("chunk storage (``*_chunks``/``zone_maps``) may only be "
                   "mutated at the tail index -1")

    def check(self, tree: ast.Module, source: str) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_function(node)

    def _check_function(self, function: ast.AST) -> Iterator[Finding]:
        # Aliases bound from a sealed (non-tail) chunk expression.
        sealed_aliases: set = set()
        tail_aliases: set = set()
        for node in ast.walk(function):
            if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                    and isinstance(node.targets[0], ast.Name):
                kind = _chunk_expr_kind(node.value)
                if kind == "sealed":
                    sealed_aliases.add(node.targets[0].id)
                elif kind == "tail":
                    tail_aliases.add(node.targets[0].id)

        def receiver_is_sealed(node: ast.AST) -> bool:
            kind = _chunk_expr_kind(node)
            if kind == "sealed":
                return True
            if isinstance(node, ast.Name):
                return (node.id in sealed_aliases
                        and node.id not in tail_aliases)
            return False

        for node in ast.walk(function):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _MUTATORS
                    and receiver_is_sealed(node.func.value)):
                yield self.finding(
                    node, f".{node.func.attr}() mutates a sealed chunk "
                          f"(only the tail chunk [-1] is writable)")
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                for target in targets:
                    if (isinstance(target, ast.Subscript)
                            and receiver_is_sealed(target.value)):
                        yield self.finding(
                            node, "element store into a sealed chunk "
                                  "(only the tail chunk [-1] is writable)")


def _chunk_expr_kind(node: ast.AST) -> Optional[str]:
    """Classify ``<chunk-attr>[col][idx]``: 'tail' (idx == -1), 'sealed'
    (any other idx), or None (not a chunk element expression)."""
    if not isinstance(node, ast.Subscript):
        return None
    inner = node.value
    if not isinstance(inner, ast.Subscript):
        return None
    name = _terminal_name(inner.value)
    if name is None or not _CHUNK_ATTR.search(name):
        return None
    index = node.slice
    if (isinstance(index, ast.UnaryOp) and isinstance(index.op, ast.USub)
            and isinstance(index.operand, ast.Constant)
            and index.operand.value == 1):
        return "tail"
    return "sealed"


# --------------------------------------------------------------------------- #
# R3: hot-path lock ban
# --------------------------------------------------------------------------- #
class HotPathLockRule(Rule):
    """Codegen'd runtime externs (``rt_*``) must not acquire locks.

    The morsel hot path calls these once per tuple; the partitioned-breaker
    design (PR 5 onward) exists so they never synchronise.  There is no
    exception.
    """

    rule_id = "hot-path-lock"
    description = "no lock acquisition inside rt_* runtime externs"

    def check(self, tree: ast.Module, source: str) -> Iterator[Finding]:
        extern_names = _extern_function_names(tree)
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if node.name not in extern_names \
                    and not node.name.startswith("rt_"):
                continue
            yield from self._check_extern(node)

    def _check_extern(self, function: ast.AST) -> Iterator[Finding]:
        for node in ast.walk(function):
            offender = None
            if isinstance(node, ast.With):
                for item in node.items:
                    expr = item.context_expr
                    if _is_lock_expr(expr):
                        offender = f"with {ast.unparse(expr)}:"
            elif (isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "acquire"
                  and _is_lock_expr(node.func.value)):
                offender = f"{ast.unparse(node.func)}()"
            elif (isinstance(node, ast.Call)
                  and _terminal_name(node.func) in ("Lock", "RLock",
                                                    "Semaphore",
                                                    "BoundedSemaphore")):
                offender = f"{ast.unparse(node.func)}() constructed"
            if offender:
                yield self.finding(
                    node, f"lock use inside runtime extern "
                          f"{function.name}(): {offender} — hot-path "
                          f"externs must stay lock-free")


def _extern_function_names(tree: ast.Module) -> set:
    """Functions whose ``__name__`` is rebound to an ``rt_*`` string.

    The runtime names its closures generically (``update``, ``emit``) and
    stamps the extern name afterwards::

        update.__name__ = f"rt_agg_update_{sink.agg_id}"
    """
    names: set = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Assign) or len(node.targets) != 1:
            continue
        target = node.targets[0]
        if not (isinstance(target, ast.Attribute)
                and target.attr == "__name__"
                and isinstance(target.value, ast.Name)):
            continue
        if _leading_literal(node.value).startswith("rt_"):
            names.add(target.value.id)
    return names


def _leading_literal(node: ast.AST) -> str:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr) and node.values:
        return _leading_literal(node.values[0])
    return ""


# --------------------------------------------------------------------------- #
# R4: stats-key guard
# --------------------------------------------------------------------------- #
class StatsKeyRule(Rule):
    """No stringly-keyed ``stats["..."]`` dicts outside ``telemetry/``.

    Engine code reports observations through the typed telemetry
    instruments (``MetricsRegistry``, ``QueryTrace``,
    ``PipelineRunStats``); the telemetry package owns the only legitimate
    string-keyed surfaces (snapshot dicts, exporters).  Replaces the old
    grep CI guard with the same policy, minus its false positives on
    comments and string literals.
    """

    rule_id = "stats-key"
    description = ("no string-keyed subscripts on *stats containers "
                   "outside src/repro/telemetry/")

    def applies_to(self, path: Path) -> bool:
        return "telemetry" not in path.parts

    def check(self, tree: ast.Module, source: str) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Subscript):
                continue
            if not (isinstance(node.slice, ast.Constant)
                    and isinstance(node.slice.value, str)):
                continue
            name = _terminal_name(node.value)
            if name is not None and name.lower().endswith("stats"):
                yield self.finding(
                    node, f"string-keyed subscript {name}[{node.slice.value!r}] "
                          f"— use the typed telemetry instruments instead")


# --------------------------------------------------------------------------- #
# R5: result-cache key construction
# --------------------------------------------------------------------------- #
class ResultCacheKeyRule(Rule):
    """Result-cache lookups must key through ``result_cache_key()``.

    The semantic result cache is only sound if every probe and store uses
    the one sanctioned key constructor: it type-qualifies binding values
    (``a = 2`` and ``a = 2.0`` hash equal but are different queries) and
    fixes the ``(plan key, mode, bindings)`` structure invalidation relies
    on.  A hand-rolled tuple key at any ``.get()``/``.put()`` site would
    silently reintroduce the cross-type collision, so the key argument
    must be a direct ``result_cache_key(...)`` call or a local assigned
    from one in the same function.
    """

    rule_id = "result-cache-key"
    description = ("result-cache .get()/.put() keys must come from "
                   "result_cache_key()")

    def check(self, tree: ast.Module, source: str) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_function(node)

    def _check_function(self, function: ast.AST) -> Iterator[Finding]:
        sanctioned: set = set()
        for node in ast.walk(function):
            if isinstance(node, ast.Assign) \
                    and _is_key_constructor_call(node.value):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        sanctioned.add(target.id)
        for node in ast.walk(function):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("get", "put")
                    and _is_result_cache_expr(node.func.value)
                    and node.args):
                continue
            key = node.args[0]
            if _is_key_constructor_call(key):
                continue
            if isinstance(key, ast.Name) and key.id in sanctioned:
                continue
            yield self.finding(
                node, f".{node.func.attr}() on a result cache with a key "
                      f"not built by result_cache_key() — hand-rolled keys "
                      f"lose the type qualification of binding values")


def _is_result_cache_expr(node: ast.AST) -> bool:
    name = _terminal_name(node)
    return name is not None and "result_cache" in name


def _is_key_constructor_call(node: ast.AST) -> bool:
    return (isinstance(node, ast.Call)
            and _terminal_name(node.func) == "result_cache_key")


#: Registry of active rules, in reporting order.
ALL_RULES = (LockDisciplineRule, SealedChunkRule, HotPathLockRule,
             StatsKeyRule, ResultCacheKeyRule)
