"""Extern-contract checker for the codegen / runtime boundary.

The code generator declares runtime externs (:class:`repro.ir.ExternFunction`)
with generated names and calls them from every worker function; the runtime
(:mod:`repro.codegen.runtime`) supplies the Python implementations.  Nothing
used to tie the two sides together — a sink extern called without the
threaded ``state`` argument (the PR 5 bug class), an extern whose declared
arity drifts from its implementation, or a "pure" extern that quietly takes
a lock would only surface as a wrong answer three tiers later.

This module verifies every generated module against the declared
:data:`repro.codegen.runtime.EXTERN_CONTRACTS` registry:

* every called extern's name matches a declared contract (unknown externs
  are findings),
* the declared IR arity lies inside the contract's bounds,
* the declared purity matches the contract (``pure`` externs must be
  declared ``has_side_effects=False`` and vice versa),
* an inline template (:class:`repro.ir.InlineTemplate`, emitted by the
  compiled tiers instead of the call) sits only on a pure contract, and
  its argument placeholder count lies inside the contract's bounds,
* sink externs receive the worker function's own first argument (the
  threaded ``state``) as their first call operand, by identity,
* the bound Python implementation positionally accepts the declared arity
  (via :func:`inspect.signature`),
* the implementation's closure/code references no lock-like name: no
  extern may synchronise on the per-tuple path.

:func:`check_extern_contracts` returns findings for tests and tooling;
:func:`verify_extern_contracts` raises :class:`repro.errors.CodegenError`
on the first finding for use as a hard gate.
"""

from __future__ import annotations

import inspect
import re
from dataclasses import dataclass
from typing import Optional

from ..codegen.runtime import EXTERN_CONTRACTS, ExternContract
from ..errors import CodegenError
from ..ir.function import ExternFunction, Function, Module
from ..ir.instructions import CallInst
from ..ir.types import ptr

#: Substrings that mark a code-object name as referring to a lock.
_LOCK_NAME = re.compile(r"lock|mutex|semaphore|rlock", re.IGNORECASE)


@dataclass(frozen=True)
class ContractFinding:
    """One violation of an extern contract."""

    rule: str            # machine-readable rule id, e.g. "sink-state"
    extern: str          # extern name
    function: Optional[str]  # IR function containing the call (None: module)
    message: str

    def __str__(self) -> str:
        where = f" in {self.function}" if self.function else ""
        return f"[{self.rule}] @{self.extern}{where}: {self.message}"


def find_contract(name: str) -> Optional[ExternContract]:
    """Return the declared contract whose pattern fully matches ``name``."""
    for contract in EXTERN_CONTRACTS:
        if re.fullmatch(contract.pattern, name):
            return contract
    return None


def check_extern_contracts(module: Module) -> list:
    """Check every extern call of a module.  Returns a list of findings."""
    findings: list = []
    checked: set = set()
    for function in module.functions.values():
        for inst in function.instructions():
            if not isinstance(inst, CallInst):
                continue
            callee = inst.callee
            if not isinstance(callee, ExternFunction):
                continue  # direct IR-to-IR call: the IR verifier's job
            contract = find_contract(callee.name)
            if contract is None:
                if callee.name not in checked:
                    checked.add(callee.name)
                    findings.append(ContractFinding(
                        "undeclared-extern", callee.name, function.name,
                        "extern matches no contract in EXTERN_CONTRACTS"))
                continue
            if id(callee) not in checked:
                checked.add(id(callee))
                findings.extend(_check_declaration(callee, contract,
                                                   function.name))
            findings.extend(_check_call_site(inst, callee, contract,
                                             function))
    return findings


def verify_extern_contracts(module: Module) -> None:
    """Raise :class:`CodegenError` on the first extern-contract violation."""
    findings = check_extern_contracts(module)
    if findings:
        raise CodegenError("extern contract violation: "
                           + "; ".join(str(f) for f in findings[:3]))


# --------------------------------------------------------------------------- #
# declaration-level checks (once per extern object)
# --------------------------------------------------------------------------- #
def _check_declaration(callee: ExternFunction, contract: ExternContract,
                       function_name: str) -> list:
    findings = []

    arity = len(callee.arg_types)
    if arity < contract.min_args or (contract.max_args is not None
                                     and arity > contract.max_args):
        upper = "inf" if contract.max_args is None else contract.max_args
        findings.append(ContractFinding(
            "arity", callee.name, function_name,
            f"declared with {arity} argument(s), contract allows "
            f"[{contract.min_args}, {upper}]"))

    if contract.pure and callee.has_side_effects:
        findings.append(ContractFinding(
            "purity", callee.name, function_name,
            "contract declares the extern pure but it is marked "
            "has_side_effects=True"))
    if not contract.pure and not callee.has_side_effects:
        findings.append(ContractFinding(
            "purity", callee.name, function_name,
            "extern is marked side-effect free but its contract does not "
            "declare it pure (CSE/DCE could drop a stateful call)"))

    template = callee.inline
    if template is not None:
        if not contract.pure:
            findings.append(ContractFinding(
                "inline-purity", callee.name, function_name,
                "inline template on an extern whose contract is not pure "
                "(the compiled tiers would emit its effect as an "
                "expression)"))
        count = template.placeholders
        if count < contract.min_args or (contract.max_args is not None
                                         and count > contract.max_args):
            upper = "inf" if contract.max_args is None else contract.max_args
            findings.append(ContractFinding(
                "inline-arity", callee.name, function_name,
                f"inline template has {count} argument placeholder(s), "
                f"contract allows [{contract.min_args}, {upper}]"))

    if contract.is_sink and (not callee.arg_types
                             or callee.arg_types[0] != ptr):
        findings.append(ContractFinding(
            "sink-state", callee.name, function_name,
            "sink extern must declare the threaded state pointer as its "
            "first argument"))

    impl = callee.python_impl
    if impl is None:
        findings.append(ContractFinding(
            "impl-missing", callee.name, function_name,
            "extern has no bound Python implementation"))
        return findings

    findings.extend(_check_impl_arity(callee, impl, function_name))
    findings.extend(_check_impl_locks(callee, impl, function_name))
    return findings


def _check_impl_arity(callee: ExternFunction, impl, function_name: str
                      ) -> list:
    try:
        signature = inspect.signature(impl)
    except (TypeError, ValueError):
        return []  # builtins without introspectable signatures
    lower = 0
    upper: Optional[int] = 0
    for parameter in signature.parameters.values():
        if parameter.kind in (parameter.POSITIONAL_ONLY,
                              parameter.POSITIONAL_OR_KEYWORD):
            if parameter.default is parameter.empty:
                lower += 1
            if upper is not None:
                upper += 1
        elif parameter.kind == parameter.VAR_POSITIONAL:
            upper = None
    arity = len(callee.arg_types)
    if arity < lower or (upper is not None and arity > upper):
        bound = "inf" if upper is None else upper
        return [ContractFinding(
            "impl-signature", callee.name, function_name,
            f"declared IR arity {arity} but the Python implementation "
            f"{impl.__name__!r} accepts [{lower}, {bound}] positional "
            f"argument(s)")]
    return []


def _iter_code_objects(impl):
    code = getattr(impl, "__code__", None)
    if code is None:
        return
    stack = [code]
    while stack:
        current = stack.pop()
        yield current
        for const in current.co_consts:
            if type(const).__name__ == "code":
                stack.append(const)


def _check_impl_locks(callee: ExternFunction, impl,
                      function_name: str) -> list:
    lockish: set = set()
    for code in _iter_code_objects(impl):
        for name in (*code.co_freevars, *code.co_names):
            if _LOCK_NAME.search(name):
                lockish.add(name)
    closure = getattr(impl, "__closure__", None)
    code = getattr(impl, "__code__", None)
    if closure and code:
        # Also catch a lock smuggled through an innocuously named freevar.
        for name, cell in zip(code.co_freevars, closure):
            try:
                value = cell.cell_contents
            except ValueError:
                continue
            if _LOCK_NAME.search(type(value).__name__) or \
                    hasattr(value, "acquire") and hasattr(value, "release"):
                lockish.add(name)
    if not lockish:
        return []
    return [ContractFinding(
        "lock", callee.name, function_name,
        f"implementation references lock-like name(s) {sorted(lockish)}; "
        f"runtime externs must stay lock-free")]


# --------------------------------------------------------------------------- #
# call-site checks (per CallInst)
# --------------------------------------------------------------------------- #
def _check_call_site(inst: CallInst, callee: ExternFunction,
                     contract: ExternContract, function: Function) -> list:
    if not contract.is_sink:
        return []
    state = function.args[0] if function.args else None
    if not inst.args or inst.args[0] is not state:
        got = inst.args[0].short_name() if inst.args else "<nothing>"
        return [ContractFinding(
            "sink-state", callee.name, function.name,
            f"sink extern must receive the worker's threaded state "
            f"argument first, got {got}")]
    return []
