"""Static verification and lint layer.

Three verifiers and one linter guard the engine's correctness invariants:

* :mod:`repro.ir.verifier` (re-exported here for one-stop imports) — the
  LLVM-style structural verifier for generated IR,
* :mod:`repro.analysis.bytecode_verifier` — abstract interpretation over
  translated VM bytecode plus a register-allocation/liveness cross-check,
* :mod:`repro.analysis.extern_contracts` — the declared runtime extern
  contracts (arity, purity, sink state-threading, lock discipline) checked
  against generated call sites and the bound Python implementations,
* :mod:`repro.analysis.lint` — an AST-based concurrency/invariant linter
  over the engine's own source (``python -m repro.analysis.lint src/repro``).

The ``REPRO_VERIFY_IR`` environment variable is the one switch for
build-time verification (see :func:`verify_ir_enabled`): the IR verifier
over every generated module and after each optimization pass that changed
a function, and the bytecode verifier after translation.  The test suite
sets it, so every build there is verified.
"""

from __future__ import annotations

import os

from ..ir.verifier import verify_function, verify_module
from .bytecode_verifier import verify_allocation, verify_bytecode
from .extern_contracts import (
    ContractFinding,
    check_extern_contracts,
    find_contract,
    verify_extern_contracts,
)

_TRUTHY = {"1", "true", "yes", "on"}


def verify_ir_enabled() -> bool:
    """Whether ``REPRO_VERIFY_IR`` is set to a truthy string."""
    return os.environ.get("REPRO_VERIFY_IR", "").strip().lower() in _TRUTHY


__all__ = [
    "ContractFinding",
    "check_extern_contracts",
    "find_contract",
    "verify_allocation",
    "verify_bytecode",
    "verify_extern_contracts",
    "verify_function",
    "verify_ir_enabled",
    "verify_module",
]
