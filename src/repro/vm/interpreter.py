"""The bytecode dispatch loop (paper Fig. 8), as threaded code.

The virtual machine executes a :class:`BytecodeFunction` against a freshly
allocated register file.  Dispatch is *threaded* in the sense of Bell's
"Threaded Code" (CACM 1973): every instruction of ``function.code`` becomes,
once, a small closure that captures its operands and its fall-through ip,
does the instruction's work on the register file and returns the next ip.
Running a function is then only::

    while ip >= 0:
        executed += 1
        ip = handlers[ip](regs)

-- one indexed call per instruction, no opcode test at run time.  A negative
ip encodes a return: ``-1`` returns None, ``-2 - slot`` returns
``regs[slot]``.  RET and an instruction that raises are counted, like every
other instruction.

:func:`build_handlers` is the handler table: a pure function of ``code`` and
``constant_slots``, so each handler comes from exactly one instruction and
what the bytecode verifier proves about ``code`` is what runs.  The result
is cached on the function (:attr:`BytecodeFunction.handlers`):
:func:`~repro.vm.translate_function` builds it eagerly, a hand-built or
``dataclasses.replace``-d function on its first execution.  Building
specialises, as the compiled tiers do:

* wrapping ``add``/``sub``/``mul`` test the int64 range inline and call
  :func:`_wrap64` only when the result left it,
* calls with up to four arguments read them without building an argument
  list,
* a ``load_idx`` whose pointer is a pooled constant ``(ColumnView, off)``
  reads ``chunks[i >> shift][i & mask]`` from
  :meth:`~repro.catalog.ColumnView.chunk_layout` instead of calling
  ``ColumnView.__getitem__``.  This is sound because constant slots are
  never written: the allocator guarantees it and the verifier checks it.

Semantics notes:

* unchecked integer arithmetic wraps to 64 bits (exactly what machine code
  does), checked arithmetic raises :class:`repro.errors.OverflowError_`,
* division by zero raises :class:`repro.errors.DivisionByZeroError`,
* pointers are ``(buffer, offset)`` pairs; ``load``/``store`` index the
  buffer, so column scans run directly against the storage arrays.
"""

from __future__ import annotations

from textwrap import dedent
from typing import Callable, Optional, Sequence

from ..catalog.table import ColumnView
from ..errors import DivisionByZeroError, ExecutionError, OverflowError_, VMError
from ..telemetry.metrics import Counter
from .bytecode import BytecodeFunction
from .opcodes import CHECKED_OPCODES, COMPARE_TO_OPCODE, BCInstruction, Opcode

_INT64_MASK = (1 << 64) - 1
_INT64_SIGN = 1 << 63
_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1

#: Widest call whose handler reads its arguments one by one; wider calls
#: build an argument list.
_MAX_UNROLLED_ARGS = 4


def _wrap64(value: int) -> int:
    value &= _INT64_MASK
    if value & _INT64_SIGN:
        value -= 1 << 64
    return value


#: A handler maps the register file to the next ip; a factory builds the
#: handler of one instruction from its operands, its fall-through ip and
#: the function's constant pool ``{slot: value}``.
Handler = Callable[[list], int]
Factory = Callable[[int, int, int, object, int, dict], Handler]


def _compile_factory(body: str, setup: str = "") -> Factory:
    """A factory whose handler runs ``body`` and returns the fall-through ip.

    ``body`` sees ``regs`` and the instruction's ``a1``/``a2``/``a3``/
    ``lit``; ``setup`` runs once per instruction, when the handler is built,
    and may bind further names for ``body``.  Both are compiled here, once,
    so a handler is a plain closure with its operands as free variables.
    """
    lines = ["def factory(a1, a2, a3, lit, nxt, constants):"]
    lines += [f"    {line}" for line in dedent(setup).strip().splitlines()]
    lines.append("    def handler(regs):")
    lines += [f"        {line}" for line in dedent(body).strip().splitlines()]
    lines += ["        return nxt", "    return handler"]
    namespace = {"_wrap64": _wrap64, "OverflowError_": OverflowError_,
                 "DivisionByZeroError": DivisionByZeroError}
    exec(compile("\n".join(lines), "<vm-handler>", "exec"), namespace)
    return namespace["factory"]


_IN_INT64 = f"{_INT64_MIN} <= value <= {_INT64_MAX}"
_PYTHON_COMPARE = {"eq": "==", "ne": "!=", "lt": "<", "le": "<=",
                   "gt": ">", "ge": ">="}

#: Handler bodies of every opcode that falls through to the next ip.
_BODIES: dict[Opcode, str] = {
    Opcode.MOV: "regs[a1] = regs[a2]",
    Opcode.LOAD_CONST: "regs[a1] = lit",
    Opcode.SDIV_I64: """
        divisor = regs[a3]
        if divisor == 0:
            raise DivisionByZeroError("integer division by zero")
        quotient = abs(regs[a2]) // abs(divisor)
        if (regs[a2] < 0) != (divisor < 0):
            quotient = -quotient
        regs[a1] = _wrap64(quotient)""",
    Opcode.SREM_I64: """
        divisor = regs[a3]
        if divisor == 0:
            raise DivisionByZeroError("integer modulo by zero")
        remainder = abs(regs[a2]) % abs(divisor)
        regs[a1] = -remainder if regs[a2] < 0 else remainder""",
    Opcode.AND_I64: "regs[a1] = regs[a2] & regs[a3]",
    Opcode.OR_I64: "regs[a1] = regs[a2] | regs[a3]",
    Opcode.XOR_I64: "regs[a1] = regs[a2] ^ regs[a3]",
    Opcode.SHL_I64: "regs[a1] = _wrap64(regs[a2] << (regs[a3] & 63))",
    Opcode.ASHR_I64: "regs[a1] = regs[a2] >> (regs[a3] & 63)",
    Opcode.SMIN_I64:
        "regs[a1] = regs[a2] if regs[a2] < regs[a3] else regs[a3]",
    Opcode.SMAX_I64:
        "regs[a1] = regs[a2] if regs[a2] > regs[a3] else regs[a3]",
    Opcode.ADD_F64: "regs[a1] = regs[a2] + regs[a3]",
    Opcode.SUB_F64: "regs[a1] = regs[a2] - regs[a3]",
    Opcode.MUL_F64: "regs[a1] = regs[a2] * regs[a3]",
    Opcode.DIV_F64: """
        divisor = regs[a3]
        if divisor == 0.0:
            raise DivisionByZeroError("float division by zero")
        regs[a1] = regs[a2] / divisor""",
    Opcode.FMIN_F64:
        "regs[a1] = regs[a2] if regs[a2] < regs[a3] else regs[a3]",
    Opcode.FMAX_F64:
        "regs[a1] = regs[a2] if regs[a2] > regs[a3] else regs[a3]",
    Opcode.SELECT: "regs[a1] = regs[a2] if regs[lit] else regs[a3]",
    Opcode.SITOFP: "regs[a1] = float(regs[a2])",
    Opcode.FPTOSI: "regs[a1] = int(regs[a2])",
    Opcode.GEP: """
        buf, off = regs[a2]
        regs[a1] = (buf, off + regs[a3])""",
    Opcode.LOAD: """
        buf, off = regs[a2]
        regs[a1] = buf[off]""",
    Opcode.STORE: """
        buf, off = regs[a2]
        buf[off] = regs[a1]""",
    Opcode.STORE_IDX: """
        buf, off = regs[a2]
        buf[off + regs[a3]] = regs[a1]""",
}
for (_predicate, _kind), _op in COMPARE_TO_OPCODE.items():
    _BODIES[_op] = (f"regs[a1] = 1 if regs[a2] {_PYTHON_COMPARE[_predicate]} "
                    f"regs[a3] else 0")
for _sign, _wrapping, _flag, _checked in (
        ("+", Opcode.ADD_I64, Opcode.OVF_ADD_I64, Opcode.ADD_CHK_I64),
        ("-", Opcode.SUB_I64, Opcode.OVF_SUB_I64, Opcode.SUB_CHK_I64),
        ("*", Opcode.MUL_I64, Opcode.OVF_MUL_I64, Opcode.MUL_CHK_I64)):
    _BODIES[_wrapping] = f"""
        value = regs[a2] {_sign} regs[a3]
        regs[a1] = value if {_IN_INT64} else _wrap64(value)"""
    _BODIES[_flag] = f"""
        value = regs[a2] {_sign} regs[a3]
        regs[a1] = 0 if {_IN_INT64} else 1"""
    _BODIES[_checked] = f"""
        value = regs[a2] {_sign} regs[a3]
        if not {_IN_INT64}:
            raise OverflowError_({CHECKED_OPCODES[_checked]!r})
        regs[a1] = value"""
del _predicate, _kind, _op, _sign, _wrapping, _flag, _checked

_FACTORIES: dict[int, Factory] = {
    op: _compile_factory(body) for op, body in _BODIES.items()}

# TRUNC sign-extends the low ``lit`` bits; the masks are per instruction.
_FACTORIES[Opcode.TRUNC] = _compile_factory(
    """
    value = regs[a2] & mask
    regs[a1] = value - span if value >= sign else value""",
    setup="""
    mask = (1 << lit) - 1
    span = 1 << lit
    sign = 1 << (lit - 1) if lit > 1 else span""")


# -- calls ---------------------------------------------------------------- #
def _call_factories(store: str) -> list[Factory]:
    """Call handlers by arity (the last one builds an argument list)."""
    factories = []
    for arity in range(_MAX_UNROLLED_ARGS + 1):
        slots = "".join(f"s{i}, " for i in range(arity))
        args = ", ".join(f"regs[s{i}]" for i in range(arity))
        factories.append(_compile_factory(
            f"{store}impl({args})",
            setup=f"impl, ({slots}) = lit" if arity else "impl = lit[0]"))
    factories.append(_compile_factory(
        f"{store}impl(*[regs[slot] for slot in slots])",
        setup="impl, slots = lit"))
    return factories


def _call_by_arity(factories: list[Factory]) -> Factory:
    def factory(a1, a2, a3, lit, nxt, constants):
        arity = min(len(lit[1]), _MAX_UNROLLED_ARGS + 1)
        return factories[arity](a1, a2, a3, lit, nxt, constants)
    return factory


_FACTORIES[Opcode.CALL] = _call_by_arity(_call_factories("regs[a1] = "))
_FACTORIES[Opcode.CALL_VOID] = _call_by_arity(_call_factories(""))


# -- column reads --------------------------------------------------------- #
_load_idx_register = _compile_factory("""
    buf, off = regs[a2]
    regs[a1] = buf[off + regs[a3]]""")
_load_idx_column = _compile_factory(
    """
    index = regs[a3] + off
    regs[a1] = chunks[index >> shift][index & mask]""",
    setup="""
    view, off = constants[a2]
    chunks, shift, mask = view.chunk_layout()""")


def _load_idx(a1, a2, a3, lit, nxt, constants) -> Handler:
    pointer = constants.get(a2)
    if isinstance(pointer, tuple) and len(pointer) == 2 \
            and isinstance(pointer[0], ColumnView):
        factory = _load_idx_column
    else:
        factory = _load_idx_register
    return factory(a1, a2, a3, lit, nxt, constants)


_FACTORIES[Opcode.LOAD_IDX] = _load_idx


# -- control flow --------------------------------------------------------- #
def _br(a1, a2, a3, lit, nxt, constants) -> Handler:
    return lambda regs: lit


def _condbr(a1, a2, a3, lit, nxt, constants) -> Handler:
    return lambda regs: a2 if regs[a1] else a3


def _ret(a1, a2, a3, lit, nxt, constants) -> Handler:
    return lambda regs: -1


def _ret_val(a1, a2, a3, lit, nxt, constants) -> Handler:
    encoded = -2 - a1
    return lambda regs: encoded


def _trap(a1, a2, a3, lit, nxt, constants) -> Handler:
    message = str(lit)

    def handler(regs):
        raise ExecutionError(message)
    return handler


_FACTORIES.update({Opcode.BR: _br, Opcode.CONDBR: _condbr, Opcode.RET: _ret,
                   Opcode.RET_VAL: _ret_val, Opcode.TRAP: _trap})


def build_handlers(code: Sequence[BCInstruction],
                   constant_slots: Sequence[tuple[int, object]]
                   ) -> tuple[Handler, ...]:
    """The threaded code of ``code``: one handler per instruction.

    Raises :class:`VMError` on an opcode the VM does not know.
    """
    constants = dict(constant_slots)
    handlers = []
    for nxt, (op, a1, a2, a3, lit) in enumerate(code, 1):
        factory = _FACTORIES.get(op)
        if factory is None:
            raise VMError(f"unknown opcode {op}")
        handlers.append(factory(a1, a2, a3, lit, nxt, constants))
    return tuple(handlers)


class VirtualMachine:
    """Executes translated bytecode functions.

    A single instance is stateless between calls and can be shared by all
    worker threads; every invocation allocates its own register file.
    """

    def __init__(self):
        #: Sharded instruction counter: one VM instance is shared by all
        #: worker threads of a database, so each thread accumulates into
        #: its own cell and reads merge the cells -- exact totals without
        #: the per-call lock this counter historically took.
        self._instructions = Counter("vm.instructions")

    @property
    def instructions_executed(self) -> int:
        """Total bytecode instructions executed (merged over all threads)."""
        return self._instructions.value

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def execute(self, function: BytecodeFunction,
                args: Sequence[object] = ()) -> Optional[object]:
        """Run ``function`` with ``args``, returning its result (or None)."""
        handlers = function.handlers
        if handlers is None:
            # Building twice on a race is harmless: both tables are equal.
            handlers = function.handlers = build_handlers(
                function.code, function.constant_slots)
        regs = function.make_register_file(args)
        ip = 0
        executed = 0
        try:
            while ip >= 0:
                executed += 1
                ip = handlers[ip](regs)
        finally:
            self._instructions.inc(executed)
        return None if ip == -1 else regs[-2 - ip]
