"""Property tests: every computing VM opcode equals the IR interpreter.

The VM's threaded handlers are the only implementation of each opcode, so
the reference is the direct IR interpreter.  One small IR function per
arithmetic, comparison, cast, select, min/max, checked and overflow-check
operation is translated once and run on operands at the int64 limits and
on NaN, +-inf and -0.0 -- every pair of a fixed edge set, then hypothesis
draws around them.  The VM must return the same value (same type, same
``repr``, so -0.0 and NaN count) or raise the same error class.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import OverflowError_
from repro.ir import ExternFunction, Function, IRBuilder
from repro.ir.types import f64, i1, i8, i32, i64, ptr, void
from repro.vm import IRInterpreter, VirtualMachine, translate_function
from repro.vm.opcodes import Opcode

_SETTINGS = settings(max_examples=60, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])

INT64_MIN, INT64_MAX = -(1 << 63), (1 << 63) - 1
#: sqrt(2**63) rounded both ways: the products around it cross the limit.
_ROOT = 3037000499

#: The int64 limits, and the sign boundaries ``trunc`` and ``shl`` cross.
INT_EDGES = [INT64_MIN, INT64_MIN + 1, -_ROOT - 1, -1, 0, 1, 63, 64, 127,
             128, 255, -129, 1 << 31, _ROOT + 1, INT64_MAX]
FLOAT_EDGES = [float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 1.5,
               -2.5, 5e-324, 9.3e18, -1e308]
#: Operands of object comparisons: strings, and numbers (mixing the two
#: in an ordering comparison raises TypeError on both sides).
OBJECT_EDGES = ["", "a", "ab", "b", -1, 0, 2.5, float("nan")]

int64_edges = st.one_of(
    st.sampled_from(INT_EDGES),
    st.integers(min_value=-300, max_value=300),
    st.integers(min_value=INT64_MIN, max_value=INT64_MIN + 1000),
    st.integers(min_value=INT64_MAX - 1000, max_value=INT64_MAX),
    st.integers(min_value=INT64_MIN, max_value=INT64_MAX))
float_edges = st.one_of(st.sampled_from(FLOAT_EDGES), st.floats())
object_values = st.one_of(st.sampled_from(OBJECT_EDGES), st.text(max_size=3),
                          int64_edges, float_edges)

EDGES = {i64: INT_EDGES, f64: FLOAT_EDGES, ptr: OBJECT_EDGES}
VALUES = {i64: int64_edges, f64: float_edges, ptr: object_values}


def _raise_overflow():
    raise OverflowError_("overflow")


def _binary(opcode):
    return lambda builder, a, b: builder.binary(opcode, a, b)


def _compare(predicate):
    return lambda builder, a, b: builder.cmp(predicate, a, b)


def _overflow_flag(opcode):
    return lambda builder, a, b: builder.overflow_check(opcode, a, b)


def _checked(opcode):
    """``op / ovf.op / condbr`` into an error block that raises what the
    fused checked opcode raises."""
    def body(builder, a, b):
        error = builder.new_block("overflow.error")
        IRBuilder(builder.function, error).call(
            ExternFunction("raise_overflow", [], void, _raise_overflow), [])
        IRBuilder(builder.function, error).unreachable()
        return builder.checked_arith(opcode, a, b, error)
    return body


def _cast(name, to_type=None):
    def body(builder, a):
        if to_type is None:
            return getattr(builder, name)(a)
        return getattr(builder, name)(a, to_type)
    return body


def _select(builder, a, b):
    return builder.select(builder.cmp("lt", a, b), b, a)


#: name -> (argument types, body(builder, *args) -> returned value, the VM
#: opcode the translation must contain).
CASES = {}
for _opcode, _vm in (("add", Opcode.ADD_I64), ("sub", Opcode.SUB_I64),
                     ("mul", Opcode.MUL_I64), ("sdiv", Opcode.SDIV_I64),
                     ("srem", Opcode.SREM_I64), ("and", Opcode.AND_I64),
                     ("or", Opcode.OR_I64), ("xor", Opcode.XOR_I64),
                     ("shl", Opcode.SHL_I64), ("ashr", Opcode.ASHR_I64),
                     ("smin", Opcode.SMIN_I64), ("smax", Opcode.SMAX_I64)):
    CASES[_opcode] = ((i64, i64), _binary(_opcode), _vm)
for _opcode, _vm in (("fadd", Opcode.ADD_F64), ("fsub", Opcode.SUB_F64),
                     ("fmul", Opcode.MUL_F64), ("fdiv", Opcode.DIV_F64),
                     ("fmin", Opcode.FMIN_F64), ("fmax", Opcode.FMAX_F64)):
    CASES[_opcode] = ((f64, f64), _binary(_opcode), _vm)
for _opcode in ("add", "sub", "mul"):
    _upper = _opcode.upper()
    CASES[f"checked_{_opcode}"] = ((i64, i64), _checked(_opcode),
                                   Opcode[f"{_upper}_CHK_I64"])
    CASES[f"ovf_{_opcode}"] = ((i64, i64), _overflow_flag(_opcode),
                               Opcode[f"OVF_{_upper}_I64"])
for _predicate in ("eq", "ne", "lt", "le", "gt", "ge"):
    _upper = _predicate.upper()
    CASES[f"icmp_{_predicate}"] = ((i64, i64), _compare(_predicate),
                                   Opcode[f"ICMP_{_upper}_I64"])
    CASES[f"fcmp_{_predicate}"] = ((f64, f64), _compare(_predicate),
                                   Opcode[f"FCMP_{_upper}_F64"])
    CASES[f"ocmp_{_predicate}"] = ((ptr, ptr), _compare(_predicate),
                                   Opcode[f"OCMP_{_upper}"])
CASES.update({
    "sitofp": ((i64,), _cast("sitofp"), Opcode.SITOFP),
    "fptosi": ((f64,), _cast("fptosi"), Opcode.FPTOSI),
    "trunc_i32": ((i64,), _cast("trunc", i32), Opcode.TRUNC),
    "trunc_i8": ((i64,), _cast("trunc", i8), Opcode.TRUNC),
    "trunc_i1": ((i64,), _cast("trunc", i1), Opcode.TRUNC),
    "sext": ((i64,), _cast("sext", i64), Opcode.MOV),
    "select_i64": ((i64, i64), _select, Opcode.SELECT),
    "select_f64": ((f64, f64), _select, Opcode.SELECT),
})
del _opcode, _vm, _upper, _predicate


def _build(name):
    types, body, _ = CASES[name]
    function = Function(name, list(types),
                        [f"x{i}" for i in range(len(types))], i64)
    builder = IRBuilder(function)
    builder.ret(body(builder, *function.args))
    return function, translate_function(function)[0]


FUNCTIONS = {name: _build(name) for name in CASES}

#: Every opcode that computes a value from registers.
COMPUTING = set(Opcode) - {
    Opcode.MOV, Opcode.LOAD_CONST, Opcode.GEP, Opcode.LOAD, Opcode.STORE,
    Opcode.LOAD_IDX, Opcode.STORE_IDX, Opcode.CALL, Opcode.CALL_VOID,
    Opcode.BR, Opcode.CONDBR, Opcode.RET, Opcode.RET_VAL, Opcode.TRAP}


def outcome(run):
    """``("value", type, repr)`` of a result, or ``("raised", class)``."""
    try:
        value = run()
    except Exception as exc:  # the class is what is compared
        return ("raised", type(exc))
    return ("value", type(value), repr(value))


def test_cases_cover_every_computing_opcode():
    for name, (_, _, opcode) in CASES.items():
        _, bytecode = FUNCTIONS[name]
        assert opcode in {inst.op for inst in bytecode.code}, name
    assert COMPUTING <= {opcode for _, _, opcode in CASES.values()}


def assert_vm_equals_ir_interpreter(name, args):
    function, bytecode = FUNCTIONS[name]
    expected = outcome(lambda: IRInterpreter().execute(function, args))
    assert outcome(lambda: VirtualMachine().execute(bytecode, args)) == \
        expected, (name, args)


@pytest.mark.parametrize("name", sorted(CASES))
def test_vm_equals_ir_interpreter_on_every_pair_of_edges(name):
    function, _ = FUNCTIONS[name]
    for args in itertools.product(*(EDGES[argument.type]
                                    for argument in function.args)):
        assert_vm_equals_ir_interpreter(name, list(args))


@pytest.mark.parametrize("name", sorted(CASES))
@_SETTINGS
@given(data=st.data())
def test_vm_equals_ir_interpreter(name, data):
    function, _ = FUNCTIONS[name]
    assert_vm_equals_ir_interpreter(name, [
        data.draw(VALUES[argument.type], label=argument.name)
        for argument in function.args])
