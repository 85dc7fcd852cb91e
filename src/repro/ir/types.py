"""IR-level types.

The type system intentionally mirrors the small subset of LLVM types a query
compiler needs: a boolean, a few integer widths, a double, an opaque pointer
and void.  Pointers are untyped (like LLVM's modern opaque pointers); what a
pointer refers to -- a column buffer, a hash table, a string -- is known to the
runtime functions operating on it.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import IRError


@dataclass(frozen=True)
class IRType:
    """A primitive IR type.

    Instances are interned as module-level singletons (``i64``, ``f64``, ...);
    identity comparison therefore works, but equality is defined on the name
    so that deserialised or copied types still compare equal.
    """

    name: str
    bits: int
    is_float: bool = False
    is_pointer: bool = False

    @property
    def is_void(self) -> bool:
        return self.name == "void"

    @property
    def is_integer(self) -> bool:
        return not (self.is_float or self.is_pointer or self.is_void)

    @property
    def is_bool(self) -> bool:
        return self.name == "i1"

    def __str__(self) -> str:
        return self.name

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"IRType({self.name})"


#: 1-bit boolean (result of comparisons, branch conditions).
i1 = IRType("i1", 1)
#: 8-bit integer (rarely used directly; kept for width-dispatch tests).
i8 = IRType("i8", 8)
#: 32-bit integer.
i32 = IRType("i32", 32)
#: 64-bit integer -- the workhorse type for keys, dates, decimals.
i64 = IRType("i64", 64)
#: double precision float.
f64 = IRType("f64", 64, is_float=True)
#: opaque pointer (column buffers, hash tables, strings, query state).
ptr = IRType("ptr", 64, is_pointer=True)
#: void -- function return type only.
void = IRType("void", 0)

#: Integer types that participate in arithmetic, from narrowest to widest.
INTEGER_TYPES = (i1, i8, i32, i64)


def integer_range(ty: IRType) -> tuple[int, int]:
    """Return the inclusive (min, max) value range of a signed integer type."""
    if not ty.is_integer:
        raise IRError(f"{ty} is not an integer type")
    if ty.is_bool:
        return (0, 1)
    half = 1 << (ty.bits - 1)
    return (-half, half - 1)


def wrap_integer(value: int, ty: IRType) -> int:
    """Wrap ``value`` into the two's-complement range of ``ty``.

    Used by constant folding and by the interpreters to give unchecked
    arithmetic the same wrap-around semantics machine code would have.
    """
    if not ty.is_integer:
        raise IRError(f"cannot wrap non-integer type {ty}")
    if ty.is_bool:
        return value & 1
    mask = (1 << ty.bits) - 1
    value &= mask
    if value >= (1 << (ty.bits - 1)):
        value -= 1 << ty.bits
    return value
