"""Fast bytecode virtual machine for the query IR (paper Section IV).

The VM is a register machine with a statically typed, fixed-length
instruction encoding.  Translation from IR into bytecode is linear time; the
dominant cost is the liveness computation for register allocation, which
implements the paper's loop-aware algorithm (Fig. 10-12).

Public entry points:

* :func:`translate_function` -- IR function -> :class:`BytecodeFunction`.
* :class:`VirtualMachine` -- the threaded-code interpreter (one prebuilt
  handler per instruction, see :mod:`repro.vm.interpreter`).
* :class:`repro.vm.ir_interpreter.IRInterpreter` -- the deliberately naive
  direct IR walker standing in for LLVM's built-in interpreter (the slowest
  point in paper Fig. 2).
"""

from .opcodes import Opcode, BCInstruction
from .bytecode import BytecodeFunction, disassemble
from .liveness import LiveRange, compute_live_ranges
from .regalloc import RegisterAllocation, allocate_registers
from .translator import translate_function, TranslationStats
from .interpreter import VirtualMachine
from .ir_interpreter import IRInterpreter

__all__ = [
    "Opcode", "BCInstruction",
    "BytecodeFunction", "disassemble",
    "LiveRange", "compute_live_ranges",
    "RegisterAllocation", "allocate_registers",
    "translate_function", "TranslationStats",
    "VirtualMachine",
    "IRInterpreter",
]
