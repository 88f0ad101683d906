"""Exception hierarchy for the PPA-MCP reproduction.

Every error raised by the library derives from :class:`ReproError`, so
applications can guard a whole simulation run with a single ``except``
clause while still being able to discriminate machine-level faults from
algorithm-level input problems.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ConfigurationError",
    "MachineError",
    "BusError",
    "BusConflictError",
    "MaskError",
    "VariableError",
    "GraphError",
    "WordWidthError",
    "EngineError",
    "ResilienceError",
    "PPCError",
    "PPCSyntaxError",
    "PPCTypeError",
    "PPCVerifyError",
    "PPCRuntimeError",
]


class ReproError(Exception):
    """Base class for every error raised by :mod:`repro`."""


class ConfigurationError(ReproError):
    """An invalid machine or experiment configuration was supplied."""


class MachineError(ReproError):
    """A machine-level invariant was violated (programming error)."""


class BusError(MachineError):
    """Invalid bus operation, e.g. a broadcast on a ring with no Open switch
    while the machine runs in ``strict`` bus mode."""


class BusConflictError(BusError):
    """A dynamically detected bus write race: two or more Open drivers on
    the same ring injected *disagreeing* values during a broadcast (the
    equal-value multi-driver case is the paper's legitimate wired-OR /
    ``min()`` survivor idiom and is not a conflict). Raised only when the
    machine was built with ``PPAMachine(check_bus_conflicts=True)`` — the
    dynamic counterpart of the static bus-race detector in
    :mod:`repro.verify`."""


class MaskError(MachineError):
    """Invalid use of the ``where``/``elsewhere`` activity-mask stack."""


class VariableError(MachineError):
    """Invalid parallel-variable operation (shape/dtype/machine mismatch)."""


class GraphError(ReproError):
    """The input weight matrix violates the algorithm's preconditions."""


class WordWidthError(GraphError):
    """Weights or accumulated path costs do not fit the machine word."""


class EngineError(ReproError):
    """An execution-engine request cannot be honoured — e.g. ``engine=
    "compiled"`` on a machine carrying a fault plan, an enabled tracer or bus
    trace, or with non-default reduction routines. ``engine="auto"`` never
    raises this: it transparently falls back to the cycle engine instead."""


class ResilienceError(ReproError):
    """The resilient runtime could not deliver a trustworthy result
    (recovery budget exhausted, spare rows/columns insufficient, or the
    array failed its pre-flight screen)."""


class PPCError(ReproError):
    """Base class for Polymorphic Parallel C language errors."""


class PPCSyntaxError(PPCError):
    """Lexical or syntactic error in a PPC source program."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        self.line = line
        self.column = column
        if line:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


class PPCTypeError(PPCError):
    """Static semantic error (undeclared identifier, wrong arity, ...)."""


class PPCVerifyError(PPCError):
    """A PPC program was rejected by the static verifier
    (:mod:`repro.verify`) under ``compile_ppc(..., verify="error")``.

    Carries the full diagnostics :class:`~repro.verify.Report` on the
    ``report`` attribute."""

    def __init__(self, message: str, report=None):
        self.report = report
        super().__init__(message)


class PPCRuntimeError(PPCError):
    """Error raised while interpreting a PPC program."""
