"""Execution-engine selection policy.

Two engines can run the paper's MCP relaxation loop:

``cycle``
    The faithful simulator: every bus transaction is an individually
    executed :class:`~repro.ppa.machine.PPAMachine` primitive (the
    bit-serial ``min()`` issues ``h`` wired-ORs, and so on). This is the
    only engine that can honour fault plans, span tracing, bus traces and
    non-default reduction routines, because those features observe (or
    perturb) *individual* transactions.

``compiled``
    The analytic engine (:mod:`repro.engine.compiled`): one relaxation
    round collapses into cache-blocked numpy kernels, and the machine's
    counters are charged from a per-iteration cost vector *replayed* from
    a single cycle-engine iteration (:mod:`repro.engine.costs`). Results
    and **all** counter ledgers are bit-identical to the cycle engine —
    but per-transaction observers see nothing, which is why eligibility
    is gated.

:func:`resolve_engine` implements the policy:

* ``engine="auto"`` (the default everywhere) upgrades to ``compiled``
  whenever the machine is eligible and otherwise silently falls back to
  ``cycle``; existing workflows (fault injection, ``--trace``, profiling,
  A7/A13 routine ablations) keep their exact behaviour.
* ``engine="cycle"`` always honours the request.
* ``engine="compiled"`` raises :class:`~repro.errors.EngineError` with the
  blocking reason when the machine is ineligible (the CLI catches this
  earlier and prints a friendly note instead; see ``repro.cli``).

Process-parallel APSP sharding (``all_pairs_minimum_cost(workers=...)``)
adds one more gate on top of engine eligibility — see
:func:`repro.engine.shard.workers_block_reason`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import EngineError

__all__ = [
    "EngineChoice",
    "ENGINE_NAMES",
    "compiled_block_reason",
    "resolve_engine",
]

ENGINE_NAMES = ("auto", "cycle", "compiled")


@dataclass(frozen=True)
class EngineChoice:
    """Outcome of :func:`resolve_engine`.

    Attributes
    ----------
    name
        The engine that will actually run: ``"cycle"`` or ``"compiled"``.
    requested
        The caller's request (``"auto"``/``"cycle"``/``"compiled"``).
    reason
        Why the choice was made — for ``auto`` fallbacks this is the
        blocking condition (``"fault plan attached"``...), otherwise a
        short confirmation string. Surfaced by the CLI.
    """

    name: str
    requested: str
    reason: str


def compiled_block_reason(
    machine,
    *,
    min_routine=None,
    selected_min_routine=None,
) -> str | None:
    """The first condition blocking the compiled engine, or ``None``.

    The analytic engine computes whole rounds without issuing individual
    bus transactions, so anything that observes (faults, bus trace, span
    tracer) or redefines (custom reduction routines) per-transaction
    behaviour forces the cycle engine.
    """
    from repro.ppc.reductions import ppa_min, ppa_selected_min

    if machine.fault_plan is not None:
        return "fault plan attached (faults act on individual bus transactions)"
    if machine.telemetry.enabled:
        return "span tracer enabled (per-phase attribution needs cycle spans)"
    if machine.trace.enabled:
        return "bus trace enabled (the analytic engine issues no transactions)"
    if min_routine is not None and min_routine is not ppa_min:
        return "non-default min routine (its cost profile is not replayed)"
    if (
        selected_min_routine is not None
        and selected_min_routine is not ppa_selected_min
    ):
        return (
            "non-default selected_min routine (its cost profile is not "
            "replayed)"
        )
    if machine.n < 2:
        return (
            "grid side < 2 (nothing for the analytic engine to relax; "
            "cycle engine is trivial)"
        )
    return None


def resolve_engine(
    machine,
    engine: str = "auto",
    *,
    min_routine=None,
    selected_min_routine=None,
) -> EngineChoice:
    """Apply the engine policy to *machine* and the caller's request.

    See the module docstring for the policy. *min_routine* /
    *selected_min_routine* are the reduction implementations the caller
    would pass to the cycle engine (``None`` means the defaults).
    """
    if engine not in ENGINE_NAMES:
        raise EngineError(
            f"unknown engine {engine!r}; choose one of {ENGINE_NAMES}"
        )
    if engine == "cycle":
        return EngineChoice("cycle", engine, "cycle engine requested")
    blocked = compiled_block_reason(
        machine,
        min_routine=min_routine,
        selected_min_routine=selected_min_routine,
    )
    if engine == "compiled":
        if blocked is not None:
            raise EngineError(
                f"engine={engine!r} unavailable: {blocked}; use engine='auto' "
                "to fall back to the cycle engine transparently"
            )
        return EngineChoice(engine, engine, "compiled engine requested")
    # auto
    if blocked is not None:
        return EngineChoice("cycle", engine, blocked)
    return EngineChoice(
        "compiled", engine, "machine eligible for the analytic engine"
    )
