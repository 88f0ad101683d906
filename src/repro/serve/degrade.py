"""The graceful-degradation ladder.

Every rung trades serving *throughput* for *isolation and recoverability*
— never correctness, because both engines are bit-identical and
every answer is verified (:mod:`repro.serve.oracle`) before it leaves
the server. The rungs, top to bottom:

====  =============================  =================================
rung  configuration                  typical trigger
====  =============================  =================================
0     compiled, workers, full lanes  healthy
1     compiled, inline (workers=1)   breaker open / worker crashes
2     compiled, inline, lanes/4      memory or queue pressure
3     cycle, inline, lanes/8,        analytic engine failing /
      resilient executor             bus-fault recovery
====  =============================  =================================

(the engine column is the *request*; per-machine eligibility may refine
it further through :func:`repro.engine.select.resolve_engine`, e.g. a
fault-plan-carrying machine always resolves to ``cycle``).

The ladder keeps one level per graph plus a global floor. Failures
*raise* the level immediately (sticky); sustained success *lowers* it one
rung after ``recovery_successes`` consecutive verified answers, so a
transient incident does not permanently tax the service. Transient
pressure (admission queue occupancy) adds a per-request bump without
moving the sticky level; pressure alone never reaches below rung 2, so
only a recorded failure sends a graph to the slow resilient rung. Every
response computed below rung 0 carries a machine-readable record — rung
number, label, engine/workers/lane divisor, and the accumulated reasons
— satisfying the "recorded downgrade reason on every response" serving
contract.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError

__all__ = ["Rung", "RUNGS", "DegradationLadder"]


@dataclass(frozen=True)
class Rung:
    """One ladder level: how to run a query when at this level."""

    index: int
    label: str
    engine: str
    use_workers: bool
    lane_div: int  #: lanes = max(1, n // lane_div)
    resilient: bool = False  #: run under the PR 3 resilient executor

    def coalesce_width(self, n: int, cap: int) -> int:
        """Max destinations per coalesced engine run at this rung.

        The same ``lane_div`` that throttles APSP sweeps under pressure
        throttles coalesced column batches: a degraded rung computes
        narrower batches (bounding the working set and the blast radius
        of a retry) at the cost of more engine runs. Always >= 1 — a
        batch can always make progress one column at a time.
        """
        return max(1, min(int(cap), max(1, n // self.lane_div)))

    def record(self, reasons: list[str], workers: int) -> dict:
        """The machine-readable ``degraded`` payload for a response."""
        return {
            "rung": self.index,
            "label": self.label,
            "engine": self.engine,
            "workers": workers if self.use_workers else 1,
            "lane_div": self.lane_div,
            "resilient": self.resilient,
            "reasons": list(reasons),
        }


RUNGS: tuple[Rung, ...] = (
    Rung(0, "full", "compiled", True, 1),
    Rung(1, "inline-workers", "compiled", False, 1),
    Rung(2, "reduced-lanes", "compiled", False, 4),
    Rung(3, "cycle-resilient", "cycle", False, 8, resilient=True),
)

#: Deepest rung admission pressure can bump a request to.
_MAX_PRESSURE_LEVEL = 2


@dataclass
class DegradationLadder:
    """Sticky per-graph degradation level with pressure bumps."""

    #: consecutive verified answers at a level before stepping back up.
    recovery_successes: int = 8
    #: admission pressure above which requests get a one-rung bump.
    pressure_bump_at: float = 0.5
    #: pressure above which they get a two-rung bump.
    pressure_bump2_at: float = 0.9

    _level: dict = field(default_factory=dict, init=False)  # graph -> int
    _streak: dict = field(default_factory=dict, init=False)
    _reasons: dict = field(default_factory=dict, init=False)
    #: monotonic tallies for stats export
    stats: dict = field(
        default_factory=lambda: {"downgrades": 0, "recoveries": 0},
        init=False,
    )

    def __post_init__(self) -> None:
        if self.recovery_successes < 1:
            raise ConfigurationError(
                "recovery_successes must be >= 1, got "
                f"{self.recovery_successes}"
            )

    # -- selection -------------------------------------------------------

    def rung_for(self, graph: str, *, pressure: float = 0.0,
                 breaker_open: bool = False) -> tuple[Rung, list[str]]:
        """The rung to run a request at, plus the reasons if degraded."""
        level = self._level.get(graph, 0)
        reasons = list(self._reasons.get(graph, ()))
        if breaker_open and level < 1:
            level = 1
            reasons.append("worker-pool breaker open")
        bump = 0
        if pressure >= self.pressure_bump2_at:
            bump = 2
        elif pressure >= self.pressure_bump_at:
            bump = 1
        if bump:
            reasons.append(
                f"admission pressure {pressure:.2f} (queue backlog)"
            )
        level = max(level, min(level + bump, _MAX_PRESSURE_LEVEL))
        return RUNGS[level], reasons

    def rung_below(self, rung: Rung) -> Rung | None:
        """The next rung down, or ``None`` at the bottom of the ladder."""
        if rung.index + 1 >= len(RUNGS):
            return None
        return RUNGS[rung.index + 1]

    # -- feedback --------------------------------------------------------

    def record_failure(self, graph: str, rung: Rung, reason: str) -> None:
        """A failure at *rung*: pin the graph at least one level below."""
        new_level = min(rung.index + 1, len(RUNGS) - 1)
        if new_level > self._level.get(graph, 0):
            self._level[graph] = new_level
            self.stats["downgrades"] += 1
        self._streak[graph] = 0
        reasons = self._reasons.setdefault(graph, [])
        if reason not in reasons:
            reasons.append(reason)
        del reasons[:-4]  # keep the most recent few

    def record_success(self, graph: str) -> None:
        """A verified answer: progress toward stepping back up."""
        level = self._level.get(graph, 0)
        if level == 0:
            return
        streak = self._streak.get(graph, 0) + 1
        if streak >= self.recovery_successes:
            self._level[graph] = level - 1
            self._streak[graph] = 0
            self.stats["recoveries"] += 1
            if level - 1 == 0:
                self._reasons.pop(graph, None)
        else:
            self._streak[graph] = streak

    def forget(self, graph: str) -> None:
        self._level.pop(graph, None)
        self._streak.pop(graph, None)
        self._reasons.pop(graph, None)

    def snapshot(self) -> dict:
        return {
            "levels": dict(self._level),
            **self.stats,
        }
