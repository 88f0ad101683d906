"""Engine auto-downgrade: every blocker, silent fallback, CLI notes.

For each condition that makes the analytic engine ineligible, three
things must hold: :func:`compiled_block_reason` names it,
``engine="auto"`` falls back to the cycle engine *silently with
bit-identical results*, and the CLI surfaces the downgrade as a note
(never an error). Tests named ``fused`` predate the fold of the fused
engine into ``compiled``; they pin the same behaviour on ``compiled``.
"""

import numpy as np
import pytest

from repro.core import minimum_cost_path
from repro.engine import compiled_block_reason, resolve_engine
from repro.cli import main
from repro.errors import EngineError
from repro.ppa import FaultKind, FaultPlan, PPAConfig, PPAMachine
from repro.ppc.reductions import ppa_min, ppa_selected_min


def _wrapped_min(*args, **kwargs):
    """Same semantics as the default, but a different callable — the
    engine policy must treat any non-default routine as blocking."""
    return ppa_min(*args, **kwargs)


def _wrapped_selected_min(*args, **kwargs):
    return ppa_selected_min(*args, **kwargs)


def _graph(n, seed=3):
    rng = np.random.default_rng(seed)
    maxint = (1 << 16) - 1
    W = rng.integers(1, 9, size=(n, n)).astype(np.int64)
    W[rng.random((n, n)) < 0.6] = maxint
    np.fill_diagonal(W, 0)
    return W


def _fault_plan():
    return FaultPlan().add(2, 3, FaultKind.STUCK_OPEN, axis=0)


# Every blocker: (id, machine mutation, routine kwargs, reason fragment)
BLOCKERS = [
    (
        "fault-plan",
        lambda m: m.inject_faults(_fault_plan()),
        {},
        "fault plan",
    ),
    (
        "span-tracer",
        lambda m: m.telemetry.enable(),
        {},
        "span tracer",
    ),
    (
        "bus-trace",
        lambda m: setattr(m.trace, "enabled", True),
        {},
        "bus trace",
    ),
    (
        "custom-min",
        lambda m: None,
        {"min_routine": _wrapped_min},
        "non-default min routine",
    ),
    (
        "custom-selected-min",
        lambda m: None,
        {"selected_min_routine": _wrapped_selected_min},
        "non-default selected_min routine",
    ),
]
BLOCKER_IDS = [b[0] for b in BLOCKERS]


@pytest.mark.parametrize("_, mutate, routines, fragment", BLOCKERS,
                         ids=BLOCKER_IDS)
class TestEveryBlocker:
    def test_both_tiers_report_the_reason(self, _, mutate, routines,
                                          fragment):
        machine = PPAMachine(PPAConfig(n=8, word_bits=16))
        mutate(machine)
        reason = compiled_block_reason(machine, **routines)
        assert reason is not None and fragment in reason
        # the library error and the auto fallback carry the same reason
        with pytest.raises(EngineError, match="unavailable") as err:
            resolve_engine(machine, "compiled", **routines)
        assert reason in str(err.value)
        assert resolve_engine(machine, "auto", **routines).reason == reason

    def test_auto_falls_back_silently_and_identically(self, _, mutate,
                                                      routines, fragment):
        """auto on a blocked machine = cycle results, bit for bit."""
        W = _graph(8)
        clean = PPAMachine(PPAConfig(n=8, word_bits=16))
        reference = minimum_cost_path(clean, W, 0, engine="cycle")

        blocked = PPAMachine(PPAConfig(n=8, word_bits=16))
        mutate(blocked)
        choice = resolve_engine(blocked, "auto", **routines)
        assert choice.name == "cycle"
        assert fragment in choice.reason
        if "fault" in _:
            return  # a faulted machine computes *corrupted* answers by
            # design — engine selection is all that can be asserted
        result = minimum_cost_path(blocked, W, 0, engine="auto", **{
            k: v for k, v in routines.items()
        })
        np.testing.assert_array_equal(result.sow, reference.sow)
        np.testing.assert_array_equal(result.ptn, reference.ptn)
        assert result.iterations == reference.iterations

    def test_forcing_analytic_tier_raises(self, _, mutate, routines,
                                          fragment):
        machine = PPAMachine(PPAConfig(n=8, word_bits=16))
        mutate(machine)
        with pytest.raises(EngineError, match="unavailable"):
            resolve_engine(machine, "compiled", **routines)


class TestCliDowngradeNotes:
    """The CLI surfaces every silent downgrade as a note, exit code 0."""

    def test_fused_with_fault_prints_note(self, capsys):
        rc = main(["mcp", "--generate", "gnp", "--n", "6", "-d", "0",
                   "--engine", "compiled", "--fault", "1,2,open,0"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "note: engine 'compiled' unavailable" in out
        assert "fault plan" in out

    def test_fused_with_resilient_prints_note(self, capsys):
        rc = main(["mcp", "--generate", "gnp", "--n", "6", "-d", "0",
                   "--engine", "compiled", "--resilient"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "note: engine 'compiled' unavailable" in out

    def test_profile_notes_fused_downgrade(self, capsys):
        rc = main(["profile", "--generate", "gnp", "--n", "6",
                   "--engine", "compiled"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "note: engine 'compiled' unavailable" in out

    def test_apsp_workers_blocked_prints_note(self, capsys):
        rc = main(["apsp", "--generate", "gnp", "--n", "6",
                   "--workers", "2", "--serial"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "note: --workers 2 unavailable" in out

    def test_eligible_run_prints_no_note(self, capsys):
        rc = main(["mcp", "--generate", "gnp", "--n", "6", "-d", "0",
                   "--engine", "compiled"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "note:" not in out
