"""Degradation ladder: rung selection, stickiness, recovery, records."""

import pytest

from repro.errors import ConfigurationError
from repro.serve.degrade import RUNGS, DegradationLadder, Rung


class TestRungTable:
    def test_four_rungs_top_to_bottom(self):
        assert [(r.index, r.label, r.engine, r.use_workers, r.lane_div,
                 r.resilient) for r in RUNGS] == [
            (0, "full", "compiled", True, 1, False),
            (1, "inline-workers", "compiled", False, 1, False),
            (2, "reduced-lanes", "compiled", False, 4, False),
            (3, "cycle-resilient", "cycle", False, 8, True),
        ]

    def test_monotone_loss_of_capability(self):
        # workers are only at the top; lane divisor never shrinks going down
        assert [r.use_workers for r in RUNGS] == [True] + [False] * 3
        divs = [r.lane_div for r in RUNGS]
        assert divs == sorted(divs)

    def test_record_is_machine_readable(self):
        rec = RUNGS[2].record(["reduced-lanes probe", "pressure"], workers=1)
        assert rec == {
            "rung": 2, "label": "reduced-lanes", "engine": "compiled",
            "workers": 1, "lane_div": 4, "resilient": False,
            "reasons": ["reduced-lanes probe", "pressure"],
        }


class TestSelection:
    def test_healthy_graph_gets_rung_zero(self):
        ladder = DegradationLadder()
        rung, reasons = ladder.rung_for("g")
        assert rung.index == 0
        assert reasons == []

    def test_breaker_open_floors_at_one(self):
        ladder = DegradationLadder()
        rung, reasons = ladder.rung_for("g", breaker_open=True)
        assert rung.index == 1
        assert any("breaker" in r for r in reasons)

    @pytest.mark.parametrize("pressure, bump", [
        (0.0, 0), (0.49, 0), (0.5, 1), (0.89, 1), (0.9, 2), (1.0, 2),
    ])
    def test_pressure_bumps(self, pressure, bump):
        ladder = DegradationLadder()
        rung, reasons = ladder.rung_for("g", pressure=pressure)
        assert rung.index == bump
        assert bool(reasons) == bool(bump)

    def test_bump_saturates_at_the_bottom(self):
        ladder = DegradationLadder()
        ladder.record_failure("g", RUNGS[2], "x")  # level 3
        rung, _ = ladder.rung_for("g", pressure=1.0)
        assert rung.index == 3

    # (sticky level, breaker open) -> rung label at pressure 0 / 0.5 / 0.9.
    # Pressure bumps stop at reduced-lanes: only a recorded failure
    # reaches the slow cycle-resilient rung.
    SELECTION_TABLE = {
        (0, False): ("full", "inline-workers", "reduced-lanes"),
        (1, False): ("inline-workers", "reduced-lanes", "reduced-lanes"),
        (2, False): ("reduced-lanes", "reduced-lanes", "reduced-lanes"),
        (3, False): ("cycle-resilient",) * 3,
        (0, True): ("inline-workers", "reduced-lanes", "reduced-lanes"),
        (1, True): ("inline-workers", "reduced-lanes", "reduced-lanes"),
        (2, True): ("reduced-lanes", "reduced-lanes", "reduced-lanes"),
        (3, True): ("cycle-resilient",) * 3,
    }

    @pytest.mark.parametrize("level, breaker_open", sorted(SELECTION_TABLE))
    def test_full_selection_table(self, level, breaker_open):
        ladder = DegradationLadder()
        if level:
            ladder.record_failure("g", RUNGS[level - 1], "x")
        for pressure, label in zip((0.0, 0.5, 0.9),
                                   self.SELECTION_TABLE[level, breaker_open]):
            rung, _ = ladder.rung_for("g", pressure=pressure,
                                      breaker_open=breaker_open)
            assert rung.label == label, (level, breaker_open, pressure)


class TestStickiness:
    def test_failure_pins_below_the_failed_rung(self):
        ladder = DegradationLadder()
        ladder.record_failure("g", RUNGS[0], "verify rejected")
        rung, reasons = ladder.rung_for("g")
        assert rung.index == 1
        assert "verify rejected" in " ".join(reasons)

    def test_per_graph_isolation(self):
        ladder = DegradationLadder()
        ladder.record_failure("bad", RUNGS[1], "x")
        assert ladder.rung_for("bad")[0].index == 2
        assert ladder.rung_for("good")[0].index == 0

    def test_rung_below_walks_and_terminates(self):
        ladder = DegradationLadder()
        rung = RUNGS[0]
        seen = [rung.index]
        while (rung := ladder.rung_below(rung)) is not None:
            seen.append(rung.index)
        assert seen == [0, 1, 2, 3]


class TestRecovery:
    def test_recovers_one_rung_after_streak(self):
        ladder = DegradationLadder(recovery_successes=3)
        ladder.record_failure("g", RUNGS[1], "x")
        assert ladder.rung_for("g")[0].index == 2
        for _ in range(2):
            ladder.record_success("g")
            assert ladder.rung_for("g")[0].index == 2
        ladder.record_success("g")  # streak complete
        assert ladder.rung_for("g")[0].index == 1
        assert ladder.snapshot()["recoveries"] == 1

    def test_failure_resets_the_streak(self):
        ladder = DegradationLadder(recovery_successes=2)
        ladder.record_failure("g", RUNGS[0], "x")
        ladder.record_success("g")
        ladder.record_failure("g", RUNGS[1], "y")  # streak lost, level 2
        ladder.record_success("g")
        assert ladder.rung_for("g")[0].index == 2

    def test_full_recovery_clears_reasons(self):
        ladder = DegradationLadder(recovery_successes=1)
        ladder.record_failure("g", RUNGS[0], "incident")
        ladder.record_success("g")
        rung, reasons = ladder.rung_for("g")
        assert rung.index == 0
        assert reasons == []

    def test_forget_drops_all_state(self):
        ladder = DegradationLadder()
        ladder.record_failure("g", RUNGS[2], "x")
        ladder.forget("g")
        assert ladder.rung_for("g")[0].index == 0

    def test_bad_config_rejected(self):
        with pytest.raises(ConfigurationError):
            DegradationLadder(recovery_successes=0)
