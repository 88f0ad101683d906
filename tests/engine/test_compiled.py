"""Differential cross-validation: compiled == cycle, bit for bit.

The compiled engine's contract is exact equivalence with the cycle engine
on SOW/PTN, iteration counts, the scalar counter book and every per-lane
serial-equivalent ledger, computed through cache-blocked kernels. The
property tests here drive both engines over random graphs, word widths
and lane counts, and additionally sweep the tile size (including
degenerate 1-row tiles) to pin the cross-tile argmin tie-break.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import minimum_cost_path
from repro.core.batched import batched_minimum_cost_path
from repro.engine import blocked_relax, compiled, compiled_kernel_info, row_block
from repro.errors import GraphError
from repro.ppa import PPAConfig, PPAMachine

from tests.engine.test_differential import batched_case, graph_case


def _run_pair(n, word_bits, W, d):
    return {
        engine: minimum_cost_path(
            PPAMachine(PPAConfig(n=n, word_bits=word_bits)), W, d,
            engine=engine,
        )
        for engine in ("cycle", "compiled")
    }


def _whole_array_relax(sow, W, maxint):
    """Reference relaxation: the full candidate array in one pass."""
    cand = np.minimum(sow[..., None, :] + W, maxint)
    return cand.min(axis=-1), cand.argmin(axis=-1)


def _fixed_rows(rows):
    return lambda batch, n: rows


class TestSerialEquivalence:
    @given(graph_case())
    @settings(max_examples=60)
    def test_sow_ptn_iterations_counters(self, case):
        n, word_bits, W, d = case
        runs = _run_pair(n, word_bits, W, d)
        ref, res = runs["cycle"], runs["compiled"]
        assert np.array_equal(ref.sow, res.sow)
        assert np.array_equal(ref.ptn, res.ptn)
        assert ref.iterations == res.iterations
        assert ref.counters == res.counters

    def test_block_size_sweep_is_bit_identical(self, monkeypatch):
        """Every tile size — including 1-row tiles, which maximise the
        number of cross-tile argmin merges — gives the same answer."""
        rng = np.random.default_rng(9)
        n = 17  # prime: tiles never divide evenly
        maxint = (1 << 16) - 1
        W = rng.integers(1, 9, size=(n, n)).astype(np.int64)
        W[rng.random((n, n)) < 0.55] = maxint
        np.fill_diagonal(W, 0)
        ref = minimum_cost_path(
            PPAMachine(PPAConfig(n=n, word_bits=16)), W, 3, engine="cycle"
        )
        for block in (1, 2, 5, 16, 1000):
            monkeypatch.setattr(compiled, "row_block", _fixed_rows(block))
            res = minimum_cost_path(
                PPAMachine(PPAConfig(n=n, word_bits=16)), W, 3,
                engine="compiled",
            )
            assert np.array_equal(ref.sow, res.sow), block
            assert np.array_equal(ref.ptn, res.ptn), block
            assert ref.iterations == res.iterations, block
            assert ref.counters == res.counters, block

    def test_smallest_index_tie_break_across_tiles(self, monkeypatch):
        """Equal-cost successors in different tiles: the blocked kernel
        must keep numpy's first-occurrence (smallest-index) winner."""
        monkeypatch.setattr(compiled, "row_block", _fixed_rows(1))
        maxint = (1 << 16) - 1
        W = np.full((4, 4), maxint, dtype=np.int64)
        np.fill_diagonal(W, 0)
        W[3, 1] = 2
        W[3, 2] = 2
        W[1, 0] = 5
        W[2, 0] = 5
        ref = minimum_cost_path(
            PPAMachine(PPAConfig(n=4, word_bits=16)), W, 0, engine="cycle"
        )
        res = minimum_cost_path(
            PPAMachine(PPAConfig(n=4, word_bits=16)), W, 0,
            engine="compiled",
        )
        assert np.array_equal(ref.ptn, res.ptn)
        assert res.ptn[3] == 1  # not 2

    def test_max_iterations_error_parity(self):
        maxint = (1 << 16) - 1
        W = np.full((3, 3), maxint, dtype=np.int64)
        np.fill_diagonal(W, 0)
        W[1, 0] = 1
        W[2, 1] = 1
        with pytest.raises(GraphError, match="did not converge"):
            minimum_cost_path(
                PPAMachine(PPAConfig(n=3, word_bits=16)),
                W, 0, max_iterations=1, engine="compiled",
            )


class TestBatchedEquivalence:
    @given(batched_case())
    @settings(max_examples=40)
    def test_all_ledgers_lane_for_lane(self, case):
        n, B, word_bits, W, dest = case
        rf = batched_minimum_cost_path(
            PPAMachine(PPAConfig(n=n, word_bits=word_bits), batch=B),
            W, dest, engine="cycle",
        )
        rc = batched_minimum_cost_path(
            PPAMachine(PPAConfig(n=n, word_bits=word_bits), batch=B),
            W, dest, engine="compiled",
        )
        assert np.array_equal(rf.sow, rc.sow)
        assert np.array_equal(rf.ptn, rc.ptn)
        assert np.array_equal(rf.iterations, rc.iterations)
        assert rf.counters == rc.counters
        assert set(rf.lane_counters) == set(rc.lane_counters)
        for name in rf.lane_counters:
            assert np.array_equal(
                rf.lane_counters[name], rc.lane_counters[name]
            ), name

    def test_compiled_lane_ledger_matches_serial_cycle_runs(self):
        rng = np.random.default_rng(11)
        n = 6
        maxint = (1 << 16) - 1
        W = rng.integers(1, 9, size=(n, n)).astype(np.int64)
        W[rng.random((n, n)) < 0.5] = maxint
        np.fill_diagonal(W, 0)
        res = batched_minimum_cost_path(
            PPAMachine(PPAConfig(n=n, word_bits=16), batch=n),
            W, np.arange(n), engine="compiled",
        )
        for b in range(n):
            serial = minimum_cost_path(
                PPAMachine(PPAConfig(n=n, word_bits=16)), W, b,
                engine="cycle",
            )
            lane = res.lane(b)
            assert np.array_equal(lane.sow, serial.sow)
            assert np.array_equal(lane.ptn, serial.ptn)
            assert lane.iterations == serial.iterations
            assert lane.counters == serial.counters


class TestKernel:
    """The relaxation kernel itself, independent of the MCP loop."""

    @given(st.integers(1, 6), st.integers(2, 12), st.integers(1, 13),
           st.integers(0, 2**31 - 1))
    @settings(max_examples=40)
    def test_blocked_matches_whole_array(self, B, n, rows, seed):
        rng = np.random.default_rng(seed)
        maxint = (1 << 12) - 1
        sow = rng.integers(0, maxint + 1, size=(B, n)).astype(np.int64)
        W = rng.integers(0, maxint + 1, size=(n, n)).astype(np.int64)
        ref = _whole_array_relax(sow, W, maxint)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(compiled, "row_block", _fixed_rows(rows))
            got = blocked_relax(sow, W, maxint)
        assert np.array_equal(ref[0], got[0])
        assert np.array_equal(ref[1], got[1])

    def test_serial_shape_round_trip(self):
        rng = np.random.default_rng(1)
        maxint = (1 << 16) - 1
        sow = rng.integers(0, 50, size=7).astype(np.int64)
        W = rng.integers(0, 50, size=(7, 7)).astype(np.int64)
        ref = _whole_array_relax(sow, W, maxint)
        got = blocked_relax(sow, W, maxint)
        assert got[0].shape == (7,) and got[1].shape == (7,)
        assert np.array_equal(ref[0], got[0])
        assert np.array_equal(ref[1], got[1])

    def test_per_lane_weights(self):
        rng = np.random.default_rng(2)
        maxint = (1 << 16) - 1
        sow = rng.integers(0, 50, size=(3, 5)).astype(np.int64)
        W = rng.integers(0, 50, size=(3, 5, 5)).astype(np.int64)
        ref = _whole_array_relax(sow, W, maxint)
        got = blocked_relax(sow, W, maxint)
        assert np.array_equal(ref[0], got[0])
        assert np.array_equal(ref[1], got[1])

    def test_saturation_before_argmin(self):
        """Clipping must happen before the argmin: two candidates that
        both saturate to MAXINT tie, and the smaller index must win."""
        maxint = 100
        sow = np.array([[90, 95, 0]], dtype=np.int64)
        W = np.array([[50, 60, maxint]] * 3, dtype=np.int64)
        best, arg = blocked_relax(sow, W, maxint)
        assert best[0, 0] == maxint
        assert arg[0, 0] == 0  # 140 and 155 both clip to 100; index 0 wins

    def test_row_block_sizing(self):
        assert row_block(1, 16) == 16  # capped at n
        assert row_block(1, 1024) == 128  # 1 MiB / (1024 * 8)
        assert row_block(64, 4096) >= 16  # floored

    def test_kernel_info_reports_backend(self):
        info = compiled_kernel_info()
        assert info["backend"] == "numpy-blocked"
        assert info["block_target_bytes"] == 1 << 20
