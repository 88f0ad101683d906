"""The compiled engine's kernel and tiling: compiled == cycle, bit for bit.

The compiled engine's contract is exact equivalence with the cycle engine
on SOW/PTN, iteration counts, the scalar counter book and every per-lane
serial-equivalent ledger, computed through cache-blocked kernels. The
random-graph properties over word widths and lane counts live in
``test_differential.py``; the tests here sweep the tile size (including
degenerate 1-row tiles) to pin the cross-tile argmin tie-break, and pin
both kernel layouts — dense tiles and the neighbour list — against a
whole-array reference.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import all_pairs_minimum_cost, minimum_cost_path
from repro.core.batched import batched_minimum_cost_path
from repro.engine import blocked_relax, compiled, compiled_kernel_info, row_block
from repro.errors import GraphError
from repro.ppa import PPAConfig, PPAMachine


def _whole_array_relax(sow, W, maxint):
    """Reference relaxation: the full candidate array in one pass."""
    cand = np.minimum(sow[..., None, :] + W, maxint)
    return cand.min(axis=-1), cand.argmin(axis=-1)


def _fixed_rows(rows):
    return lambda batch, n: rows


def _count_neighbour_calls(mp):
    """Wrap the neighbour-list layout; returns the list of its calls."""
    calls = []
    inner = compiled._neighbour_relax

    def spy(*args):
        calls.append(args[0].shape)
        return inner(*args)

    mp.setattr(compiled, "_neighbour_relax", spy)
    return calls


@st.composite
def neighbour_case(draw):
    """A shared plane and a ``(B, n)`` state for the neighbour list.

    Densities run from edgeless to complete; ``hi`` = 3 makes equal-cost
    candidates in different columns common, ``hi`` = maxint makes sums
    saturate; lane 0 is all-``maxint``, so each of its rows saturates;
    the ``keep`` diagonal leaves random (possibly ``maxint``) self-loops.
    """
    maxint = (1 << 12) - 1
    n = draw(st.integers(1, 13))
    batch = draw(st.integers(1, 12))
    density = draw(st.sampled_from([0.0, 0.1, 0.3, 0.6, 0.9, 1.0]))
    hi = draw(st.sampled_from([3, maxint]))
    diagonal = draw(st.sampled_from(["zero", "keep"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    W = rng.integers(0, hi, size=(n, n)).astype(np.int64)
    W[rng.random((n, n)) >= density] = maxint
    if diagonal == "zero":
        np.fill_diagonal(W, 0)
    sow = rng.integers(0, hi + 1, size=(batch, n)).astype(np.int64)
    sow[rng.random((batch, n)) < 0.3] = maxint
    sow[0] = maxint
    return sow, W, maxint


class TestSerialEquivalence:
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
    def test_neighbour_list_apsp_all_ledgers(self, monkeypatch):
        """A sparse all-destination APSP that the layout rule itself sends
        down the neighbour list: every ledger still equals cycle's."""
        rng = np.random.default_rng(12)
        n = 64
        maxint = (1 << 16) - 1
        W = rng.integers(1, 4, size=(n, n)).astype(np.int64)
        W[rng.random((n, n)) >= 0.08] = maxint
        W[np.arange(n), (np.arange(n) + 1) % n] = 2  # strongly connected
        np.fill_diagonal(W, 0)
        k = int(np.count_nonzero(W < maxint, axis=1).max())
        assert compiled.uses_neighbour_list(n, n, k)
        rc = all_pairs_minimum_cost(
            PPAMachine(PPAConfig(n=n, word_bits=16)), W, engine="cycle",
        )
        calls = _count_neighbour_calls(monkeypatch)
        rf = all_pairs_minimum_cost(
            PPAMachine(PPAConfig(n=n, word_bits=16)), W, engine="compiled",
        )
        assert calls and all(shape[0] == n for shape in calls)
        assert np.array_equal(rc.dist, rf.dist)
        assert np.array_equal(rc.succ, rf.succ)
        assert np.array_equal(rc.iterations, rf.iterations)
        assert rc.counters == rf.counters
        assert rc.machine_counters == rf.machine_counters
        assert set(rc.lane_counters) == set(rf.lane_counters)
        for name in rc.lane_counters:
            assert np.array_equal(
                rc.lane_counters[name], rf.lane_counters[name]
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

    @given(neighbour_case(), st.sampled_from([1, 2, 5, 1000]))
    @settings(max_examples=80)
    def test_neighbour_list_matches_whole_array(self, case, rows):
        """The neighbour-list layout, opened by the rule's thresholds to
        every batch and density (by default small batches and dense planes
        take the dense tiles), at tiles of 1, 2, 5 and >= n rows."""
        sow, W, maxint = case
        ref = _whole_array_relax(sow, W, maxint)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(compiled, "row_block", _fixed_rows(rows))
            mp.setattr(compiled, "_NEIGHBOUR_MIN_STATE", 0)
            mp.setattr(compiled, "_NEIGHBOUR_TIERS", ((1, 1.0),))
            calls = _count_neighbour_calls(mp)
            got = blocked_relax(sow, W, maxint)
        assert calls == [sow.shape]
        assert got[0].shape == got[1].shape == sow.shape
        assert np.array_equal(ref[0], got[0])
        assert np.array_equal(ref[1], got[1])

    def test_layout_rule(self):
        rule = compiled.uses_neighbour_list
        assert rule(256, 256, 51)  # apsp-offline: all lanes, degree 32
        assert not rule(256, 256, 256)  # complete plane
        assert rule(64, 64, 16) and not rule(64, 64, 17)  # fill 1/4
        assert rule(16, 512, 32) and not rule(16, 512, 33)  # fill 1/16
        assert not rule(32, 64, 1)  # state below 4096 words
        assert not rule(15, 4096, 1)  # too few lanes for any tier

    def test_per_lane_planes_stay_dense(self, monkeypatch):
        """Sparse per-lane planes of a shape whose shared plane would take
        the neighbour list still take the dense tiles."""
        rng = np.random.default_rng(3)
        maxint = (1 << 16) - 1
        sow = rng.integers(0, 50, size=(64, 64)).astype(np.int64)
        W = np.full((64, 64, 64), maxint, dtype=np.int64)
        W[:, np.arange(64), np.arange(64)] = 0
        assert compiled.uses_neighbour_list(64, 64, 1)
        calls = _count_neighbour_calls(monkeypatch)
        got = blocked_relax(sow, W, maxint)
        assert calls == []
        ref = _whole_array_relax(sow, W, maxint)
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
        assert info["neighbour_min_state"] == 4096
        assert info["neighbour_tiers"] == [
            {"min_batch": 32, "max_fill": 0.25},
            {"min_batch": 16, "max_fill": 0.0625},
        ]
