"""Unit tests for the COLLECT step's bookkeeping (Algorithm 1)."""

import pytest

from repro.common.config import ClusteringParams
from repro.common.errors import StreamOrderError
from repro.common.points import StreamPoint
from repro.core.collect import collect
from repro.core.state import WindowState
from repro.core.store import DELETED, WAS_CORE
from repro.index.rtree import RTree
from tests.conftest import point_field


def fresh(eps=1.0, tau=3):
    return WindowState(ClusteringParams(eps, tau)), RTree()


def sp(pid, *coords):
    return StreamPoint(pid, tuple(float(c) for c in coords), float(pid))


def promote(state, pids):
    """Set ``WAS_CORE`` on ``pids``, as DISC's end-of-stride step would."""
    state.store.flags[state.store.slots_of(pids)] |= WAS_CORE


class TestInsertions:
    def test_n_eps_counts_self(self):
        state, index = fresh()
        collect(state, index, [sp(1, 0, 0)], ())
        assert point_field(state, "n_eps", 1) == 1

    def test_n_eps_symmetric(self):
        state, index = fresh()
        collect(state, index, [sp(1, 0, 0), sp(2, 0.5, 0), sp(3, 5, 5)], ())
        assert point_field(state, "n_eps", 1) == 2
        assert point_field(state, "n_eps", 2) == 2
        assert point_field(state, "n_eps", 3) == 1

    def test_neo_cores_identified(self):
        state, index = fresh(tau=3)
        result = collect(
            state, index, [sp(1, 0, 0), sp(2, 0.5, 0), sp(3, 0.25, 0.4)], ()
        )
        assert sorted(result.neo_cores) == [1, 2, 3]
        assert result.ex_cores == []

    def test_below_tau_no_neo_cores(self):
        state, index = fresh(tau=3)
        result = collect(state, index, [sp(1, 0, 0), sp(2, 0.5, 0)], ())
        assert result.neo_cores == []

    def test_duplicate_insert_rejected(self):
        state, index = fresh()
        collect(state, index, [sp(1, 0, 0)], ())
        with pytest.raises(StreamOrderError):
            collect(state, index, [sp(1, 1, 1)], ())

    def test_c_core_initialised_from_old_cores(self):
        state, index = fresh(tau=3)
        disc_setup = [sp(i, 0.1 * i, 0) for i in range(3)]
        result = collect(state, index, disc_setup, ())
        # Promote was_core as DISC's finalizer would.
        promote(state, result.neo_cores)
        collect(state, index, [sp(10, 0.15, 0.1)], ())
        assert point_field(state, "c_core", 10) == 3
        assert point_field(state, "anchor", 10) in {0, 1, 2}


class TestDeletions:
    def setup_window(self, tau=3):
        state, index = fresh(tau=tau)
        points = [sp(i, 0.3 * i, 0) for i in range(5)]
        result = collect(state, index, points, ())
        promote(state, result.neo_cores)
        return state, index

    def test_counts_decrease(self):
        state, index = self.setup_window()
        before = point_field(state, "n_eps", 1)
        collect(state, index, (), [sp(0, 0, 0)])
        assert point_field(state, "n_eps", 1) == before - 1

    def test_deleted_record_marked(self):
        state, index = self.setup_window()
        result = collect(state, index, (), [sp(0, 0, 0)])
        assert point_field(state, "flags", 0) & DELETED
        assert point_field(state, "n_eps", 0) == 0
        assert result.deleted_ids == [0]

    def test_exiting_core_lands_in_c_out_and_stays_indexed(self):
        state, index = self.setup_window()
        assert point_field(state, "flags", 2) & WAS_CORE
        result = collect(state, index, (), [sp(2, 0.6, 0)])
        assert result.c_out == [2]
        assert 2 in index  # lingers until CLUSTER finishes

    def test_exiting_non_core_leaves_index(self):
        state, index = fresh(tau=3)
        collect(state, index, [sp(1, 0, 0), sp(2, 5, 5)], ())
        result = collect(state, index, (), [sp(2, 5, 5)])
        assert result.c_out == []
        assert 2 not in index

    def test_unknown_delete_rejected(self):
        state, index = self.setup_window()
        with pytest.raises(StreamOrderError):
            collect(state, index, (), [sp(99, 0, 0)])

    def test_double_delete_rejected(self):
        state, index = self.setup_window()
        collect(state, index, (), [sp(0, 0, 0)])
        with pytest.raises(StreamOrderError):
            collect(state, index, (), [sp(0, 0, 0)])

    def test_demoted_survivor_is_ex_core(self):
        # 0-1-2 all cores (tau=3, mutual neighbours); removing 0 demotes 1
        # only if 1 drops below tau.
        state, index = fresh(tau=3)
        pts = [sp(0, 0, 0), sp(1, 0.5, 0), sp(2, 1.0, 0)]
        result = collect(state, index, pts, ())
        promote(state, result.neo_cores)
        result = collect(state, index, (), [sp(2, 1.0, 0)])
        # 1 had neighbours {0,1,2}; now {0,1} -> below tau: ex-core.
        assert 1 in result.ex_cores
        assert 2 in result.ex_cores  # exited as a core
        assert 2 in result.c_out


class TestChurn:
    def test_simultaneous_in_and_out_cancel(self):
        state, index = fresh(tau=2)
        first = collect(state, index, [sp(0, 0, 0), sp(1, 0.4, 0)], ())
        promote(state, first.neo_cores)
        # 1 leaves but 2 arrives at nearly the same spot: 0 stays core.
        result = collect(
            state, index, [sp(2, 0.45, 0)], [sp(1, 0.4, 0)]
        )
        assert 0 not in result.ex_cores
        assert point_field(state, "n_eps", 0) == 2
        # 2 is a brand-new core.
        assert 2 in result.neo_cores

    def test_ex_cores_include_c_out(self):
        state, index = fresh(tau=2)
        first = collect(state, index, [sp(0, 0, 0), sp(1, 0.4, 0)], ())
        promote(state, first.neo_cores)
        result = collect(state, index, (), [sp(0, 0, 0)])
        assert set(result.ex_cores) == {0, 1}
        assert result.c_out == [0]
