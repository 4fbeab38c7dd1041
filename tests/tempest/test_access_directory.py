"""Unit tests for access-control tags and the directory/version tracker."""

import numpy as np
import pytest

from repro.tempest.access import AccessControl, AccessTag
from repro.tempest.directory import Directory, DirState, StaleReadError
from tests.tempest.conftest import sharers_of


class TestAccessControl:
    def test_initial_tags_invalid(self):
        ac = AccessControl(4, 10)
        assert ac.get(0, 0) is AccessTag.INVALID
        assert not ac.readable(2, 5)

    def test_set_get_roundtrip(self):
        ac = AccessControl(4, 10)
        ac.set(1, 3, AccessTag.READONLY)
        assert ac.get(1, 3) is AccessTag.READONLY
        assert ac.readable(1, 3) and not ac.writable(1, 3)
        ac.set(1, 3, AccessTag.READWRITE)
        assert ac.writable(1, 3)

    def test_set_range_with_range_object(self):
        ac = AccessControl(2, 20)
        ac.set_range(0, range(5, 15), AccessTag.READWRITE)
        assert np.count_nonzero(ac.rows[0] == AccessTag.READWRITE) == 10
        assert ac.get(0, 4) is AccessTag.INVALID

    def test_set_range_with_list(self):
        ac = AccessControl(2, 20)
        ac.set_range(1, [2, 7, 19], AccessTag.READONLY)
        assert [ac.get(1, b) for b in (2, 7, 19)] == [AccessTag.READONLY] * 3

    def test_set_range_empty_list_noop(self):
        ac = AccessControl(2, 20)
        ac.set_range(0, [], AccessTag.READWRITE)
        assert not ac.rows[0].any()

    def test_holders(self):
        ac = AccessControl(4, 5)
        ac.set(0, 2, AccessTag.READONLY)
        ac.set(3, 2, AccessTag.READWRITE)
        assert [n for n in range(4) if ac.readable(n, 2)] == [0, 3]
        assert [n for n in range(4) if ac.writable(n, 2)] == [3]

    def test_snapshot(self):
        ac = AccessControl(3, 4)
        ac.set(1, 0, AccessTag.READWRITE)
        assert tuple(ac.get(n, 0) for n in range(3)) == (
            AccessTag.INVALID,
            AccessTag.READWRITE,
            AccessTag.INVALID,
        )

    def test_nonreadable_subset(self):
        ac = AccessControl(2, 10)
        ac.set_range(0, range(0, 5), AccessTag.READONLY)
        assert [b for b in range(10) if not ac.readable(0, b)] == [5, 6, 7, 8, 9]

    def test_bad_dimensions(self):
        with pytest.raises(ValueError):
            AccessControl(0, 10)


class TestDirectory:
    @pytest.fixture
    def d(self):
        return Directory(4, 8, [0, 0, 1, 1, 2, 2, 3, 3])

    def test_initial_state_idle(self, d):
        assert d.state_of(0) is DirState.IDLE
        assert d.owner_of(0) == -1
        assert sharers_of(d, 0) == []

    def test_homes(self, d):
        assert d.home_of(0) == 0 and d.home_of(5) == 2

    def test_homes_length_checked(self):
        with pytest.raises(ValueError):
            Directory(4, 8, [0, 1])

    def test_sharer_bookkeeping(self, d):
        d.add_sharer(3, 1)
        d.add_sharer(3, 2)
        assert d.state_of(3) is DirState.SHARED
        assert sharers_of(d, 3) == [1, 2]
        d.clear_sharer(3, 1)
        assert sharers_of(d, 3) == [2]
        d.clear_sharer(3, 2)
        assert d.state_of(3) is DirState.IDLE

    def test_exclusive_clears_sharers(self, d):
        d.add_sharer(0, 1)
        d.set_exclusive(0, 2)
        assert d.state_of(0) is DirState.EXCLUSIVE
        assert d.owner_of(0) == 2
        assert sharers_of(d, 0) == []

    # ----------------------- versions / staleness ---------------------- #
    def test_everyone_current_initially(self, d):
        for n in range(4):
            d.validate_reads_bulk(n, [0])

    def test_write_makes_other_copies_stale(self, d):
        d.record_write(1, [3], phase=5)
        d.validate_reads_bulk(1, [3])  # writer is current
        with pytest.raises(StaleReadError):
            d.validate_reads_bulk(0, [3])

    def test_deliver_copy_restores_currency(self, d):
        d.record_write(1, [3], phase=5)
        d.deliver_copy(0, [3])
        d.validate_reads_bulk(0, [3])

    def test_record_write_with_range(self, d):
        d.record_write(2, range(2, 5), phase=1)
        assert d.copy_is_current(2, 4)
        assert not d.copy_is_current(0, 4)

    def test_phase_monotonicity_kept(self, d):
        d.record_write(1, [0], phase=7)
        d.record_write(2, [0], phase=3)  # out-of-order phase must not regress
        assert int(d.global_version[0]) == 7

    def test_bulk_validation_reports_blocks(self, d):
        d.record_write(1, [2, 3], phase=1)
        with pytest.raises(StaleReadError, match=r"\[2, 3\]"):
            d.validate_reads_bulk(0, [0, 1, 2, 3])

    def test_bulk_validation_empty_ok(self, d):
        d.validate_reads_bulk(0, [])

    def test_context_in_error(self, d):
        d.record_write(1, [0], phase=1)
        with pytest.raises(StaleReadError, match="loop7"):
            d.validate_reads_bulk(0, [0], context="loop7")
