"""Unit tests for checkpoint/restore of untested state."""

import numpy as np
import pytest

from repro.errors import CheckpointError
from repro.machine.checkpoint import CheckpointManager, verify_untested_isolation
from repro.machine.memory import MemoryImage, SharedArray


def make_memory(n=8):
    return MemoryImage([SharedArray("B", np.arange(float(n)))])


class TestFullCheckpoint:
    def test_begin_copies_everything(self):
        mem = make_memory()
        ckpt = CheckpointManager(mem, ["B"], on_demand=False)
        assert ckpt.begin_stage() == 8

    def test_restore_failed_rolls_back(self):
        mem = make_memory()
        ckpt = CheckpointManager(mem, ["B"], on_demand=False)
        ckpt.begin_stage()
        ckpt.note_write(2, "B", 5)
        mem["B"].data[5] = -1.0
        restored = ckpt.restore_failed([2])
        assert restored == 1
        assert mem["B"].data[5] == 5.0

    def test_committed_procs_not_rolled_back(self):
        mem = make_memory()
        ckpt = CheckpointManager(mem, ["B"], on_demand=False)
        ckpt.begin_stage()
        ckpt.note_write(0, "B", 1)
        mem["B"].data[1] = 100.0
        ckpt.restore_failed([3])  # proc 3 wrote nothing
        assert mem["B"].data[1] == 100.0


class TestOnDemandCheckpoint:
    def test_begin_copies_nothing(self):
        ckpt = CheckpointManager(make_memory(), ["B"], on_demand=True)
        assert ckpt.begin_stage() == 0

    def test_first_touch_saves(self):
        ckpt = CheckpointManager(make_memory(), ["B"], on_demand=True)
        ckpt.begin_stage()
        assert ckpt.note_write(0, "B", 3) == 1
        assert ckpt.note_write(0, "B", 3) == 0  # second touch is free

    def test_first_touch_saves_old_value(self):
        mem = make_memory()
        ckpt = CheckpointManager(mem, ["B"], on_demand=True)
        ckpt.begin_stage()
        ckpt.note_write(1, "B", 4)
        mem["B"].data[4] = -7.0
        mem["B"].data[4] = -8.0  # overwritten twice
        ckpt.restore_failed([1])
        assert mem["B"].data[4] == 4.0

    def test_restore_is_dirty_only_and_counts_bytes(self):
        # Restoration touches exactly the failed processors' dirty indices;
        # last_restored_bytes reports the traffic of the most recent call.
        mem = make_memory()
        ckpt = CheckpointManager(mem, ["B"], on_demand=True)
        ckpt.begin_stage()
        ckpt.note_write(1, "B", 2)
        ckpt.note_write(1, "B", 5)
        ckpt.note_write(0, "B", 6)  # survives: proc 0 is not restored
        mem["B"].data[[2, 5, 6]] = -1.0
        assert ckpt.restore_failed([1]) == 2
        assert ckpt.last_restored_bytes == 2 * mem["B"].data.dtype.itemsize
        assert mem["B"].data[2] == 2.0 and mem["B"].data[5] == 5.0
        assert mem["B"].data[6] == -1.0
        assert ckpt.restore_failed([1]) == 0
        assert ckpt.last_restored_bytes == 0

    def test_elements_checkpointed_counter(self):
        ckpt = CheckpointManager(make_memory(), ["B"], on_demand=True)
        ckpt.begin_stage()
        ckpt.note_write(0, "B", 0)
        ckpt.note_write(0, "B", 1)
        ckpt.note_write(1, "B", 2)
        assert ckpt.elements_checkpointed == 3


class TestContractEnforcement:
    def test_cross_group_write_detected(self):
        mem = make_memory()
        ckpt = CheckpointManager(mem, ["B"], on_demand=True)
        ckpt.begin_stage()
        ckpt.note_write(0, "B", 3)  # committing proc
        ckpt.note_write(5, "B", 3)  # failed proc, same element
        with pytest.raises(CheckpointError):
            ckpt.restore_failed([5])

    def test_violation_names_every_writer(self):
        # Writers are kept as a bit mask per element; processor ids past
        # 64 must still come back out, sorted, in the error.
        ckpt = CheckpointManager(make_memory(), ["B"], on_demand=True)
        ckpt.begin_stage()
        for proc in (70, 0, 5, 3):
            ckpt.note_write_many(proc, "B", np.array([3, 3]))
        with pytest.raises(
            CheckpointError,
            match=r"committing procs \[0, 3\] and failed procs \[5, 70\]",
        ):
            ckpt.restore_failed([70, 5])
        assert ckpt.modified_by([70]) == {"B": [3]}

    def test_unknown_array_rejected(self):
        ckpt = CheckpointManager(make_memory(), ["B"], on_demand=True)
        ckpt.begin_stage()
        with pytest.raises(CheckpointError):
            ckpt.note_write(0, "C", 0)

    @pytest.mark.parametrize("on_demand", [True, False])
    def test_write_before_begin_stage_rejected(self, on_demand):
        ckpt = CheckpointManager(make_memory(), ["B"], on_demand=on_demand)
        with pytest.raises(CheckpointError, match="begin_stage"):
            ckpt.note_write(0, "B", 3)

    def test_begin_stage_opens_the_epoch(self):
        ckpt = CheckpointManager(make_memory(), ["B"], on_demand=True)
        ckpt.begin_stage()
        assert ckpt.note_write(0, "B", 3) == 1  # no lifecycle error

    def test_restore_clears_failed_logs(self):
        # After restoration the failed processors re-execute and re-write;
        # their old logs must not leak into the next stage's restore.
        mem = make_memory()
        ckpt = CheckpointManager(mem, ["B"], on_demand=True)
        ckpt.begin_stage()
        ckpt.note_write(2, "B", 6)
        mem["B"].data[6] = -1.0
        ckpt.restore_failed([2])
        assert ckpt.restore_failed([2]) == 0  # nothing left to restore

    def test_modified_by(self):
        ckpt = CheckpointManager(make_memory(), ["B"], on_demand=True)
        ckpt.begin_stage()
        ckpt.note_write(1, "B", 2)
        ckpt.note_write(3, "B", 7)
        assert ckpt.modified_by([1]) == {"B": [2]}
        assert ckpt.modified_by([1, 3]) == {"B": [2, 7]}


class TestIsolationValidator:
    def test_clean_pattern_passes(self):
        reads = {"B": {3: {0}}}
        writes = {"B": {3: {0}}}
        assert verify_untested_isolation(reads, writes) == []

    def test_cross_proc_raw_flagged(self):
        reads = {"B": {3: {2}}}
        writes = {"B": {3: {0}}}
        problems = verify_untested_isolation(reads, writes)
        assert len(problems) == 1
        assert "B[3]" in problems[0]

    def test_read_only_element_ok(self):
        reads = {"B": {3: {0, 1, 2}}}
        writes = {"B": {}}
        assert verify_untested_isolation(reads, writes) == []
