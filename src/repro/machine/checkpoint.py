"""Checkpoint / restore of untested shared state.

Arrays the compiler *can* analyze (array ``B`` in the paper's Fig. 1) are
written in place during speculation, so before each stage their old contents
must be saved; if some processors fail, the sections they modified are
restored before re-execution.  Two flavors are implemented:

* **Full checkpointing** copies every checkpointed array once per stage --
  simple, but its cost is proportional to total state size, which the paper
  identifies as the dominant overhead for loops with large, conditionally
  modified state (NLFILT).
* **On-demand checkpointing** saves an element's old value only on the first
  write to it in the stage.  Fig. 12(a) shows this is the single most
  important optimization for NLFILT; the cost becomes proportional to the
  state actually modified.

Restoration only needs to roll back elements first-touched by *failed*
processors.  The statically-analyzable contract means committing and failed
processors never write the same untested element in one stage; the manager
verifies this and raises :class:`~repro.errors.CheckpointError` on violation
(that would indicate the workload mis-declared a tested array as untested).
"""

from __future__ import annotations

from typing import Iterable, Mapping

import numpy as np

from repro.errors import CheckpointError
from repro.kernels import get_kernels
from repro.machine.memory import MemoryImage


class CheckpointManager:
    """Tracks old values of untested arrays for one speculative stage."""

    def __init__(self, memory: MemoryImage, names: Iterable[str], on_demand: bool) -> None:
        self._memory = memory
        self._names = sorted(set(names))
        self.name_set = frozenset(self._names)
        """The checkpointed names as a set (per-store membership tests)."""
        self.on_demand = bool(on_demand)
        # name -> index -> old value; first touch wins.
        self._saved: dict[str, dict[int, object]] = {}
        self._full: dict[str, np.ndarray] = {}
        # name -> index -> bit mask of the procs that wrote it this stage.
        # Ints, not per-element sets and tuples: an untested store then
        # allocates no object the garbage collector has to track.
        self._writers: dict[str, dict[int, int]] = {}
        self.elements_checkpointed = 0
        self.last_restored_bytes = 0
        self._stage_active = False

    @property
    def names(self) -> list[str]:
        return list(self._names)

    def begin_stage(self) -> int:
        """Start a stage; returns the number of elements checkpointed now
        (full mode copies everything up front, on-demand copies nothing)."""
        self._saved = {name: {} for name in self._names}
        self._writers = {name: {} for name in self._names}
        self._full = {}
        self.elements_checkpointed = 0
        self._stage_active = True
        if not self.on_demand:
            for name in self._names:  # hot-path: per array, bulk copies
                data = self._memory[name].data
                self._full[name] = data.copy()
                self.elements_checkpointed += len(data)
        return self.elements_checkpointed

    def note_write(self, proc: int, name: str, index: int) -> int:
        """Record a write to an untested element.

        Returns the number of elements newly checkpointed by this call
        (1 for an on-demand first touch, else 0) so the caller can charge
        virtual time.
        """
        if not self._stage_active:
            raise CheckpointError(
                f"note_write({name!r}) before begin_stage(): the checkpoint "
                "epoch has not been opened; drivers must call begin_stage() "
                "once per speculative stage before any untested write"
            )
        if name not in self._saved:
            raise CheckpointError(f"array {name!r} is not under checkpoint")
        writers = self._writers[name]
        writers[index] = writers.get(index, 0) | 1 << proc
        saved = self._saved[name]
        if index not in saved:
            if self.on_demand:
                saved[index] = self._memory[name].data[index]
                self.elements_checkpointed += 1
                return 1
            saved[index] = self._full[name][index]
        return 0

    def store_lane(self, name: str) -> tuple[dict, dict, np.ndarray] | None:
        """What :meth:`note_write` touches for ``name``, for a caller that
        inlines it (the speculative store lane): ``(writers, saved,
        source of old values)``, or ``None`` before :meth:`begin_stage`.
        The dicts are this stage's own, so inlined and method writes mix."""
        if not self._stage_active:
            return None
        source = self._memory[name].data if self.on_demand else self._full[name]
        return self._writers[name], self._saved[name], source

    def note_write_many(self, proc: int, name: str, indices: np.ndarray) -> int:
        """Batch :meth:`note_write` over an index array (duplicates allowed).

        Returns the number of elements newly checkpointed, i.e. the number
        of distinct first touches when on-demand (0 in full mode), so the
        caller charges exactly what per-element calls would have charged.
        """
        if not self._stage_active:
            raise CheckpointError(
                f"note_write({name!r}) before begin_stage(): the checkpoint "
                "epoch has not been opened; drivers must call begin_stage() "
                "once per speculative stage before any untested write"
            )
        if name not in self._saved:
            raise CheckpointError(f"array {name!r} is not under checkpoint")
        ids = np.asarray(indices).tolist()
        writers_map = self._writers[name]
        saved = self._saved[name]
        new: list[int] = []
        seen_new: set[int] = set()
        bit = 1 << proc
        # hot-path: the writer masks and saved values are per-element dict
        # entries; the old values themselves come from one kernel gather.
        for index in ids:
            writers_map[index] = writers_map.get(index, 0) | bit
            if index not in saved and index not in seen_new:
                seen_new.add(index)
                new.append(index)
        if new:
            source = self._memory[name].data if self.on_demand else self._full[name]
            old = get_kernels().gather(source, np.fromiter(new, np.int64, len(new)))
            for k, index in enumerate(new):  # hot-path: see above
                saved[index] = old[k]
            if self.on_demand:
                self.elements_checkpointed += len(new)
        return len(new) if self.on_demand else 0

    def restore_failed(self, failed_procs: Iterable[int]) -> int:
        """Roll back elements first-touched by failed processors.

        Returns the element count restored (for virtual-time charging).
        Raises if a committing and a failed processor both wrote the same
        untested element (contract violation).
        """
        failed = _mask(failed_procs)
        restored = 0
        self.last_restored_bytes = 0
        for name in self._names:  # hot-path: per array
            data = self._memory[name].data
            writers_map = self._writers[name]
            saved = self._saved[name]
            dirty: list[int] = []
            # hot-path: one pass over the stage's written elements (mask
            # tests); the restore itself is one kernel scatter.
            for index, writers in writers_map.items():
                touched_failed = writers & failed
                if not touched_failed:
                    continue
                if writers & ~failed:
                    raise CheckpointError(
                        f"untested array {name!r} element {index} written by both "
                        f"committing procs {_procs(writers & ~failed)} and failed "
                        f"procs {_procs(touched_failed)}; declare it tested instead"
                    )
                dirty.append(index)
            if dirty:
                # One kernel scatter over the dirty slice instead of a
                # per-element Python loop over the whole array.
                indices = np.fromiter(dirty, dtype=np.int64, count=len(dirty))
                old = get_kernels().pack_values(
                    [saved[index] for index in dirty], data.dtype
                )
                get_kernels().scatter(data, indices, old)
                restored += len(dirty)
                self.last_restored_bytes += len(dirty) * data.dtype.itemsize
            # Failed procs will re-write; drop their logs so the next stage
            # re-checkpoints from the (restored) current values.
            # hot-path: dict deletions, one per restored element.
            for index in dirty:
                del writers_map[index]
                del saved[index]
        return restored

    def modified_by(self, procs: Iterable[int]) -> dict[str, list[int]]:
        """Indices written by the given processors, per array (diagnostics)."""
        wanted = _mask(procs)
        return {
            name: sorted(
                i for i, writers in self._writers[name].items() if writers & wanted
            )
            for name in self._names
        }


def _mask(procs: Iterable[int]) -> int:
    mask = 0
    for proc in procs:  # hot-path: per processor
        mask |= 1 << proc
    return mask


def _procs(mask: int) -> list[int]:
    return [p for p in range(mask.bit_length()) if mask >> p & 1]


def verify_untested_isolation(
    reads: Mapping[str, Mapping[int, set[int]]],
    writes: Mapping[str, Mapping[int, set[int]]],
) -> list[str]:
    """Debug validator for the statically-analyzable contract.

    Given per-array maps ``index -> procs that read/wrote it`` for one
    stage's *untested* arrays, return a description of every cross-processor
    read-after-write pair (a workload declaring such an array untested is
    unsound and should mark it tested instead).
    """
    problems: list[str] = []
    # hot-path: self-check diagnostics only (off by default).
    for name, write_map in writes.items():
        read_map = reads.get(name, {})
        for index, writer_procs in write_map.items():  # hot-path: as above
            reader_procs = read_map.get(index, set())
            foreign = {r for r in reader_procs if any(w != r for w in writer_procs)}
            if foreign and len(writer_procs | reader_procs) > 1:
                problems.append(
                    f"{name}[{index}]: written by procs {sorted(writer_procs)}, "
                    f"read by procs {sorted(reader_procs)}"
                )
    return problems
