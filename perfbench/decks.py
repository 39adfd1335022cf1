"""The benchmark's workloads: which loops run, on which backend, at which p.

Each workload is a list of loop instances built from the run's seed, plus
the runtime configuration every timed call uses.  The seed reaches the
input through ``dataclasses.replace``: into the deck's ``seed`` field for
NLFILT and SPICE, and into the initial contents of ``A`` for the DOALL
loop (which has no deck).  See README.md for why each workload is here.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from repro import RuntimeConfig, SpeculativeLoop
from repro.workloads import (
    NLFILT_DECKS,
    SPICE_DECKS,
    fully_parallel_loop,
    make_dcdcmp15_loop,
    make_nlfilt_loop,
)

#: NLFILT instances per pass.  One dense-deps instance commits in anywhere
#: from 1 to 17 stages depending on where its guarded writes land, so a
#: single instance per seed would make every end-to-end figure a property
#: of the seed.  TRACK re-enters NLFILT with evolving data over a program's
#: life (the ``instance`` argument); a run measures whole passes over this
#: many instantiations, which averages the stage count across seeds.
NLFILT_INSTANCES = 64


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: its loops and the runtime configuration."""

    name: str
    loops: list[SpeculativeLoop]
    n_procs: int
    backend: str
    workers: int | None = None

    def config(self, traced: bool = False) -> RuntimeConfig:
        """The default runtime configuration on this workload's backend,
        with every observability plane off unless ``traced``."""
        return RuntimeConfig(
            backend=self.backend,
            backend_workers=self.workers,
            metrics=traced,
            spans=traced,
            resources=False,
        )


def _doall_dense(seed: int, scale: float, limit: int) -> list[SpeculativeLoop]:
    n = max(64, int(16384 * scale))
    loop = fully_parallel_loop(n)
    rng = np.random.default_rng(seed)
    (spec,) = loop.arrays
    seeded = dataclasses.replace(spec, initial=rng.random(n))
    return [dataclasses.replace(loop, arrays=[seeded])]


def _nlfilt_partial(seed: int, scale: float, limit: int) -> list[SpeculativeLoop]:
    base = NLFILT_DECKS["dense-deps"]
    deck = dataclasses.replace(base, seed=seed, n=max(64, int(base.n * scale)))
    count = min(limit, max(2, int(NLFILT_INSTANCES * scale)))
    return [make_nlfilt_loop(deck, instance) for instance in range(count)]


def _spice(seed: int, scale: float, limit: int) -> list[SpeculativeLoop]:
    base = SPICE_DECKS["perfect-up"]
    deck = dataclasses.replace(
        base, seed=seed, lu_rows=max(64, int(base.lu_rows * scale))
    )
    return [make_dcdcmp15_loop(deck)]


#: name -> (loop builder, p, backend, worker count).  Worker threads and
#: processes stay at 2, the CPU count of the host the bounds were set on.
WORKLOADS = {
    "doall-dense": (_doall_dense, 2, "serial", None),
    "nlfilt-partial": (_nlfilt_partial, 4, "serial", None),
    "spice-shm": (_spice, 2, "shm", 2),
    "spice-threads": (_spice, 2, "threads", 2),
}


def build(name: str, seed: int, scale: float = 1.0, first_only: bool = False) -> Workload:
    """Build workload ``name`` from ``seed``.

    ``scale`` shrinks the inputs (the smoke tests use it); ``first_only``
    builds just the first instance, which is all a set-up measurement needs.
    """
    builder, n_procs, backend, workers = WORKLOADS[name]
    loops = builder(seed, scale, 1 if first_only else NLFILT_INSTANCES)
    return Workload(name, loops, n_procs, backend, workers)
