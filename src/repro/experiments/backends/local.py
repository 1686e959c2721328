"""Single-machine backends: in-process serial and process-pool.

:class:`ProcessBackend` replaces the executor's historical
``ProcessPoolExecutor.map`` fan-out with ``submit`` +
``as_completed``: map yields strictly in submission order, so one slow
early task used to stall progress ticks *and* cache write-back of
already-finished later tasks (head-of-line blocking). Streaming chunks
back in true completion order fixes both; the executor's index-keyed
reassembly keeps the returned list bit-identical.

The pool is created lazily and kept until :meth:`ProcessBackend.close`,
so one backend instance can serve many sweeps.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from typing import Any, Iterator, List, Optional, Sequence, Tuple

from repro.experiments.backends.base import Backend, TaskOutcome

__all__ = ["ProcessBackend", "SerialBackend", "pool_chunksize"]

#: Upper bound for a computed dispatch chunk: large enough to amortise
#: IPC, small enough to keep workers balanced.
_MAX_CHUNKSIZE = 16


def pool_chunksize(ntasks: int, workers: int) -> int:
    """Tasks per dispatch chunk for the process backend.

    One IPC round-trip per task dominates on large sweeps of fast
    tasks. Aim for ~4 chunks per worker (keeps the pool balanced when
    task durations vary) and cap the chunk at a fixed bound so a huge
    sweep still streams results.
    """
    if workers <= 1:
        return 1
    return max(1, min(_MAX_CHUNKSIZE, ntasks // (workers * 4)))


def _run_chunk(chunk: List[Tuple[int, Any]]
               ) -> Tuple[int, List[Tuple[int, Any, float]]]:
    """Pool-side chunk runner: per-task values with wall durations."""
    out = []
    for index, task in chunk:
        start = time.perf_counter()
        value = task.run()
        out.append((index, value, time.perf_counter() - start))
    return os.getpid(), out


class SerialBackend(Backend):
    """Run every task in the calling process, in submission order."""

    name = "serial"

    def run_tasks(self, tasks: Sequence[Tuple[int, Any]]
                  ) -> Iterator[TaskOutcome]:
        worker = f"serial/{os.getpid()}"
        for index, task in tasks:
            self.counters_.dispatched += 1
            start = time.perf_counter()
            value = task.run()
            duration = time.perf_counter() - start
            self.counters_.completed += 1
            self.counters_.workers[worker] = \
                self.counters_.workers.get(worker, 0) + 1
            yield TaskOutcome(index, value, worker, duration)


class ProcessBackend(Backend):
    """Fan tasks over a local ``ProcessPoolExecutor``.

    ``workers=None`` uses the executor default (CPU count);
    ``chunksize=None`` computes :func:`pool_chunksize` per sweep.
    Results stream back in completion order, chunk by chunk.
    """

    name = "process"

    def __init__(self, workers: Optional[int] = None,
                 chunksize: Optional[int] = None) -> None:
        super().__init__()
        self.workers = workers if workers is None else max(1, int(workers))
        self.chunksize = chunksize
        self._pool: Optional[ProcessPoolExecutor] = None

    @property
    def pool(self) -> ProcessPoolExecutor:
        """The live pool, created on first use."""
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.workers)
        return self._pool

    def run_tasks(self, tasks: Sequence[Tuple[int, Any]]
                  ) -> Iterator[TaskOutcome]:
        tasks = list(tasks)
        workers = self.workers
        if workers is None:
            workers = os.cpu_count() or 1
        chunksize = self.chunksize
        if chunksize is None:
            chunksize = pool_chunksize(len(tasks), workers)
        chunksize = max(1, int(chunksize))
        chunks = [tasks[at:at + chunksize]
                  for at in range(0, len(tasks), chunksize)]
        self.counters_.dispatched += len(tasks)
        futures = {self.pool.submit(_run_chunk, chunk) for chunk in chunks}
        while futures:
            done, futures = wait(futures, return_when=FIRST_COMPLETED)
            for future in done:
                pid, outcomes = future.result()
                worker = f"pool/{pid}"
                for index, value, duration in outcomes:
                    self.counters_.completed += 1
                    self.counters_.workers[worker] = \
                        self.counters_.workers.get(worker, 0) + 1
                    yield TaskOutcome(index, value, worker, duration)

    def close(self) -> None:
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)
