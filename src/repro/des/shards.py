"""Persistent shard workers for the ``sharded`` max-min solver.

:mod:`repro.des.partition` splits one oversized contention component
into K resource-disjoint *shards* plus a thin set of cut classes; this
module runs the per-shard water-filling solves. Two execution modes,
chosen by the worker count:

- **in-process** (``workers <= 1``, the default whenever
  ``os.cpu_count()`` is 1): shard subproblems are solved sequentially
  in the parent by the same kernel the network uses. Even serially the
  shard decomposition wins — each shard's freeze rounds only wade
  through its *own* capacity range instead of the fused component's
  full spread, and the sharded solver caches per-shard results so a
  tick that only disturbs one shard re-solves one shard;
- **worker pool** (``workers > 1``): a pool of forked processes spawned
  once per :class:`~repro.des.bandwidth.FlowNetwork`, fed through
  shared-memory arenas (``multiprocessing.RawArray``). The parent packs
  each shard's flow-class/table/capacity arrays into the arenas and
  sends only *(command, problem indices)* over a pipe — no per-tick
  pickling of numpy arrays in either direction; workers write rates and
  consumed-capacity straight back into the output arena.

Workers and parent run the *same* solve routine on the same packed
inputs (the compiled kernel when the network uses it, otherwise
:func:`repro.des.kernels.maxmin_class_solve_np`), so results are
bit-identical whichever mode executes a shard — ``REPRO_SHARD_WORKERS``
is a throughput knob, never a results knob. Both shard knobs are rows
of :mod:`repro.config`; the shard count changes (slack-bounded) results,
so it is strict, cache-keyed and not capped by the core count.
"""

from __future__ import annotations

import multiprocessing as mp
import os
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro import config
from repro.des.kernels import (KERNEL_COMPILED, MaxminKernel,
                               compiled_kernel, maxmin_class_solve_np)
from repro.errors import SimulationError

__all__ = [
    "DEFAULT_SHARDS",
    "ShardProblem",
    "ShardWorkerPool",
    "resolve_shard_workers",
    "resolve_shards",
    "solve_problem",
]

#: Default shard count for ``REPRO_SOLVER=sharded``. Machine-independent
#: on purpose (see module docstring): 4 splits the mega-components the
#: cluster models produce without shredding mid-size ones.
DEFAULT_SHARDS = config.KNOBS["REPRO_SHARDS"].default

#: Int64 header fields per packed problem (offsets into the arenas).
_HDR_FIELDS = 10
_H_FLOW_OFF, _H_NFLOWS, _H_CRES_OFF, _H_NCLASSES, _H_KMAX, \
    _H_CCAP_OFF, _H_CAPS_OFF, _H_NRES, _H_RATE_OFF, _H_USED_OFF = range(10)


def resolve_shards(shards: Optional[int]) -> int:
    """Explicit argument beats ``REPRO_SHARDS`` beats the default."""
    return config.get("REPRO_SHARDS", shards, source="shards",
                      error=SimulationError)


def resolve_shard_workers(workers: Optional[int], shards: int) -> int:
    """Worker-process count (``REPRO_SHARD_WORKERS``, a lenient row),
    capped at ``min(shards, os.cpu_count())``."""
    ncpu = os.cpu_count() or 1
    if workers is None:
        workers = config.get("REPRO_SHARD_WORKERS")
    if workers is None:
        workers = min(shards, ncpu)
    return max(1, min(int(workers), int(shards), ncpu))


class ShardProblem(NamedTuple):
    """One shard's packed solve input (local resource numbering)."""

    #: Class id per flow, ascending slot order (ids index the tables).
    flow_class: np.ndarray
    #: ``(C, K)`` -1-padded resource lists, *local* resource indices.
    class_res: np.ndarray
    #: Per-class rate cap.
    class_cap: np.ndarray
    #: Local capacity array (only the shard's resources).
    capacities: np.ndarray
    fairness_slack: float


def solve_problem(problem: ShardProblem,
                  kernel_impl: Optional[MaxminKernel]
                  ) -> Tuple[np.ndarray, np.ndarray]:
    """Solve one shard in-process with the network's kernel."""
    if kernel_impl is not None:
        return kernel_impl.solve(
            problem.flow_class, problem.class_res, problem.class_cap,
            problem.capacities, problem.fairness_slack)
    return maxmin_class_solve_np(
        problem.flow_class, problem.class_res, problem.class_cap,
        problem.capacities, problem.fairness_slack)


def _worker_main(conn, hdr_raw, i64_raw, f64_raw, slack_raw,
                 kernel_name: str) -> None:
    """Worker loop: solve the problems named by each command.

    All array traffic goes through the shared arenas; the pipe carries
    only small index lists. The worker loads the same kernel the parent
    uses (the fork inherits an already-built compiled kernel, so this
    never recompiles) and falls back to the numpy solve if the compiled
    backend cannot load in the child.
    """
    hdr = np.frombuffer(hdr_raw, dtype=np.int64)
    i64 = np.frombuffer(i64_raw, dtype=np.int64)
    f64 = np.frombuffer(f64_raw, dtype=np.float64)
    slack = np.frombuffer(slack_raw, dtype=np.float64)
    kern = None
    if kernel_name == KERNEL_COMPILED:
        try:
            kern = compiled_kernel()
        except Exception:
            kern = None
    try:
        while True:
            msg = conn.recv()
            if msg[0] == "exit":
                break
            if msg[0] != "solve":  # pragma: no cover - protocol guard
                conn.send(("err", f"unknown command {msg[0]!r}"))
                continue
            indices = msg[1]
            try:
                for p in indices:
                    h = hdr[p * _HDR_FIELDS:(p + 1) * _HDR_FIELDS]
                    nflows = int(h[_H_NFLOWS])
                    nclasses = int(h[_H_NCLASSES])
                    kmax = int(h[_H_KMAX])
                    nres = int(h[_H_NRES])
                    flow_class = i64[h[_H_FLOW_OFF]:h[_H_FLOW_OFF] + nflows]
                    class_res = i64[h[_H_CRES_OFF]:
                                    h[_H_CRES_OFF] + nclasses * kmax
                                    ].reshape(nclasses, kmax)
                    class_cap = f64[h[_H_CCAP_OFF]:h[_H_CCAP_OFF] + nclasses]
                    caps = f64[h[_H_CAPS_OFF]:h[_H_CAPS_OFF] + nres]
                    rate_out = f64[h[_H_RATE_OFF]:h[_H_RATE_OFF] + nflows]
                    used_out = f64[h[_H_USED_OFF]:h[_H_USED_OFF] + nres]
                    problem = ShardProblem(flow_class, class_res, class_cap,
                                           caps, float(slack[p]))
                    rate, used = solve_problem(problem, kern)
                    rate_out[:] = rate
                    used_out[:] = used
                conn.send(("done", indices))
            except Exception as exc:  # surface, don't hang the parent
                conn.send(("err", f"{type(exc).__name__}: {exc}"))
    except (EOFError, KeyboardInterrupt):  # pragma: no cover
        pass
    finally:
        conn.close()


class ShardWorkerPool:
    """A persistent pool of forked shard solvers over shared memory.

    Spawned once (lazily) per :class:`FlowNetwork`; arenas grow by
    respawning with doubled sizes, which is rare because a network's
    packed-solve footprint stabilises after the first storm. Any worker
    failure flips the pool to ``broken`` so the owner can fall back to
    in-process solving for the rest of the run instead of crashing the
    simulation mid-tick.
    """

    def __init__(self, workers: int, kernel: str,
                 i64_capacity: int = 1 << 16,
                 f64_capacity: int = 1 << 16,
                 max_problems: int = 256) -> None:
        if workers < 1:
            raise SimulationError(
                f"shard worker pool needs >= 1 worker, got {workers}")
        try:
            self._ctx = mp.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX platforms
            raise SimulationError(
                "shard workers need the fork start method; set "
                "REPRO_SHARD_WORKERS=1 to solve in-process") from None
        self.workers = int(workers)
        self.kernel = kernel
        self.broken = False
        self.batches = 0
        self.respawns = -1  # first _spawn is the initial spawn, not a respawn
        self._procs: List = []
        self._conns: List = []
        self._spawn(i64_capacity, f64_capacity, max_problems)

    # -- lifecycle ------------------------------------------------------ #
    def _spawn(self, i64_capacity: int, f64_capacity: int,
               max_problems: int) -> None:
        self._i64_capacity = int(i64_capacity)
        self._f64_capacity = int(f64_capacity)
        self._max_problems = int(max_problems)
        self._hdr_raw = self._ctx.RawArray(
            "q", self._max_problems * _HDR_FIELDS)
        self._slack_raw = self._ctx.RawArray("d", self._max_problems)
        self._i64_raw = self._ctx.RawArray("q", self._i64_capacity)
        self._f64_raw = self._ctx.RawArray("d", self._f64_capacity)
        self._hdr = np.frombuffer(self._hdr_raw, dtype=np.int64)
        self._slack = np.frombuffer(self._slack_raw, dtype=np.float64)
        self._i64 = np.frombuffer(self._i64_raw, dtype=np.int64)
        self._f64 = np.frombuffer(self._f64_raw, dtype=np.float64)
        self._procs = []
        self._conns = []
        self.respawns += 1
        for _ in range(self.workers):
            parent_conn, child_conn = self._ctx.Pipe()
            proc = self._ctx.Process(
                target=_worker_main,
                args=(child_conn, self._hdr_raw, self._i64_raw,
                      self._f64_raw, self._slack_raw, self.kernel),
                daemon=True)
            proc.start()
            child_conn.close()
            self._procs.append(proc)
            self._conns.append(parent_conn)

    def _shutdown(self) -> None:
        for conn in self._conns:
            try:
                conn.send(("exit",))
            except (OSError, BrokenPipeError):
                pass
        for conn in self._conns:
            try:
                conn.close()
            except OSError:
                pass
        for proc in self._procs:
            proc.join(timeout=5.0)
            if proc.is_alive():  # pragma: no cover - hung worker
                proc.terminate()
                proc.join(timeout=1.0)
        self._procs = []
        self._conns = []

    def close(self) -> None:
        """Stop the workers (idempotent)."""
        self._shutdown()
        self.broken = True

    def _ensure(self, n_problems: int, i64_needed: int,
                f64_needed: int) -> None:
        """Respawn with bigger arenas when a batch does not fit."""
        if (n_problems <= self._max_problems
                and i64_needed <= self._i64_capacity
                and f64_needed <= self._f64_capacity):
            return
        i64_cap = self._i64_capacity
        while i64_cap < i64_needed:
            i64_cap *= 2
        f64_cap = self._f64_capacity
        while f64_cap < f64_needed:
            f64_cap *= 2
        max_problems = self._max_problems
        while max_problems < n_problems:
            max_problems *= 2
        self._shutdown()
        self._spawn(i64_cap, f64_cap, max_problems)

    # -- solving -------------------------------------------------------- #
    def solve_batch(self, problems: Sequence[ShardProblem]
                    ) -> List[Tuple[np.ndarray, np.ndarray]]:
        """Solve every problem, distributing them across the workers.

        Problems are packed into the shared arenas, index lists are
        dealt round-robin (problem ``i`` to worker ``i % workers``), and
        results are copied out of the output arena in problem order —
        deterministic regardless of worker completion order. Raises
        :class:`~repro.errors.SimulationError` (and marks the pool
        ``broken``) if a worker dies or reports a solve failure.
        """
        if self.broken:
            raise SimulationError("shard worker pool is closed/broken")
        n = len(problems)
        if n == 0:
            return []
        i64_needed = 0
        f64_needed = 0
        for prob in problems:
            i64_needed += prob.flow_class.size + prob.class_res.size
            f64_needed += (prob.class_cap.size + 2 * prob.capacities.size
                           + prob.flow_class.size)
        self._ensure(n, i64_needed, f64_needed)

        hdr, i64, f64 = self._hdr, self._i64, self._f64
        i64_off = 0
        f64_off = 0
        for p, prob in enumerate(problems):
            h = hdr[p * _HDR_FIELDS:(p + 1) * _HDR_FIELDS]
            nflows = prob.flow_class.size
            nclasses, kmax = prob.class_res.shape
            nres = prob.capacities.size
            h[_H_FLOW_OFF] = i64_off
            h[_H_NFLOWS] = nflows
            i64[i64_off:i64_off + nflows] = prob.flow_class
            i64_off += nflows
            h[_H_CRES_OFF] = i64_off
            h[_H_NCLASSES] = nclasses
            h[_H_KMAX] = kmax
            i64[i64_off:i64_off + nclasses * kmax] = prob.class_res.ravel()
            i64_off += nclasses * kmax
            h[_H_CCAP_OFF] = f64_off
            f64[f64_off:f64_off + nclasses] = prob.class_cap
            f64_off += nclasses
            h[_H_CAPS_OFF] = f64_off
            h[_H_NRES] = nres
            f64[f64_off:f64_off + nres] = prob.capacities
            f64_off += nres
            h[_H_RATE_OFF] = f64_off
            f64_off += nflows
            h[_H_USED_OFF] = f64_off
            f64_off += nres
            self._slack[p] = prob.fairness_slack

        assignments: Dict[int, List[int]] = {}
        for p in range(n):
            assignments.setdefault(p % self.workers, []).append(p)
        active = []
        try:
            for w, indices in assignments.items():
                self._conns[w].send(("solve", indices))
                active.append(w)
            for w in active:
                reply = self._conns[w].recv()
                if reply[0] != "done":
                    raise SimulationError(
                        f"shard worker {w} failed: {reply[1]}")
        except (EOFError, OSError, BrokenPipeError) as exc:
            self.close()
            raise SimulationError(
                f"shard worker pool died mid-batch: {exc}") from None

        self.batches += 1
        out: List[Tuple[np.ndarray, np.ndarray]] = []
        for p, prob in enumerate(problems):
            h = hdr[p * _HDR_FIELDS:(p + 1) * _HDR_FIELDS]
            nflows = prob.flow_class.size
            nres = prob.capacities.size
            rate = f64[h[_H_RATE_OFF]:h[_H_RATE_OFF] + nflows].copy()
            used = f64[h[_H_USED_OFF]:h[_H_USED_OFF] + nres].copy()
            out.append((rate, used))
        return out
