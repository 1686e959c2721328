"""The multi-machine sweep backend: a TCP coordinator over sweep workers.

``RemoteBackend`` dials workers launched with ``python -m
repro.tools.sweepworkerctl serve`` (addresses from the constructor or
``REPRO_WORKERS=host:port,host:port``) and speaks the length-prefixed
pickle protocol of :mod:`repro.experiments.backends.protocol`. The
design mirrors the paper's dedicated-core move one level up: sweep
computation is shipped to dedicated worker processes — possibly on
other machines — while the coordinator only schedules, so the figure
driver's process stays responsive however long individual points take.

Scheduling properties:

- **handshake** — a worker is admitted only when its protocol version
  matches and its source-tree fingerprint equals the coordinator's
  (the same :func:`~repro.cache.keys.model_fingerprint` that keys the
  result cache), so a stale checkout can never contribute results that
  the cache would file under the wrong key. The coordinator's run-mode
  environment rides along in the ``welcome`` so both sides resolve
  identical fast/kernel modes.
- **dynamic chunking** — batch sizes shrink as the pending queue
  drains (~2 chunks in flight per worker, capped), so slow tails are
  spread instead of parked on one worker.
- **straggler re-dispatch** — when the pending queue is empty and a
  worker goes idle, the longest-in-flight task is speculatively
  duplicated there (at most two replicas; only after the first real
  completion, so a sweep smaller than the worker pool is not doubled).
  The first result wins by task id; the loser is discarded on arrival.
- **crash recovery** — a worker that disconnects mid-batch has its
  unacknowledged tasks requeued for the survivors; a task lost more
  than ``max_task_retries`` times fails the sweep with a typed error,
  as does losing every worker while tasks remain.

Determinism: results are yielded in completion order but tagged with
their task ids; :func:`~repro.experiments.executor.run_sweep`
reassembles by id, so remote sweeps are bit-identical to serial ones —
asserted by the determinism matrix in ``tests/test_remote_backend.py``.

A task that *raises* is not retried: sweep tasks are deterministic by
contract, so the failure is the task's, not the worker's, and it
surfaces immediately as :class:`RemoteTaskError` with the worker-side
traceback.
"""

from __future__ import annotations

import socket
import threading
from collections import deque
from queue import Queue
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro import config
from repro.experiments.backends.base import (
    Backend,
    BackendCounters,
    BackendError,
    TaskOutcome,
)
from repro.experiments.backends.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    recv_msg,
    send_msg,
)

__all__ = [
    "NoWorkersError",
    "RemoteBackend",
    "RemoteBackendError",
    "RemoteTaskError",
    "TaskRetryLimitError",
    "parse_workers",
]

#: Replica cap for speculative re-dispatch: the original plus one copy.
_MAX_REPLICAS = 2


class RemoteBackendError(BackendError):
    """Base class for remote-dispatch failures."""


class NoWorkersError(RemoteBackendError):
    """No admissible worker remains while tasks are still pending."""


class TaskRetryLimitError(RemoteBackendError):
    """One task was lost to worker crashes more times than allowed."""


class RemoteTaskError(RemoteBackendError):
    """A task raised on a worker; carries the remote traceback."""

    def __init__(self, message: str, worker: str = "",
                 remote_traceback: str = "") -> None:
        super().__init__(message)
        self.worker = worker
        self.remote_traceback = remote_traceback


def parse_workers(raw: Union[str, Sequence[Any], None]
                  ) -> List[Tuple[str, int]]:
    """Worker addresses from ``host:port`` specs.

    Accepts a comma/whitespace-separated string (the ``REPRO_WORKERS``
    format), a sequence of such strings, or ``(host, port)`` pairs. A
    bare ``:port`` or ``port`` means localhost.
    """
    if raw is None:
        return []
    items = raw.replace(",", " ").split() if isinstance(raw, str) else raw
    try:
        return [config.parse_addr(item) for item in items]
    except ValueError as exc:
        raise RemoteBackendError(f"bad worker address {exc}") from None


class _Scheduler:
    """Shared dispatch state; every method is thread-safe.

    Task *ids* here are positions in the pending list handed to
    :meth:`RemoteBackend.run_tasks`; the backend maps them back to
    sweep indices. Results and failures flow to the consuming thread
    through ``events`` as ``("result", TaskOutcome)`` /
    ``("abort", exception)`` pairs.
    """

    def __init__(self, ntasks: int, nlinks: int, *,
                 max_task_retries: int = 3, speculate: bool = True,
                 chunk_cap: int = 8) -> None:
        self.ntasks = ntasks
        self.max_task_retries = max_task_retries
        self.speculate = speculate
        self.chunk_cap = max(1, int(chunk_cap))
        self.events: "Queue[Tuple[str, Any]]" = Queue()
        self.counters = BackendCounters()
        self._cond = threading.Condition()
        self._pending = deque(range(ntasks))
        self._inflight: Dict[int, set] = {}
        self._dispatch_seq: Dict[int, int] = {}
        self._seq = 0
        self._retries: Dict[int, int] = {}
        self._done: set = set()
        self._active: set = set()
        self._links_left = nlinks
        self._aborted = False
        self._finished = False

    # -- link lifecycle ------------------------------------------------- #
    def worker_ready(self, worker: str) -> None:
        with self._cond:
            self._active.add(worker)
            self._cond.notify_all()

    def link_dead(self, worker: Optional[str], reason: str,
                  *, rejected: bool = False) -> None:
        """A link ended while work may remain: requeue its tasks.

        ``rejected`` marks handshake rejections (fingerprint/protocol
        mismatch, unreachable host); a live worker dying mid-sweep
        counts as a crash instead.
        """
        with self._cond:
            self._links_left -= 1
            if rejected:
                self.counters.rejected += 1
            if worker is not None and worker in self._active:
                self._active.discard(worker)
                if not self._complete_locked() and not rejected:
                    self.counters.crashed += 1
                self._requeue_locked(worker)
            if self._links_left <= 0 and not self._active \
                    and not self._complete_locked():
                self._abort_locked(NoWorkersError(
                    f"no admissible sweep worker remains "
                    f"({self.ntasks - len(self._done)} task(s) "
                    f"unfinished); last link: {reason}"))
            self._cond.notify_all()

    def link_finished(self) -> None:
        """A link exited normally after the sweep completed."""
        with self._cond:
            self._links_left -= 1
            self._cond.notify_all()

    def _requeue_locked(self, worker: str) -> None:
        for task_id in list(self._inflight):
            replicas = self._inflight[task_id]
            replicas.discard(worker)
            if replicas or task_id in self._done:
                continue
            del self._inflight[task_id]
            retries = self._retries.get(task_id, 0) + 1
            self._retries[task_id] = retries
            if retries > self.max_task_retries:
                self._abort_locked(TaskRetryLimitError(
                    f"task {task_id} was lost to {retries} worker "
                    f"crashes (limit {self.max_task_retries}); giving "
                    f"up on the sweep"))
                return
            self.counters.requeued += 1
            self._pending.appendleft(task_id)

    # -- dispatch ------------------------------------------------------- #
    def next_batch(self, worker: str) -> Optional[List[int]]:
        """Task ids for ``worker``; blocks; ``None`` when all work ended."""
        with self._cond:
            while True:
                if self._aborted or self._finished \
                        or self._complete_locked():
                    return None
                if self._pending:
                    return self._pop_chunk_locked(worker)
                candidate = self._speculation_candidate_locked(worker)
                if candidate is not None:
                    self.counters.speculative += 1
                    self.counters.dispatched += 1
                    self._inflight[candidate].add(worker)
                    return [candidate]
                self._cond.wait()

    def _pop_chunk_locked(self, worker: str) -> List[int]:
        active = max(1, len(self._active))
        size = max(1, min(self.chunk_cap,
                          len(self._pending) // (2 * active)))
        batch = []
        for _ in range(min(size, len(self._pending))):
            task_id = self._pending.popleft()
            self._inflight[task_id] = {worker}
            if task_id not in self._dispatch_seq:
                self._dispatch_seq[task_id] = self._seq
                self._seq += 1
            self.counters.dispatched += 1
            batch.append(task_id)
        return batch

    def _speculation_candidate_locked(self, worker: str) -> Optional[int]:
        if not self.speculate or self.counters.completed == 0:
            return None
        best = None
        for task_id, replicas in self._inflight.items():
            if len(replicas) >= _MAX_REPLICAS or worker in replicas:
                continue
            if best is None or self._dispatch_seq.get(task_id, 0) \
                    < self._dispatch_seq.get(best, 0):
                best = task_id
        return best

    # -- results -------------------------------------------------------- #
    def record_result(self, worker: str, task_id: int, value: Any,
                      duration: float) -> None:
        with self._cond:
            if task_id in self._done:
                # A speculative replica lost the race; drop its result.
                self.counters.discarded += 1
                replicas = self._inflight.get(task_id)
                if replicas is not None:
                    replicas.discard(worker)
                    if not replicas:
                        self._inflight.pop(task_id, None)
                return
            self._done.add(task_id)
            self._inflight.pop(task_id, None)
            self.counters.completed += 1
            self.counters.workers[worker] = \
                self.counters.workers.get(worker, 0) + 1
            self.events.put(("result",
                             TaskOutcome(task_id, value, worker, duration)))
            self._cond.notify_all()

    def record_task_error(self, worker: str, task_id: int, message: str,
                          remote_traceback: str) -> None:
        with self._cond:
            if task_id in self._done:
                self.counters.discarded += 1
                return
            self._abort_locked(RemoteTaskError(
                f"task {task_id} raised on worker {worker}: {message}",
                worker=worker, remote_traceback=remote_traceback))

    # -- teardown ------------------------------------------------------- #
    def finish(self) -> None:
        """Consumer is done (or bailing): wake every waiting link."""
        with self._cond:
            self._finished = True
            self._cond.notify_all()

    def _abort_locked(self, exc: BaseException) -> None:
        if not self._aborted:
            self._aborted = True
            self.events.put(("abort", exc))
        self._cond.notify_all()

    def _complete_locked(self) -> bool:
        return len(self._done) >= self.ntasks


class _WorkerLink(threading.Thread):
    """One worker connection: handshake, then batch/result round-trips."""

    def __init__(self, addr: Tuple[str, int], scheduler: _Scheduler,
                 tasks: Sequence[Any], fingerprint: str,
                 env: Dict[str, str], connect_timeout: float) -> None:
        super().__init__(name=f"sweep-link-{addr[0]}:{addr[1]}",
                         daemon=True)
        self.addr = addr
        self.scheduler = scheduler
        self.tasks = tasks
        self.fingerprint = fingerprint
        self.env = env
        self.connect_timeout = connect_timeout
        self.worker_name: Optional[str] = None
        self._sock: Optional[socket.socket] = None

    def close(self) -> None:
        """Unblock any recv by tearing the socket down (thread-safe)."""
        sock = self._sock
        if sock is not None:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                sock.close()
            except OSError:
                pass

    def run(self) -> None:
        label = f"{self.addr[0]}:{self.addr[1]}"
        try:
            sock = socket.create_connection(self.addr,
                                            timeout=self.connect_timeout)
        except OSError as exc:
            self.scheduler.link_dead(
                None, f"worker {label} unreachable: {exc}", rejected=True)
            return
        self._sock = sock
        try:
            sock.settimeout(None)
            hello = recv_msg(sock)
            if not isinstance(hello, dict) or hello.get("type") != "hello":
                raise ProtocolError(f"worker {label} did not say hello")
            problem = self._handshake_problem(hello)
            if problem is not None:
                try:
                    send_msg(sock, {"type": "reject", "reason": problem})
                except OSError:
                    pass
                self.scheduler.link_dead(
                    None, f"worker {label} rejected: {problem}",
                    rejected=True)
                return
            send_msg(sock, {"type": "welcome", "env": dict(self.env)})
            self.worker_name = \
                f"{hello.get('tag') or 'worker'}@{label}"
            self.scheduler.worker_ready(self.worker_name)
            self._serve(sock)
        except (OSError, ProtocolError) as exc:
            if self.worker_name is None:
                self.scheduler.link_dead(
                    None, f"worker {label} failed handshake: {exc}",
                    rejected=True)
            else:
                self.scheduler.link_dead(
                    self.worker_name, f"worker {self.worker_name} "
                    f"lost: {exc}")
        finally:
            self.close()

    def _handshake_problem(self, hello: Dict[str, Any]) -> Optional[str]:
        if hello.get("protocol") != PROTOCOL_VERSION:
            return (f"protocol {hello.get('protocol')!r} != "
                    f"{PROTOCOL_VERSION}")
        if hello.get("fingerprint") != self.fingerprint:
            return (f"source-tree fingerprint "
                    f"{str(hello.get('fingerprint'))[:12]}... does not "
                    f"match the coordinator's "
                    f"{self.fingerprint[:12]}...; update the worker's "
                    f"checkout (results would be filed under wrong "
                    f"cache keys)")
        return None

    def _serve(self, sock: socket.socket) -> None:
        scheduler = self.scheduler
        assert self.worker_name is not None
        while True:
            batch = scheduler.next_batch(self.worker_name)
            if batch is None:
                try:
                    send_msg(sock, {"type": "bye"})
                except OSError:
                    pass
                scheduler.link_finished()
                return
            send_msg(sock, {"type": "run", "tasks": [
                (task_id, self.tasks[task_id]) for task_id in batch]})
            for _ in batch:
                msg = recv_msg(sock)
                if not isinstance(msg, dict) or msg.get("type") != "result":
                    raise ProtocolError(
                        f"expected a result frame, got "
                        f"{type(msg).__name__}")
                task_id = int(msg["task_id"])
                if msg.get("ok"):
                    scheduler.record_result(
                        self.worker_name, task_id, msg.get("value"),
                        float(msg.get("duration", 0.0)))
                else:
                    scheduler.record_task_error(
                        self.worker_name, task_id,
                        str(msg.get("error", "unknown error")),
                        str(msg.get("traceback", "")))


class RemoteBackend(Backend):
    """Cache-missed sweep tasks over TCP workers.

    ``workers`` is a list of ``host:port`` strings (or the
    ``REPRO_WORKERS`` environment variable when ``None``);
    ``fingerprint`` defaults to this process's
    :func:`~repro.cache.keys.model_fingerprint`. One backend instance
    reconnects to its workers for every :meth:`run_tasks` call, so it
    can serve many sweeps back to back.
    """

    name = "remote"

    def __init__(self, workers: Union[str, Sequence[Any], None] = None, *,
                 fingerprint: Optional[str] = None,
                 max_task_retries: int = 3, speculate: bool = True,
                 connect_timeout: float = 10.0,
                 chunk_cap: int = 8) -> None:
        super().__init__()
        if workers is None:
            workers = config.get("REPRO_WORKERS")
        self.addrs = parse_workers(workers)
        if not self.addrs:
            raise RemoteBackendError(
                "the remote backend needs worker addresses: pass "
                "workers=['host:port', ...] or set "
                "REPRO_WORKERS=host:port,host:port (launch workers "
                "with `python -m repro.tools.sweepworkerctl serve`)")
        if fingerprint is None:
            from repro.cache.keys import model_fingerprint
            fingerprint = model_fingerprint()
        self.fingerprint = fingerprint
        self.max_task_retries = max(0, int(max_task_retries))
        self.speculate = bool(speculate)
        self.connect_timeout = float(connect_timeout)
        self.chunk_cap = int(chunk_cap)

    def run_tasks(self, tasks: Sequence[Tuple[int, Any]]
                  ) -> Iterator[TaskOutcome]:
        tasks = list(tasks)
        if not tasks:
            return
        indices = [index for index, _task in tasks]
        payloads = [task for _index, task in tasks]
        scheduler = _Scheduler(
            len(payloads), len(self.addrs),
            max_task_retries=self.max_task_retries,
            speculate=self.speculate, chunk_cap=self.chunk_cap)
        links = [
            _WorkerLink(addr, scheduler, payloads, self.fingerprint,
                        config.task_env(), self.connect_timeout)
            for addr in self.addrs]
        for link in links:
            link.start()
        got = 0
        try:
            while got < len(payloads):
                kind, payload = scheduler.events.get()
                if kind == "result":
                    got += 1
                    yield TaskOutcome(indices[payload.index],
                                      payload.value, payload.worker,
                                      payload.duration)
                else:
                    raise payload
        finally:
            scheduler.finish()
            for link in links:
                link.close()
            for link in links:
                link.join(timeout=10.0)
            counters = scheduler.counters
            self.counters_.dispatched += counters.dispatched
            self.counters_.completed += counters.completed
            self.counters_.requeued += counters.requeued
            self.counters_.speculative += counters.speculative
            self.counters_.discarded += counters.discarded
            self.counters_.rejected += counters.rejected
            self.counters_.crashed += counters.crashed
            for worker, count in counters.workers.items():
                self.counters_.workers[worker] = \
                    self.counters_.workers.get(worker, 0) + count
