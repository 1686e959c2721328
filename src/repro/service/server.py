"""The asyncio sweep-service server.

:class:`SweepService` turns the repo's experiment engine into a shared,
multi-tenant job server, the service-side mirror of the paper's core
move: dedicate resources to I/O-like work and feed them through a queue
so clients see predictable service instead of interference. One asyncio
process owns:

- a **job queue** (:class:`~repro.service.queue.JobQueue`) drained by a
  bounded set of runner tasks into one ``ProcessPoolExecutor``, created
  on first use and replaced when a worker dies;
- **cache-aware admission**: each spec's content address is computed in
  the parent (same :mod:`repro.cache` keys ``run_sweep`` uses), hits are
  served without touching the pool, and concurrent misses on one key —
  *across tenants* — collapse into a single in-flight computation whose
  result every waiter shares and only the originator writes back;
- **quotas and rate limits** (:class:`~repro.service.quotas.QuotaManager`)
  applied at submission with typed rejections;
- a **Prometheus** ``/metrics`` page (queue depth, active jobs, cache
  hit/miss counters, solver/fault counters read from each run's flow
  network and fault records, per-tenant usage).

HTTP endpoints (JSON; one request per connection):

==========================================  ================================
``GET  /healthz``                           liveness + drain state
``GET  /metrics``                           Prometheus text format
``POST /v1/jobs``                           submit ``{specs, priority,
                                            label, tenant}``
``GET  /v1/jobs``                           list snapshots (``?tenant=``)
``GET  /v1/jobs/<id>``                      status snapshot
``GET  /v1/jobs/<id>/events``               ``?after=N&wait=S`` long-poll
``GET  /v1/jobs/<id>/result``               results once terminal (409
                                            before; typed error if failed)
``DELETE /v1/jobs/<id>``                    cancel (queued or running)
``POST /v1/admin/drain``                    stop admitting, finish in-flight
==========================================  ================================
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Dict, List, Optional

from repro.service import http
from repro.service.errors import (
    InvalidSpecError,
    JobNotFinishedError,
    ServiceDrainingError,
    ServiceError,
    UnknownJobError,
    WorkerCrashedError,
    error_payload,
)
from repro.service.jobs import TERMINAL_STATES, Job, validate_job_payload
from repro.service.metrics import MetricsRegistry
from repro.service.queue import JobQueue, QueueClosed
from repro.service.quotas import QuotaManager
from repro.service.worker import run_service_spec

__all__ = ["SweepService", "DEFAULT_TENANT"]

DEFAULT_TENANT = "anonymous"

_MAX_EVENT_WAIT = 30.0


class SweepService:
    """The job server; create, then ``await start()`` inside a loop.

    Parameters mirror the deployment knobs:

    - ``workers`` — compute pool size (``None``: executor default);
    - ``job_slots`` — jobs executing concurrently (queue drain width);
    - ``cache`` — a :class:`~repro.cache.ResultCache`, ``None`` for the
      environment default, or ``False`` to disable caching;
    - ``quotas`` — a :class:`~repro.service.quotas.QuotaManager`
      (defaults to one with stock :class:`TenantPolicy` limits);
    - ``clock`` — monotonic seconds for job timestamps and rate
      limiting (injectable for deterministic tests);
    - ``runner`` — the module-level function executed per spec in the
      pool (defaults to :func:`~repro.service.worker.run_service_spec`;
      tests substitute cheap stand-ins).
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0, *,
                 workers: Optional[int] = None,
                 job_slots: int = 4,
                 cache: Any = None,
                 quotas: Optional[QuotaManager] = None,
                 clock: Optional[Callable[[], float]] = None,
                 runner: Optional[Callable[[Dict[str, Any]],
                                           Dict[str, Any]]] = None) -> None:
        from repro.experiments.executor import _resolve_cache

        self.host = host
        self.port = port
        self._workers = workers if workers is None else max(1, int(workers))
        self._job_slots = max(1, int(job_slots))
        self._cache = _resolve_cache(cache)
        self._clock = clock
        self._runner = runner if runner is not None else run_service_spec
        self.quotas = quotas if quotas is not None \
            else QuotaManager(clock=clock)

        self.queue = JobQueue()
        self.jobs: Dict[str, Job] = {}
        self._pool: Optional[ProcessPoolExecutor] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._runners: List[asyncio.Task] = []
        self._job_tasks: Dict[str, asyncio.Task] = {}
        self._inflight: Dict[str, asyncio.Task] = {}
        self._conn_tasks: set = set()
        self._events_cond: Optional[asyncio.Condition] = None
        self._draining = False
        self._stopped = False

        self.metrics = MetricsRegistry()
        self._m_queue_depth = self.metrics.gauge(
            "repro_queue_depth", "Jobs queued and not yet dispatched.")
        self._m_jobs_active = self.metrics.gauge(
            "repro_jobs_active", "Jobs currently executing.")
        self._m_jobs_total = self.metrics.counter(
            "repro_jobs_total", "Jobs finished, by terminal state.",
            ("state",))
        self._m_specs_total = self.metrics.counter(
            "repro_specs_total",
            "Specs served, by provenance (cache hit vs pool compute).",
            ("source",))
        self._m_rejections = self.metrics.counter(
            "repro_rejections_total", "Submissions rejected, by kind.",
            ("kind",))
        self._m_cache_events = self.metrics.counter(
            "repro_cache_events_total",
            "Result-cache store activity, by event.", ("event",))
        self._m_cache_ratio = self.metrics.gauge(
            "repro_cache_hit_ratio",
            "Store hits over hits plus misses, cumulative.")
        self._m_sim_events = self.metrics.counter(
            "repro_sim_events_total",
            "Solver/fault counters of computed and cached runs.",
            ("counter",))
        self._m_worker_crashes = self.metrics.counter(
            "repro_worker_crashes_total",
            "Compute-pool workers lost mid-task.")
        self._m_backend_tasks = self.metrics.counter(
            "repro_backend_tasks_total",
            "Compute-pool task events: dispatched, completed, crashed.",
            ("event",))
        self._m_tenant_jobs = self.metrics.gauge(
            "repro_tenant_jobs_submitted", "Jobs admitted, per tenant.",
            ("tenant",))
        self._m_tenant_specs = self.metrics.gauge(
            "repro_tenant_specs_submitted", "Specs admitted, per tenant.",
            ("tenant",))
        self._m_tenant_rejected = self.metrics.gauge(
            "repro_tenant_jobs_rejected", "Jobs rejected, per tenant.",
            ("tenant",))
        self._m_tenant_active = self.metrics.gauge(
            "repro_tenant_jobs_active",
            "Jobs currently open (queued or running), per tenant.",
            ("tenant",))
        if self._cache is not None:
            self._cache.add_stats_listener(
                lambda stat, n: self._m_cache_events.inc(n, event=stat))

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    @property
    def address(self) -> str:
        return f"http://{self.host}:{self.port}"

    @property
    def draining(self) -> bool:
        return self._draining

    def _now(self) -> float:
        if self._clock is not None:
            return self._clock()
        return asyncio.get_running_loop().time()

    async def start(self) -> None:
        """Bind the listener and start the queue runners."""
        self._events_cond = asyncio.Condition()
        self._server = await asyncio.start_server(
            self._on_connection, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        self._runners = [
            asyncio.ensure_future(self._runner_loop())
            for _ in range(self._job_slots)]

    async def drain(self) -> None:
        """Refuse new submissions; queued and running jobs complete."""
        self._draining = True
        await self.queue.close()

    async def stop(self, timeout: Optional[float] = None) -> None:
        """Drain, wait for in-flight jobs, and release every resource.

        Runner tasks exit once the closed queue empties; the pool is
        then shut down with ``wait=True`` so no worker process outlives
        the server.
        """
        if self._stopped:
            return
        self._stopped = True
        await self.drain()
        if self._runners:
            done, pending = await asyncio.wait(
                self._runners, timeout=timeout)
            for task in pending:
                task.cancel()
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)
        for task in list(self._inflight.values()):
            task.cancel()
        if self._inflight:
            await asyncio.gather(*self._inflight.values(),
                                 return_exceptions=True)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._conn_tasks:
            await asyncio.gather(*list(self._conn_tasks),
                                 return_exceptions=True)
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)
        if self._cache is not None:
            self._cache.flush()

    # ------------------------------------------------------------------ #
    # job execution
    # ------------------------------------------------------------------ #
    async def _runner_loop(self) -> None:
        while True:
            try:
                job = await self.queue.get()
            except QueueClosed:
                return
            if job.state != "queued":  # cancelled while queued
                continue
            task = asyncio.ensure_future(self._execute_job(job))
            self._job_tasks[job.job_id] = task
            try:
                await task
            except asyncio.CancelledError:
                if not task.cancelled():
                    raise  # the runner itself was cancelled
            except Exception:
                pass  # job-level failures are recorded on the job
            finally:
                self._job_tasks.pop(job.job_id, None)

    async def _execute_job(self, job: Job) -> None:
        job.mark_running()
        self._m_jobs_active.inc()
        await self._notify_watchers()
        try:
            for index, spec in enumerate(job.specs):
                payload, source = await self._resolve_spec(spec)
                job.record_result(index, payload["summary"], source)
                job.merge_counters(payload.get("counters", {}))
                self._m_specs_total.inc(source=source)
                for name, value in payload.get("counters", {}).items():
                    if value:
                        self._m_sim_events.inc(float(value), counter=name)
                await self._notify_watchers()
            self._finish_job(job, "done")
        except asyncio.CancelledError:
            self._finish_job(job, "cancelled")
            raise
        except ServiceError as exc:
            self._finish_job(job, "failed",
                             error_payload(exc)["error"])
        except Exception as exc:  # spec raised inside a worker
            self._finish_job(job, "failed", {
                "kind": "task_failed",
                "message": f"{type(exc).__name__}: {exc}",
                "details": {}})
        finally:
            self._m_jobs_active.dec()
            await self._notify_watchers()

    def _finish_job(self, job: Job, state: str,
                    error: Optional[Dict[str, Any]] = None) -> None:
        job.finish(state, error)
        self._m_jobs_total.inc(state=state)
        self.quotas.release(job.tenant)

    async def _resolve_spec(self, spec: Dict[str, Any]):
        """One spec → ``(payload, source)`` via cache, dedup, or pool."""
        key = None
        if self._cache is not None:
            from repro.experiments.executor import resolve_cache_context
            key = self._cache.key_for(
                self._runner, (spec,), {},
                context=resolve_cache_context(self._cache))
            if key is not None:
                hit, value = self._cache.get(key)
                if hit:
                    return value, "cache"
        if key is not None and key in self._inflight:
            # Another job — possibly another tenant — is already
            # computing this exact spec; share its result.
            payload = await asyncio.shield(self._inflight[key])
            return payload, "cache"
        task = asyncio.ensure_future(self._compute(spec, key))
        if key is not None:
            self._inflight[key] = task
            task.add_done_callback(
                lambda _t, _k=key: self._inflight.pop(_k, None))
        payload = await asyncio.shield(task)
        return payload, "pool"

    async def _compute(self, spec: Dict[str, Any],
                       key: Optional[str]) -> Dict[str, Any]:
        """Run one spec in the pool; only this task writes the cache."""
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self._workers)
        pool = self._pool
        self._m_backend_tasks.inc(event="dispatched")
        try:
            payload = await asyncio.wrap_future(
                pool.submit(self._runner, spec))
        except BrokenProcessPool:
            # A worker died (OOM-kill, SIGKILL, crash). Drop the broken
            # pool (unless another spec already did) so the next spec
            # gets a fresh one and the *server* keeps serving, and
            # surface a typed failure on the affected job(s).
            self._m_worker_crashes.inc()
            self._m_backend_tasks.inc(event="crashed")
            if self._pool is pool:
                self._pool = None
                pool.shutdown(wait=False)
            raise WorkerCrashedError(
                "a compute-pool worker died while running this spec; "
                "the pool has been replaced") from None
        self._m_backend_tasks.inc(event="completed")
        if key is not None and self._cache is not None:
            self._cache.put(key, payload)
        return payload

    async def _notify_watchers(self) -> None:
        assert self._events_cond is not None
        async with self._events_cond:
            self._events_cond.notify_all()

    # ------------------------------------------------------------------ #
    # submission / control
    # ------------------------------------------------------------------ #
    async def submit(self, payload: Any,
                     tenant: Optional[str] = None) -> Job:
        """Validate, admit (quota + rate limit), enqueue; returns the
        :class:`Job`. Raises a typed :class:`ServiceError` otherwise."""
        if self._draining:
            self._m_rejections.inc(kind="draining")
            raise ServiceDrainingError(
                "the service is draining and does not accept new jobs")
        validate_job_payload(payload)
        tenant = tenant or payload.get("tenant") or DEFAULT_TENANT
        try:
            self.quotas.admit(tenant, len(payload["specs"]))
        except ServiceError as exc:
            self._m_rejections.inc(kind=exc.kind)
            raise
        job = Job(tenant=tenant, specs=payload["specs"],
                  priority=payload.get("priority", 0),
                  label=payload.get("label", ""), clock=self._now)
        self.jobs[job.job_id] = job
        try:
            await self.queue.put(job, job.priority)
        except QueueClosed:
            self.jobs.pop(job.job_id, None)
            self.quotas.release(tenant)
            self._m_rejections.inc(kind="draining")
            raise ServiceDrainingError(
                "the service is draining and does not accept new jobs") \
                from None
        return job

    async def cancel(self, job_id: str) -> Job:
        job = self._job(job_id)
        if job.state in TERMINAL_STATES:
            return job
        if job.state == "queued":
            await self.queue.remove(lambda j: j.job_id == job_id)
            self._finish_job(job, "cancelled")
            await self._notify_watchers()
            return job
        task = self._job_tasks.get(job_id)
        if task is not None:
            task.cancel()
            await asyncio.gather(task, return_exceptions=True)
        return job

    def _job(self, job_id: str) -> Job:
        job = self.jobs.get(job_id)
        if job is None:
            raise UnknownJobError(f"no such job: {job_id!r}",
                                  job_id=job_id)
        return job

    # ------------------------------------------------------------------ #
    # metrics
    # ------------------------------------------------------------------ #
    def render_metrics(self) -> str:
        self._m_queue_depth.set(self.queue.depth)
        hits = self._m_cache_events.value(event="hits")
        misses = self._m_cache_events.value(event="misses")
        if hits + misses > 0:
            self._m_cache_ratio.set(hits / (hits + misses))
        for tenant, usage in sorted(self.quotas.usage_snapshot().items()):
            self._m_tenant_jobs.set(usage.jobs_submitted, tenant=tenant)
            self._m_tenant_specs.set(usage.specs_submitted, tenant=tenant)
            self._m_tenant_rejected.set(usage.jobs_rejected,
                                        tenant=tenant)
            self._m_tenant_active.set(usage.active_jobs, tenant=tenant)
        return self.metrics.render()

    # ------------------------------------------------------------------ #
    # HTTP plumbing
    # ------------------------------------------------------------------ #
    async def _on_connection(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
            task.add_done_callback(self._conn_tasks.discard)
        try:
            try:
                request = await http.read_request(reader)
            except http.HttpError as exc:
                writer.write(http.json_response(exc.status, {
                    "error": {"kind": "bad_request",
                              "message": exc.message, "details": {}}}))
                await writer.drain()
                return
            if request is None:
                return
            writer.write(await self._dispatch(request))
            await writer.drain()
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, Exception):
                pass

    async def _dispatch(self, request: http.Request) -> bytes:
        try:
            return await self._route(request)
        except http.HttpError as exc:
            return http.json_response(exc.status, {
                "error": {"kind": "bad_request", "message": exc.message,
                          "details": {}}})
        except ServiceError as exc:
            return http.json_response(exc.status, error_payload(exc))
        except Exception as exc:  # pragma: no cover - defensive
            return http.json_response(500, {
                "error": {"kind": "internal",
                          "message": f"{type(exc).__name__}: {exc}",
                          "details": {}}})

    async def _route(self, request: http.Request) -> bytes:
        method, path = request.method, request.path.rstrip("/") or "/"
        if path == "/healthz" and method == "GET":
            return http.json_response(200, {
                "state": "draining" if self._draining else "ok",
                "queue_depth": self.queue.depth,
                "active_jobs": len(self._job_tasks)})
        if path == "/metrics" and method == "GET":
            return http.response(
                200, self.render_metrics().encode("utf-8"),
                "text/plain; version=0.0.4; charset=utf-8")
        if path == "/v1/jobs" and method == "POST":
            body = request.json()
            if not isinstance(body, dict):
                raise InvalidSpecError(
                    "a job submission is a JSON object")
            tenant = request.header("x-repro-tenant") or None
            job = await self.submit(body, tenant=tenant)
            return http.json_response(202, job.snapshot())
        if path == "/v1/jobs" and method == "GET":
            tenant = request.query.get("tenant")
            snaps = [job.snapshot() for job in self.jobs.values()
                     if tenant is None or job.tenant == tenant]
            return http.json_response(200, {"jobs": snaps})
        if path.startswith("/v1/jobs/"):
            return await self._route_job(request, method,
                                         path[len("/v1/jobs/"):])
        if path == "/v1/admin/drain" and method == "POST":
            await self.drain()
            return http.json_response(202, {
                "state": "draining",
                "queue_depth": self.queue.depth,
                "active_jobs": len(self._job_tasks)})
        raise http.HttpError(404, f"no route for {method} {request.path}")

    async def _route_job(self, request: http.Request, method: str,
                         rest: str) -> bytes:
        job_id, _, sub = rest.partition("/")
        job = self._job(job_id)
        if not sub and method == "GET":
            return http.json_response(200, job.snapshot())
        if not sub and method == "DELETE":
            job = await self.cancel(job_id)
            return http.json_response(200, job.snapshot())
        if sub == "events" and method == "GET":
            return await self._serve_events(request, job)
        if sub == "result" and method == "GET":
            return self._serve_result(job)
        raise http.HttpError(
            404, f"no route for {method} {request.path}")

    async def _serve_events(self, request: http.Request,
                            job: Job) -> bytes:
        try:
            after = int(request.query.get("after", "-1"))
            wait = min(_MAX_EVENT_WAIT,
                       float(request.query.get("wait", "0")))
        except ValueError:
            raise http.HttpError(400, "'after' and 'wait' are numbers")
        assert self._events_cond is not None
        loop = asyncio.get_running_loop()
        deadline = loop.time() + wait
        async with self._events_cond:
            while True:
                events = job.events_since(after)
                if events or job.state in TERMINAL_STATES:
                    break
                timeout = deadline - loop.time()
                if timeout <= 0:
                    break
                try:
                    await asyncio.wait_for(self._events_cond.wait(),
                                           timeout)
                except asyncio.TimeoutError:
                    break
        return http.json_response(200, {
            "job_id": job.job_id, "state": job.state, "events": events})

    def _serve_result(self, job: Job) -> bytes:
        if job.state not in TERMINAL_STATES:
            raise JobNotFinishedError(
                f"job {job.job_id} is {job.state}; results are served "
                f"once it reaches a terminal state",
                job_id=job.job_id, state=job.state)
        return http.json_response(200, {
            "job_id": job.job_id,
            "state": job.state,
            "label": job.label,
            "tenant": job.tenant,
            "results": job.results,
            "sources": job.sources,
            "counters": job.counters,
            "error": job.error,
        })
