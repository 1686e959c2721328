"""End-to-end service tests over the real wire path.

Every test here boots an in-process
:class:`~repro.service.testing.ServiceFixture` (real asyncio server on
an ephemeral port, real process pool) and drives it through the real
:class:`~repro.service.client.ServiceClient` — the same code path
``servectl`` uses. Stub runners keep the suite fast; the one test that
exercises the full simulation engine end-to-end is marked ``slow``.
"""

import json
import os
import socket
from http.client import HTTPConnection

import pytest

from repro.cache import ResultCache
from repro.service import http
from repro.service.errors import (
    JobNotFinishedError,
    QuotaExceededError,
    RateLimitedError,
    ServiceDrainingError,
    UnknownJobError,
    WorkerCrashedError,
)
from repro.service.quotas import QuotaManager, TenantPolicy
from repro.service.testing import (
    FakeClock,
    ServiceFixture,
    echo_runner,
    make_spec,
    slow_runner,
)


def _specs(n, **kw):
    return [make_spec(seed=i, **kw) for i in range(n)]


# --------------------------------------------------------------------- #
# submission, progress, results
# --------------------------------------------------------------------- #
def test_submit_wait_fetch_round_trip():
    with ServiceFixture(runner=echo_runner) as fx:
        client = fx.client(tenant="alice")
        snap = client.submit(_specs(3), label="roundtrip")
        assert snap["state"] in ("queued", "running")
        final = client.wait(snap["job_id"], timeout=60)
        assert final["state"] == "done"
        assert final["progress"]["done"] == 3
        doc = client.result(snap["job_id"])
        assert [r["seed"] for r in doc["results"]] == [0, 1, 2]
        assert doc["counters"]["recomputes"] == pytest.approx(3.0)
        assert client.jobs(tenant="alice")[0]["job_id"] == snap["job_id"]


def test_progress_events_are_monotonic_and_complete():
    with ServiceFixture(runner=echo_runner) as fx:
        client = fx.client()
        snap = client.submit(_specs(4))
        client.wait(snap["job_id"], timeout=60)
        events = client.events(snap["job_id"])["events"]
        assert [e["seq"] for e in events] == list(range(len(events)))
        kinds = [e["kind"] for e in events]
        assert kinds[0] == "queued" and kinds[-1] == "done"
        progress = [e for e in events if e["kind"] == "progress"]
        assert [e["done"] for e in progress] == [1, 2, 3, 4]
        for e in progress:
            assert e["cache_hits"] + e["computed"] == e["done"]
        # incremental reads resume exactly where they left off
        tail = client.events(snap["job_id"], after=events[-2]["seq"])
        assert [e["seq"] for e in tail["events"]] == [events[-1]["seq"]]


def test_result_before_terminal_is_typed_409():
    with ServiceFixture(runner=slow_runner, workers=1) as fx:
        client = fx.client()
        snap = client.submit([make_spec(seed=1, ncores=96)])
        with pytest.raises(JobNotFinishedError):
            client.result(snap["job_id"])
        with pytest.raises(UnknownJobError):
            client.status("job-999999")
        client.cancel(snap["job_id"])


def test_invalid_spec_rejected_at_admission():
    with ServiceFixture(runner=echo_runner) as fx:
        client = fx.client()
        from repro.service.errors import InvalidSpecError
        with pytest.raises(InvalidSpecError):
            client.submit([{"preset": "nope", "ncores": 8,
                            "strategy": {"kind": "damaris"}}])
        assert client.jobs() == []  # nothing was enqueued


def test_spec_field_outside_its_strategy_kind_is_400_at_submission():
    # pHDF5 collective writes cannot compress, and the old
    # compress_on_server spelling is gone: each is refused on the wire
    # before a job exists, never run as a different experiment or left
    # to fail in a worker.
    with ServiceFixture(runner=echo_runner) as fx:
        for strategy in ({"kind": "collective", "compression": "gzip"},
                         {"kind": "damaris", "compress_on_server": True}):
            spec = dict(make_spec(), strategy=strategy)
            conn = HTTPConnection(fx.service.host, fx.service.port,
                                  timeout=30)
            try:
                conn.request("POST", "/v1/jobs",
                             body=json.dumps({"specs": [spec]}),
                             headers={"Content-Type": "application/json"})
                resp = conn.getresponse()
                body = json.loads(resp.read())
            finally:
                conn.close()
            assert resp.status == 400
            assert body["error"]["kind"] == "invalid_spec"
            assert repr(strategy["kind"]) in body["error"]["message"]
        assert fx.client().jobs() == []


# --------------------------------------------------------------------- #
# concurrent tenants, cache-aware admission, dedup
# --------------------------------------------------------------------- #
def test_second_tenant_sweep_is_cache_hits(tmp_path):
    cache = ResultCache(str(tmp_path / "store"))
    with ServiceFixture(runner=echo_runner, cache=cache) as fx:
        alice, bob = fx.client(tenant="alice"), fx.client(tenant="bob")
        first = alice.submit(_specs(4), label="cold")
        alice.wait(first["job_id"], timeout=60)
        # bob resubmits the identical sweep: served from the store,
        # nothing reaches the pool
        second = bob.submit(_specs(4), label="warm")
        final = bob.wait(second["job_id"], timeout=60)
        progress = final["progress"]
        assert progress["cache_hits"] >= progress["total"] * 0.5
        assert progress["cache_hits"] == 4 and progress["computed"] == 0
        doc = bob.result(second["job_id"])
        assert doc["sources"] == ["cache"] * 4
        # both tenants' results agree spec-for-spec
        assert doc["results"] == alice.result(first["job_id"])["results"]


def test_concurrent_overlapping_sweeps_dedup_in_flight(tmp_path):
    cache = ResultCache(str(tmp_path / "store"))
    # slow_runner + ncores=72 -> each spec takes ~0.7 s, so bob's
    # identical submission lands while alice's specs are still being
    # computed: the in-flight map must collapse them.
    with ServiceFixture(runner=slow_runner, cache=cache, workers=2,
                        job_slots=4) as fx:
        alice, bob = fx.client(tenant="alice"), fx.client(tenant="bob")
        specs = _specs(2, ncores=72)
        first = alice.submit(specs)
        fx.wait_until(
            lambda: alice.status(first["job_id"])["state"] == "running")
        second = bob.submit(specs)
        a_final = alice.wait(first["job_id"], timeout=60)
        b_final = bob.wait(second["job_id"], timeout=60)
        assert a_final["state"] == b_final["state"] == "done"
        total_pool = (a_final["progress"]["computed"]
                      + b_final["progress"]["computed"])
        assert total_pool == 2  # each distinct spec computed exactly once
        assert b_final["progress"]["cache_hits"] >= 1
        metrics = alice.metrics()
        assert 'repro_specs_total{source="pool"} 2' in metrics


# --------------------------------------------------------------------- #
# quotas and rate limiting
# --------------------------------------------------------------------- #
def test_quota_exhaustion_is_typed_and_recovers():
    quotas = QuotaManager(TenantPolicy(max_active_jobs=1, rate=0))
    with ServiceFixture(runner=slow_runner, workers=1,
                        quotas=quotas) as fx:
        client = fx.client(tenant="alice")
        first = client.submit([make_spec(seed=1, ncores=72)])
        with pytest.raises(QuotaExceededError) as info:
            client.submit([make_spec(seed=2)])
        assert info.value.details["limit"] == "max_active_jobs"
        # an unrelated tenant is not affected
        other = fx.client(tenant="bob").submit([make_spec(seed=3)])
        fx.client(tenant="bob").wait(other["job_id"], timeout=60)
        client.wait(first["job_id"], timeout=60)
        # the slot frees once the job is terminal
        second = client.submit([make_spec(seed=4)])
        client.wait(second["job_id"], timeout=60)


def test_rate_limit_recovery_with_fake_clock():
    clock = FakeClock()
    quotas = QuotaManager(
        TenantPolicy(max_active_jobs=0, rate=1.0, burst=3.0),
        clock=clock)
    with ServiceFixture(runner=echo_runner, quotas=quotas,
                        clock=clock) as fx:
        client = fx.client(tenant="alice")
        burst = client.submit(_specs(3))  # spends the whole burst
        client.wait(burst["job_id"], timeout=60)
        with pytest.raises(RateLimitedError) as info:
            client.submit(_specs(2))
        assert info.value.retry_after == pytest.approx(2.0)
        # no wall-clock sleeping: advancing the injected clock is the
        # recovery
        clock.advance(info.value.retry_after)
        ok = client.submit(_specs(2))
        client.wait(ok["job_id"], timeout=60)
        assert "repro_rejections_total" in client.metrics()


# --------------------------------------------------------------------- #
# cancellation
# --------------------------------------------------------------------- #
def test_cancel_running_job():
    with ServiceFixture(runner=slow_runner, workers=1) as fx:
        client = fx.client(tenant="alice")
        snap = client.submit([make_spec(seed=i, ncores=96)
                              for i in range(3)])
        fx.wait_until(
            lambda: client.status(snap["job_id"])["state"] == "running")
        cancelled = client.cancel(snap["job_id"])
        assert cancelled["state"] == "cancelled"
        doc = client.result(snap["job_id"])  # terminal: served, no 409
        assert doc["state"] == "cancelled"
        # the quota slot is released; the pool still serves new work
        after = client.submit([make_spec(seed=9)])
        assert client.wait(after["job_id"], timeout=60)["state"] == "done"


def test_cancel_queued_job_never_runs():
    with ServiceFixture(runner=slow_runner, workers=1,
                        job_slots=1) as fx:
        client = fx.client()
        running = client.submit([make_spec(seed=1, ncores=96)])
        queued = client.submit([make_spec(seed=2, ncores=96)])
        cancelled = client.cancel(queued["job_id"])
        assert cancelled["state"] == "cancelled"
        assert cancelled["started_at"] is None
        final = client.wait(running["job_id"], timeout=60)
        assert final["state"] == "done"
        kinds = [e["kind"] for e in client.events(queued["job_id"])["events"]]
        assert "started" not in kinds


# --------------------------------------------------------------------- #
# drain / shutdown
# --------------------------------------------------------------------- #
def test_drain_finishes_in_flight_and_rejects_new():
    with ServiceFixture(runner=slow_runner, workers=2,
                        job_slots=1) as fx:
        client = fx.client(tenant="alice")
        running = client.submit([make_spec(seed=1, ncores=72)])
        queued = client.submit([make_spec(seed=2, ncores=48)])
        fx.wait_until(
            lambda: client.status(running["job_id"])["state"] == "running")
        assert client.drain()["state"] == "draining"
        assert client.health()["state"] == "draining"
        with pytest.raises(ServiceDrainingError):
            client.submit([make_spec(seed=3)])
        # both the running and the already-queued job still complete
        assert client.wait(running["job_id"], timeout=60)["state"] == "done"
        assert client.wait(queued["job_id"], timeout=60)["state"] == "done"
        pids = fx.pool_pids()
    # after fixture teardown no pool worker survives
    for pid in pids:
        with pytest.raises(OSError):
            os.kill(pid, 0)


def test_stop_with_jobs_in_flight_leaves_no_orphans():
    fx = ServiceFixture(runner=slow_runner, workers=2)
    fx.start()
    try:
        client = fx.client()
        snaps = [client.submit([make_spec(seed=i, ncores=72)])
                 for i in range(2)]
        fx.wait_until(lambda: fx.pool_pids())
        pids = fx.pool_pids()
    finally:
        fx.stop()  # drain + join while jobs are mid-queue
    assert not fx._thread.is_alive()
    for pid in pids:
        with pytest.raises(OSError):
            os.kill(pid, 0)
    # the in-flight jobs were completed, not abandoned
    for snap in snaps:
        job = fx.service.jobs[snap["job_id"]]
        assert job.state == "done"


def test_silent_client_cannot_hold_stop(monkeypatch):
    # A client that sends half a request head and goes quiet gets a 408
    # once the read bound passes, so stop() does not wait on it forever.
    monkeypatch.setattr(http, "_REQUEST_TIMEOUT_S", 1.0)
    with ServiceFixture(runner=echo_runner, workers=1) as fx:
        address = (fx.service.host, fx.service.port)
        with socket.create_connection(address, timeout=10.0) as sock:
            sock.sendall(b"GET /healthz HTTP/1.1\r\n")
            fx.wait_until(lambda: len(fx.service._conn_tasks) == 1)
            # Raises TimeoutError if stop() is still waiting on the client.
            fx.run(fx.service.stop(timeout=1.0), timeout=10.0)
            reply = sock.recv(4096)
        assert reply.startswith(b"HTTP/1.1 408 ")


# --------------------------------------------------------------------- #
# fault injection: a pool worker dies mid-job
# --------------------------------------------------------------------- #
def test_worker_kill_fails_job_typed_and_server_survives():
    with ServiceFixture(runner=slow_runner, workers=1) as fx:
        client = fx.client(tenant="alice")
        snap = client.submit([make_spec(seed=1, ncores=408)])
        fx.wait_until(
            lambda: fx.pool_pids()
            and client.status(snap["job_id"])["state"] == "running")
        fx.kill_worker()
        final = client.wait(snap["job_id"], timeout=60)
        assert final["state"] == "failed"
        assert final["error"]["kind"] == "worker_crashed"
        with pytest.raises(WorkerCrashedError):
            client.result(snap["job_id"])
        # the server replaced the pool and keeps serving
        assert client.health()["state"] == "ok"
        retry = client.submit([make_spec(seed=2, ncores=24)])
        assert client.wait(retry["job_id"], timeout=60)["state"] == "done"
        assert "repro_worker_crashes_total 1" in client.metrics()


# --------------------------------------------------------------------- #
# metrics endpoint
# --------------------------------------------------------------------- #
def test_metrics_page_exposes_required_series(tmp_path):
    cache = ResultCache(str(tmp_path / "store"))
    with ServiceFixture(runner=echo_runner, cache=cache) as fx:
        client = fx.client(tenant="alice")
        job = client.submit(_specs(2))
        client.wait(job["job_id"], timeout=60)
        again = client.submit(_specs(2))
        client.wait(again["job_id"], timeout=60)
        page = client.metrics()
    assert "# TYPE repro_queue_depth gauge" in page
    assert "repro_queue_depth 0" in page
    assert "# TYPE repro_cache_events_total counter" in page
    assert 'repro_cache_events_total{event="hits"} 2' in page
    assert 'repro_cache_events_total{event="misses"} 2' in page
    assert 'repro_cache_events_total{event="writes"} 2' in page
    assert "repro_cache_hit_ratio 0.5" in page
    assert 'repro_jobs_total{state="done"} 2' in page
    assert 'repro_tenant_specs_submitted{tenant="alice"} 4' in page
    assert 'repro_sim_events_total{counter="recomputes"}' in page


# --------------------------------------------------------------------- #
# the real engine, end to end (slow: full simulations through the pool)
# --------------------------------------------------------------------- #
@pytest.mark.slow
def test_real_engine_end_to_end(tmp_path):
    cache = ResultCache(str(tmp_path / "store"))
    specs = [make_spec(seed=seed, ncores=24, kind=kind)
             for seed, kind in ((1, "damaris"), (2, "fpp"))]
    with ServiceFixture(workers=2, cache=cache) as fx:
        client = fx.client(tenant="alice")
        job = client.submit(specs, label="real")
        final = client.wait(job["job_id"], timeout=300)
        assert final["state"] == "done"
        doc = client.result(job["job_id"])
        for summary in doc["results"]:
            assert summary["run_time"] > 0
            assert summary["ncores"] == 24
        assert doc["results"][0]["strategy"] == "damaris"
        assert doc["counters"]["solver_flows_solved"] > 0
        # a second tenant re-running the sweep is pure cache
        warm = fx.client(tenant="bob").submit(specs)
        warm_final = fx.client(tenant="bob").wait(warm["job_id"],
                                                  timeout=300)
        assert warm_final["progress"]["cache_hits"] == len(specs)
