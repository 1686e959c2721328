"""Unit tests for the service building blocks (no server, no sockets).

Covers the pieces :mod:`repro.service.server` composes: the priority
queue's ordering/cancellation/close semantics, token-bucket arithmetic
under an injected clock, quota admission, the Prometheus registry's
exposition format, typed-error wire round-trips, job payload
validation, and fuzzing of the two parsers untrusted bytes reach (the
HTTP request reader and the job payload validator). The full wire path
is exercised in ``test_service.py``.
"""

import asyncio
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service import http
from repro.service.errors import (
    InvalidSpecError,
    JobNotFinishedError,
    QuotaExceededError,
    RateLimitedError,
    ServiceDrainingError,
    ServiceError,
    UnknownJobError,
    WorkerCrashedError,
    error_from_payload,
    error_payload,
)
from repro.service.jobs import Job, validate_job_payload
from repro.service.metrics import MetricsRegistry
from repro.service.queue import JobQueue, QueueClosed
from repro.service.quotas import QuotaManager, TenantPolicy, TokenBucket
from repro.service.server import SweepService
from repro.service.testing import FakeClock, make_spec


def run(coro):
    return asyncio.run(coro)


# --------------------------------------------------------------------- #
# JobQueue
# --------------------------------------------------------------------- #
def test_queue_priority_then_fifo():
    async def scenario():
        q = JobQueue()
        await q.put("low-a", 0)
        await q.put("high", 5)
        await q.put("low-b", 0)
        return [await q.get() for _ in range(3)]

    assert run(scenario()) == ["high", "low-a", "low-b"]


def test_queue_get_waits_for_put():
    async def scenario():
        q = JobQueue()

        async def put_later():
            await asyncio.sleep(0.01)
            await q.put("x")

        getter = asyncio.ensure_future(q.get())
        await asyncio.gather(put_later(), getter)
        return getter.result()

    assert run(scenario()) == "x"


def test_queue_remove_tombstones_without_reordering():
    async def scenario():
        q = JobQueue()
        for name in ("a", "b", "c"):
            await q.put(name)
        removed = await q.remove(lambda item: item == "b")
        assert removed == ["b"]
        assert q.depth == 2
        return [await q.get() for _ in range(2)]

    assert run(scenario()) == ["a", "c"]


def test_queue_close_drains_then_raises():
    async def scenario():
        q = JobQueue()
        await q.put("pre-close")
        await q.close()
        with pytest.raises(QueueClosed):
            await q.put("post-close")
        drained = await q.get()
        with pytest.raises(QueueClosed):
            await q.get()
        return drained

    assert run(scenario()) == "pre-close"


def test_queue_close_wakes_blocked_getter():
    async def scenario():
        q = JobQueue()
        getter = asyncio.ensure_future(q.get())
        await asyncio.sleep(0.01)
        await q.close()
        with pytest.raises(QueueClosed):
            await getter

    run(scenario())


# --------------------------------------------------------------------- #
# TokenBucket / QuotaManager
# --------------------------------------------------------------------- #
def test_token_bucket_spends_and_refills():
    clock = FakeClock()
    bucket = TokenBucket(rate=10.0, burst=20.0, clock=clock)
    assert bucket.try_acquire(20.0) == 0.0  # full burst available
    retry = bucket.try_acquire(5.0)
    assert retry == pytest.approx(0.5)  # 5 tokens at 10/s
    clock.advance(0.5)
    assert bucket.try_acquire(5.0) == 0.0
    assert bucket.tokens == pytest.approx(0.0)


def test_token_bucket_caps_at_burst():
    clock = FakeClock()
    bucket = TokenBucket(rate=100.0, burst=10.0, clock=clock)
    clock.advance(3600.0)
    assert bucket.tokens == pytest.approx(10.0)


def test_quota_specs_per_job_cap():
    quotas = QuotaManager(TenantPolicy(max_specs_per_job=2),
                          clock=FakeClock())
    with pytest.raises(QuotaExceededError) as info:
        quotas.admit("t", 3)
    assert info.value.details["limit"] == "max_specs_per_job"
    assert quotas.usage_for("t").jobs_rejected == 1


def test_quota_active_jobs_cap_and_release():
    quotas = QuotaManager(TenantPolicy(max_active_jobs=1, rate=0),
                          clock=FakeClock())
    quotas.admit("t", 1)
    with pytest.raises(QuotaExceededError):
        quotas.admit("t", 1)
    quotas.release("t")
    quotas.admit("t", 1)  # slot freed
    # other tenants are unaffected throughout
    quotas.admit("other", 1)


def test_quota_rate_limit_and_recovery():
    clock = FakeClock()
    quotas = QuotaManager(TenantPolicy(max_active_jobs=0, rate=2.0,
                                       burst=4.0), clock=clock)
    quotas.admit("t", 4)  # spends the burst
    with pytest.raises(RateLimitedError) as info:
        quotas.admit("t", 2)
    assert info.value.retry_after == pytest.approx(1.0)
    clock.advance(info.value.retry_after)
    quotas.admit("t", 2)  # recovered exactly at the advertised time


def test_quota_overrides_replace_default():
    quotas = QuotaManager(TenantPolicy(max_specs_per_job=1),
                          overrides={"big": TenantPolicy(
                              max_specs_per_job=100)},
                          clock=FakeClock())
    quotas.admit("big", 50)
    with pytest.raises(QuotaExceededError):
        quotas.admit("small", 50)


# --------------------------------------------------------------------- #
# Metrics registry
# --------------------------------------------------------------------- #
def test_metrics_render_format():
    reg = MetricsRegistry()
    jobs = reg.counter("jobs_total", "Jobs finished.", ("state",))
    depth = reg.gauge("queue_depth", "Queued jobs.")
    jobs.inc(state="done")
    jobs.inc(2, state="failed")
    depth.set(3)
    page = reg.render()
    assert "# HELP jobs_total Jobs finished.\n# TYPE jobs_total counter" \
        in page
    assert 'jobs_total{state="done"} 1' in page
    assert 'jobs_total{state="failed"} 2' in page
    assert "# TYPE queue_depth gauge" in page
    assert "queue_depth 3" in page
    assert page.endswith("\n")


def test_metrics_unlabelled_metric_renders_zero():
    reg = MetricsRegistry()
    reg.counter("touched_total", "Never incremented.")
    assert "touched_total 0" in reg.render()


def test_metrics_label_escaping_and_sorting():
    reg = MetricsRegistry()
    c = reg.counter("odd_total", "Odd labels.", ("name",))
    c.inc(name='quo"te\nnew\\slash')
    c.inc(name="aaa")
    page = reg.render()
    assert 'odd_total{name="quo\\"te\\nnew\\\\slash"} 1' in page
    assert page.index('name="aaa"') < page.index('name="quo')


def test_metrics_counter_rejects_decrease_and_conflicts():
    reg = MetricsRegistry()
    c = reg.counter("n_total", "N.")
    with pytest.raises(ValueError):
        c.inc(-1)
    assert reg.counter("n_total", "N.") is c  # idempotent
    with pytest.raises(ValueError):
        reg.gauge("n_total", "N.")  # type conflict
    with pytest.raises(ValueError):
        reg.counter("n_total", "N.", ("tenant",))  # labelset conflict


def test_metrics_float_and_int_formatting():
    reg = MetricsRegistry()
    g = reg.gauge("ratio", "R.")
    g.set(0.5)
    assert "ratio 0.5" in reg.render()
    g.set(2.0)
    assert "ratio 2\n" in reg.render()


# --------------------------------------------------------------------- #
# Typed errors over the wire
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("exc", [
    InvalidSpecError("bad spec", spec_index=3),
    UnknownJobError("no such job", job_id="job-9"),
    JobNotFinishedError("still running", state="running"),
    QuotaExceededError("over quota", limit="max_active_jobs"),
    RateLimitedError("slow down", retry_after=1.25),
    ServiceDrainingError("draining"),
    WorkerCrashedError("pool worker died"),
])
def test_error_round_trip(exc):
    rebuilt = error_from_payload(
        json.loads(json.dumps(error_payload(exc))), exc.status)
    assert type(rebuilt) is type(exc)
    assert rebuilt.message == exc.message
    assert rebuilt.details == exc.details
    if isinstance(exc, RateLimitedError):
        assert rebuilt.retry_after == pytest.approx(1.25)


def test_error_unknown_kind_degrades_to_base():
    rebuilt = error_from_payload(
        {"error": {"kind": "from_the_future", "message": "m",
                   "details": {"x": 1}}}, 500)
    assert type(rebuilt) is ServiceError
    assert rebuilt.details == {"x": 1}


def test_error_malformed_payload_degrades_to_base():
    rebuilt = error_from_payload("not json we expected", 502)
    assert isinstance(rebuilt, ServiceError)
    assert "502" in rebuilt.message


# --------------------------------------------------------------------- #
# Job payload validation and the job model
# --------------------------------------------------------------------- #
def test_validate_payload_rejects_junk():
    with pytest.raises(InvalidSpecError):
        validate_job_payload(["not", "a", "dict"])
    with pytest.raises(InvalidSpecError):
        validate_job_payload({"specs": []})
    with pytest.raises(InvalidSpecError):
        validate_job_payload({"specs": [make_spec()], "nope": 1})
    with pytest.raises(InvalidSpecError):
        validate_job_payload({"specs": [make_spec()], "priority": 99})
    with pytest.raises(InvalidSpecError):
        validate_job_payload({"specs": [make_spec()], "priority": True})
    # Unhashable or mistyped values a JSON body can carry: each must be
    # a 400, never an exception escaping admission as a 500, and never
    # admitted to fail later in a worker.
    straggler = {"kind": "straggler", "time": 1.0, "duration": 1.0,
                 "factor": 2.0, "nodes": [0]}
    junk = [make_spec(preset=["kraken"]),
            make_spec(run_compression={"a": 1}),
            # An int label breaks the trace file name in the worker.
            make_spec(trace_label=5),
            # nvariables sets BluePrint's workload; on Kraken it would
            # silently swap BluePrint's subdomain in.
            make_spec(preset="kraken", ncores=48, nvariables=3)]
    # "false" is truthy: it would switch the scheduler on.
    for kind, strategy in (("damaris", {"compression": ["gzip"]}),
                           ("damaris", {"use_scheduler": "false"}),
                           ("collective", {"stripe_size": "big"}),
                           ("collective", {"stripe_size": 0}),
                           ("collective", {"stripe_size": -1})):
        junk.append(make_spec(kind=kind))
        junk[-1]["strategy"].update(strategy)
    for fault in ({"duration": math.inf}, {"time": math.inf},
                  {"time": math.nan}, {"factor": math.nan},
                  {"time": "soon"}, {"nodes": 5}):
        junk.append(make_spec(faults={"faults": [{**straggler, **fault}]}))
    for spec in junk:
        with pytest.raises(InvalidSpecError):
            validate_job_payload(json.loads(json.dumps({"specs": [spec]})))
    # A tenant names a quota and a token bucket: only a string does
    # (an unhashable one cannot key them, a number would split "5").
    for tenant in (["x"], {"a": 1}, 5, 1.5, True):
        with pytest.raises(InvalidSpecError):
            validate_job_payload({"specs": [make_spec()], "tenant": tenant})
    validate_job_payload({"specs": [make_spec()], "tenant": ""})


def test_validate_payload_pinpoints_bad_spec():
    bad = make_spec()
    bad["ncores"] = -1
    with pytest.raises(InvalidSpecError) as info:
        validate_job_payload({"specs": [make_spec(), bad]})
    assert info.value.details["spec_index"] == 1
    assert "specs[1]" in info.value.message


def test_job_progress_and_events():
    clock = FakeClock()
    job = Job(tenant="t", specs=[make_spec(seed=i) for i in range(3)],
              clock=clock)
    assert job.state == "queued"
    assert job.events[0]["kind"] == "queued"
    job.mark_running()
    job.record_result(1, {"run_time": 1.0}, "cache")
    job.record_result(0, {"run_time": 2.0}, "pool")
    snap = job.snapshot()
    assert snap["progress"] == {"done": 2, "total": 3, "cache_hits": 1,
                                "computed": 1}
    job.record_result(2, {"run_time": 3.0}, "pool")
    job.finish("done")
    kinds = [e["kind"] for e in job.events]
    assert kinds == ["queued", "started", "progress", "progress",
                     "progress", "done"]
    seqs = [e["seq"] for e in job.events]
    assert seqs == list(range(len(job.events)))
    dones = [e["done"] for e in job.events if e["kind"] == "progress"]
    assert dones == [1, 2, 3]  # strictly monotonic
    assert job.events_since(3) == job.events[4:]
    assert job.events_since(-5) == job.events


# --------------------------------------------------------------------- #
# Untrusted input: the HTTP reader and the payload validator
# --------------------------------------------------------------------- #
_REQUEST = (b"POST /v1/jobs?tenant=t HTTP/1.1\r\nHost: x\r\n"
            b"Content-Length: 13\r\n\r\n{\"specs\": []}")

_OVERSIZED = [
    b"GET / HTTP/1.1\r\nX-Big: " + b"a" * 40_000 + b"\r\n\r\n",
    b"GET / HTTP/1.1\r\nX-Big: " + b"a" * 70_000,
    b"POST / HTTP/1.1\r\nContent-Length: 99999999999\r\n\r\n",
]

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=12),
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(st.text(max_size=12), children,
                                        max_size=4)),
    max_leaves=16)


def _read(data):
    """``read_request`` over ``data`` then EOF; only a ``Request``,
    ``None`` or a 4xx ``HttpError`` may come out."""
    async def scenario():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        return await http.read_request(reader)

    try:
        request = run(scenario())
    except http.HttpError as exc:
        assert 400 <= exc.status < 500, exc.status
        return exc
    assert request is None or isinstance(request, http.Request)
    return request


@st.composite
def _submissions(draw):
    """A valid submission with up to three fields swapped for arbitrary
    JSON, so the fuzz reaches the spec, strategy and fault checks."""
    fault = {"kind": "straggler", "time": 1.0, "duration": 1.0,
             "factor": 2.0, "nodes": [0]}
    spec = make_spec(kind="collective", faults={"faults": [fault]})
    payload = {"specs": [spec], "priority": 0, "label": "", "tenant": "t"}
    slots = ([(payload, key) for key in list(payload)]
             + [(spec, key) for key in list(spec)]
             + [(spec["strategy"], key)
                for key in ("kind", "compression", "stripe_size")]
             + [(spec["faults"], "faults")]
             + [(fault, key) for key in list(fault)])
    for container, key in draw(st.lists(st.sampled_from(slots),
                                        max_size=3)):
        container[key] = draw(_JSON)
    return payload


def test_read_request_parses_a_whole_request():
    request = _read(_REQUEST)
    assert isinstance(request, http.Request)
    assert (request.method, request.path) == ("POST", "/v1/jobs")
    assert request.query == {"tenant": "t"}
    assert request.json() == {"specs": []}
    assert _read(b"") is None
    for data in _OVERSIZED:
        assert _read(data).status == 413
    assert _read(b"GET //[x HTTP/1.1\r\n\r\n").status == 400


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.binary(max_size=256),
    st.integers(0, len(_REQUEST)).map(lambda cut: _REQUEST[:cut]),
    st.tuples(st.integers(0, len(_REQUEST)), st.binary(max_size=32))
    .map(lambda cut: _REQUEST[:cut[0]] + cut[1] + _REQUEST[cut[0]:]),
    st.tuples(st.sampled_from(["", "/", "//", "http://"]),
              st.text("/[]:?#%@&=a ", max_size=16))
    .map(lambda target: f"GET {''.join(target)} HTTP/1.1\r\n\r\n"
         .encode()),
    st.sampled_from(_OVERSIZED)))
def test_read_request_fuzz(data):
    _read(data)


@settings(max_examples=300, deadline=None)
@given(st.one_of(_JSON, _submissions()))
def test_validate_payload_fuzz(payload):
    try:
        validate_job_payload(payload)
    except InvalidSpecError:
        pass


def test_validate_payload_deeply_nested_value():
    deep = []
    for _ in range(100_000):
        deep = [deep]
    with pytest.raises(InvalidSpecError, match="nested too deeply"):
        validate_job_payload({"specs": [make_spec(preset=deep)]})


def test_deeply_nested_json_body_is_a_400():
    service = SweepService(cache=False)
    request = http.Request("POST", "/v1/jobs", body=b"[" * 200_000)
    reply = run(service._dispatch(request))
    assert reply.startswith(b"HTTP/1.1 400 ")
    assert b"nested too deeply" in reply
