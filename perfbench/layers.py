"""Outside-in per-layer tracing of the engine.

Nothing under ``src/`` knows about this module. :func:`install` wraps
each layer's entry points in place — public functions and methods, the
generator processes the event loop drives (through :class:`_LayerGen`,
which forwards ``send``/``throw``/``close``), and the two event-loop
callbacks of the bandwidth solver — and :func:`uninstall` puts the
originals back. It is only ever called in the traced run; the timed
runs execute the stock code.

Attribution is a per-thread stack of layer names. Entering a wrapper
charges the elapsed time since the last transition to the layer on top
of the stack, then pushes the wrapper's layer; leaving charges and pops.
Each layer's *self* time therefore excludes the layers it calls, and the
time spent with only the base entry on the stack is ``unattributed``, so
per thread the self times plus ``unattributed`` add up to the traced
wall exactly.

Counts and self times are aggregated in memory per job (a figure sweep
point or a service spec); spans are recorded only at coarse boundaries
(the job, ``PlatformPreset.build``, ``run_experiment``, ``Simulator.run``,
cache reads and writes) so that the hot event loop records none, and
are written out by the caller when the run ends.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import os
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["LayerTracer", "install", "uninstall", "TRACER",
           "traced_service_spec"]

#: Layers are named after their main module; time outside every layer
#: is charged to this name.
BASE = "unattributed"
#: The job the current code runs for. A context variable, so that each
#: of the service's concurrent job tasks keeps its own.
_JOB: contextvars.ContextVar = contextvars.ContextVar("perfbench_job",
                                                      default="")

# Module prefix → layer, first match wins. Used to attribute generator
# processes by the module that defines the generator function; repro
# modules outside every listed layer (the CM1 workload model, the
# fault injector, noise) are experiment set-up, charged to the harness.
_MODULE_LAYERS = (
    ("repro.des.bandwidth", "des.bandwidth"),
    ("repro.des.kernels", "des.bandwidth"),
    ("repro.des.partition", "des.bandwidth"),
    ("repro.des.shards", "des.bandwidth"),
    ("repro.des", "des.core"),
    ("repro.mpi", "mpi"),
    ("repro.storage", "storage"),
    ("repro.core", "core"),
    ("repro.formats", "core"),
    ("repro.cache", "cache"),
    ("repro.service", "service"),
    ("repro.experiments.backends", "service"),
    ("repro", "harness"),
)


def layer_of_module(name: str) -> Optional[str]:
    for prefix, layer in _MODULE_LAYERS:
        if name == prefix or name.startswith(prefix + "."):
            return layer
    return None


class _ThreadState:
    __slots__ = ("stack", "last", "self_s", "counts", "incl", "spans",
                 "span_stack", "networks")

    def __init__(self) -> None:
        self.stack: List[str] = [BASE]
        self.last = time.perf_counter()
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)
        self.incl: Dict[str, float] = defaultdict(float)
        self.spans: List[Tuple] = []
        self.span_stack: List[int] = []
        self.networks: List[Any] = []


class LayerTracer:
    """Per-thread layer clocks plus per-job aggregates and spans."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: List[_ThreadState] = []
        self.jobs: Dict[str, Dict[str, Any]] = {}
        self._span_ids = 0

    def reset(self) -> None:
        """Drop every aggregate; thread clocks restart now."""
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states = []
        self.jobs = {}

    def state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = _ThreadState()
            self._local.st = st
            with self._lock:
                self._states.append(st)
        return st

    # -- aggregation -------------------------------------------------- #
    def totals(self) -> Dict[str, Any]:
        """Counts, self times and inclusive timers summed over threads.

        Each thread's clock is first brought up to now, so per thread
        the self times (``unattributed`` included) add up to the time
        since that thread's first traced call.
        """
        now = time.perf_counter()
        counts: Dict[str, int] = defaultdict(int)
        self_s: Dict[str, float] = defaultdict(float)
        incl: Dict[str, float] = defaultdict(float)
        with self._lock:
            states = list(self._states)
        for st in states:
            _harvest_networks(st)
            st.self_s[st.stack[-1]] += now - st.last
            st.last = now
            for key, value in st.counts.items():
                counts[key] += value
            for key, value in st.self_s.items():
                self_s[key] += value
            for key, value in st.incl.items():
                incl[key] += value
        return {"counts": dict(counts), "self_s": dict(self_s),
                "incl": dict(incl)}

    def spans(self) -> List[Dict[str, Any]]:
        rows = []
        with self._lock:
            states = list(self._states)
        for st in states:
            for job, sid, parent, name, layer, start, end in st.spans:
                rows.append({"job": job, "span": sid, "parent": parent,
                             "name": name, "layer": layer,
                             "start": start, "end": end})
        rows.sort(key=lambda row: row["start"])
        return rows

    # -- job boundary ------------------------------------------------- #
    def run_job(self, job_id: str, fn: Callable[..., Any], *args: Any,
                **kwargs: Any) -> Any:
        """Run ``fn`` as one job: its counts and self times are stored
        under ``job_id`` as deltas, and it gets a root span."""
        st = self.state()
        _harvest_networks(st)
        before = (dict(st.counts), self._flush_self(st), dict(st.incl))
        token = _JOB.set(job_id)
        start = time.perf_counter()
        _enter(st, "harness")
        try:
            return _span_call(self, st, f"job:{job_id}", "harness", fn,
                              args, kwargs)
        finally:
            _leave(st)
            wall = time.perf_counter() - start
            _harvest_networks(st)
            counts = {k: v - before[0].get(k, 0)
                      for k, v in st.counts.items()
                      if v != before[0].get(k, 0)}
            after = self._flush_self(st)
            self_s = {k: v - before[1].get(k, 0.0)
                      for k, v in after.items()
                      if v != before[1].get(k, 0.0)}
            incl = {k: v - before[2].get(k, 0.0)
                    for k, v in st.incl.items()
                    if v != before[2].get(k, 0.0)}
            self.jobs[job_id] = {"wall_s": wall, "counts": counts,
                                 "self_s": self_s, "incl": incl}
            _JOB.reset(token)

    @staticmethod
    def _flush_self(st: _ThreadState) -> Dict[str, float]:
        now = time.perf_counter()
        st.self_s[st.stack[-1]] += now - st.last
        st.last = now
        return dict(st.self_s)


TRACER = LayerTracer()


def _harvest_networks(st: _ThreadState) -> None:
    """Fold finished networks' solver counters into the thread counts."""
    networks, st.networks = st.networks, []
    for net in networks:
        stats = net.solver_stats
        for name in ("recomputes", "flows_solved", "fast_grants"):
            st.counts["solver." + name] += int(stats[name])


def _span_call(tracer: LayerTracer, st: _ThreadState, name: str,
               layer: str, fn: Callable[..., Any], args: Tuple,
               kwargs: Dict[str, Any]) -> Any:
    tracer._span_ids += 1
    sid = tracer._span_ids
    parent = st.span_stack[-1] if st.span_stack else 0
    st.span_stack.append(sid)
    start = time.perf_counter()
    try:
        return fn(*args, **kwargs)
    finally:
        st.span_stack.pop()
        st.spans.append((_JOB.get(), sid, parent, name, layer, start,
                         time.perf_counter()))


# ---------------------------------------------------------------------- #
# wrappers
# ---------------------------------------------------------------------- #
def _enter(st: _ThreadState, layer: str) -> None:
    now = time.perf_counter()
    st.self_s[st.stack[-1]] += now - st.last
    st.stack.append(layer)
    st.last = now


def _leave(st: _ThreadState) -> None:
    now = time.perf_counter()
    st.self_s[st.stack.pop()] += now - st.last
    st.last = now


class _LayerGen:
    """A generator stand-in that charges every resumption to a layer."""

    __slots__ = ("_gen", "_layer")

    def __init__(self, gen: Any, layer: str) -> None:
        self._gen = gen
        self._layer = layer

    def __iter__(self) -> "_LayerGen":
        return self

    def __next__(self) -> Any:
        return self.send(None)

    def send(self, value: Any) -> Any:
        st = TRACER.state()
        _enter(st, self._layer)
        try:
            return self._gen.send(value)
        finally:
            _leave(st)

    def throw(self, *exc: Any) -> Any:
        st = TRACER.state()
        _enter(st, self._layer)
        try:
            return self._gen.throw(*exc)
        finally:
            _leave(st)

    def close(self) -> None:
        st = TRACER.state()
        _enter(st, self._layer)
        try:
            self._gen.close()
        finally:
            _leave(st)


def _wrap(fn: Callable[..., Any], layer: str, count: Optional[str] = None,
          incl: Optional[str] = None, span: bool = False
          ) -> Callable[..., Any]:
    """``fn`` charged to ``layer``; generator functions return a
    :class:`_LayerGen` so the time is charged when the generator runs."""
    if inspect.isgeneratorfunction(fn):
        @functools.wraps(fn)
        def gen_wrapper(*args: Any, **kwargs: Any) -> Any:
            if count:
                TRACER.state().counts[count] += 1
            return _LayerGen(fn(*args, **kwargs), layer)
        return gen_wrapper

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        st = TRACER.state()
        if count:
            st.counts[count] += 1
        if st.stack[-1] == layer and not incl and not span:
            return fn(*args, **kwargs)  # nested in its own layer
        start = time.perf_counter()
        _enter(st, layer)
        try:
            if span:
                return _span_call(TRACER, st, fn.__qualname__, layer, fn,
                                  args, kwargs)
            return fn(*args, **kwargs)
        finally:
            _leave(st)
            if incl:
                st.incl[incl] += time.perf_counter() - start
    return wrapper


def _wrap_process_init(orig: Callable[..., Any]) -> Callable[..., Any]:
    files: Dict[str, str] = {}
    for name, module in list(sys.modules.items()):
        layer = layer_of_module(name)
        path = getattr(module, "__file__", None)
        if layer and path:
            files[path] = layer

    @functools.wraps(orig)
    def init(self: Any, sim: Any, generator: Any) -> None:
        TRACER.state().counts["des.core.processes"] += 1
        if not isinstance(generator, _LayerGen):
            code = getattr(generator, "gi_code", None)
            layer = files.get(code.co_filename, "harness") \
                if code is not None else "harness"
            generator = _LayerGen(generator, layer)
        orig(self, sim, generator)
    return init


def _wrap_network_init(orig: Callable[..., Any]) -> Callable[..., Any]:
    @functools.wraps(orig)
    def init(self: Any, *args: Any, **kwargs: Any) -> None:
        orig(self, *args, **kwargs)
        TRACER.state().networks.append(self)
    return init


def _wrap_tick(orig: Callable[..., Any]) -> Callable[..., Any]:
    # A completion tick is useful when it leads to a recompute; an early
    # tick only re-arms itself.
    @functools.wraps(orig)
    def tick(self: Any) -> None:
        st = TRACER.state()
        st.counts["des.bandwidth.ticks"] += 1
        before = st.counts["des.bandwidth.recompute_calls"]
        _enter(st, "des.bandwidth")
        try:
            orig(self)
        finally:
            _leave(st)
            if st.counts["des.bandwidth.recompute_calls"] != before:
                st.counts["des.bandwidth.ticks_useful"] += 1
    return tick


def _wrap_cache_get(orig: Callable[..., Any]) -> Callable[..., Any]:
    wrapped = _wrap(orig, "cache", incl="cache.get_s", span=True)

    @functools.wraps(orig)
    def get(self: Any, key: str) -> Any:
        hit, value = wrapped(self, key)
        TRACER.state().counts["cache.hits" if hit else "cache.misses"] += 1
        return hit, value
    return get


def _wrap_service_job(orig: Callable[..., Any]) -> Callable[..., Any]:
    # Each service job executes as its own task, so the job id set here
    # tags the cache reads and writes made on its behalf.
    @functools.wraps(orig)
    async def execute(self: Any, job: Any) -> None:
        token = _JOB.set(job.job_id)
        try:
            await orig(self, job)
        finally:
            _JOB.reset(token)
    return execute


_MPI_COLLECTIVES = ("barrier", "bcast", "gather", "allgather", "reduce",
                    "allreduce", "alltoallv")
_MPIIO = ("collective_open", "collective_write", "collective_write_direct",
          "collective_close")


def _targets() -> List[Tuple[Any, str, Callable[[Callable], Callable]]]:
    from repro.cache import store
    from repro.core import api, client, server, shm
    from repro.des import bandwidth, core, process, resources
    from repro.experiments import harness, platforms, specs
    from repro.mpi import comm, mpiio
    from repro.service import server as service
    from repro.storage import disk, filesystem, locks, metadata
    from repro.strategies import collective

    def w(layer: str, **opts: Any) -> Callable[[Callable], Callable]:
        return lambda fn: _wrap(fn, layer, **opts)

    sim = core.Simulator
    net = bandwidth.FlowNetwork
    out: List[Tuple[Any, str, Callable[[Callable], Callable]]] = [
        # des.core: the event loop and the primitives models call.
        (sim, "step", w("des.core", count="des.core.events")),
        (sim, "run", w("des.core", span=True)),
        (sim, "run_until_complete", w("des.core", span=True)),
        (sim, "timeout", w("des.core")),
        (sim, "event", w("des.core")),
        (sim, "call_later", w("des.core")),
        (sim, "call_at", w("des.core")),
        (sim, "schedule_callback", w("des.core")),
        (sim, "schedule_callback_at", w("des.core")),
        (core.Event, "succeed", w("des.core")),
        (core.Event, "fail", w("des.core")),
        (process.Process, "__init__", _wrap_process_init),
        (process._Condition, "__init__", w("des.core")),
        (resources.Resource, "request", w("des.core")),
        (resources.Resource, "release", w("des.core")),
        (resources.PriorityResource, "request", w("des.core")),
        (resources.PriorityResource, "release", w("des.core")),
        (resources.Store, "put", w("des.core")),
        (resources.Store, "get", w("des.core")),
        # des.bandwidth: flow arrivals, capacity changes, and the two
        # callbacks the event loop schedules (looked up on the instance
        # when scheduled, so patching the class reaches them).
        (net, "__init__", _wrap_network_init),
        (net, "transfer", w("des.bandwidth",
                            count="des.bandwidth.flows")),
        (net, "_recompute", w("des.bandwidth",
                              count="des.bandwidth.recompute_calls")),
        (net, "_on_completion_tick", _wrap_tick),
        (net, "add_capacity", w("des.bandwidth")),
        (bandwidth.Flow, "cancel", w("des.bandwidth")),
        (bandwidth.LinkCapacity, "set_capacity", w("des.bandwidth")),
        # mpi
        *[(comm.Communicator, name, w("mpi", count="mpi.collectives"))
          for name in _MPI_COLLECTIVES],
        (comm.Communicator, "send", w("mpi", count="mpi.p2p")),
        (comm.Communicator, "recv", w("mpi", count="mpi.p2p")),
        *[(module, name, w("mpi", count="mpi.collectives"))
          for module in (mpiio, collective) for name in _MPIIO],
        # storage
        (filesystem.ParallelFileSystem, "create",
         w("storage", count="storage.files_created")),
        *[(filesystem.ParallelFileSystem, name, w("storage"))
          for name in ("open", "close", "unlink", "write", "read")],
        (metadata.MetadataServer, "operate",
         w("storage", count="storage.metadata_ops")),
        (locks.ExtentLockManager, "acquire",
         w("storage", count="storage.lock_acquires")),
        (locks.ExtentLockManager, "acquire_expansive",
         w("storage", count="storage.lock_acquires")),
        *[(disk.StorageTarget, name, w("storage"))
          for name in ("write_segment", "read_segment", "set_interference",
                       "set_fault_factor")],
        # core: the Damaris client / dedicated-core server / shm model
        (client.DamarisClient, "df_write", w("core", count="core.writes")),
        *[(client.DamarisClient, name, w("core"))
          for name in ("dc_alloc", "dc_commit", "df_signal",
                       "df_finalize")],
        (server.DedicatedCoreServer, "persist_iteration",
         w("core", count="core.persists")),
        *[(server.DedicatedCoreServer, name, w("core"))
          for name in ("run", "_on_write", "compress_iteration",
                       "drop_buffered", "release_iteration",
                       "wait_for_free")],
        (api.DamarisDeployment, "start", w("core")),
        (api.DamarisDeployment, "signal", w("core")),
        (shm.SharedMemorySegment, "allocate", w("core")),
        (shm.SharedMemorySegment, "free", w("core")),
        # harness: machine build and the experiment driver
        (platforms.PlatformPreset, "build",
         w("harness", incl="harness.build_s", span=True)),
        (harness, "run_experiment", w("harness", span=True)),
        (specs, "run_experiment", w("harness", span=True)),
        # cache
        (store.ResultCache, "get", _wrap_cache_get),
        (store.ResultCache, "put",
         w("cache", incl="cache.put_s", span=True)),
        (store.ResultCache, "key_for", w("cache")),
        (store.ResultCache, "flush", w("cache")),
        # service: the job boundary
        (service.SweepService, "_execute_job", _wrap_service_job),
    ]
    # Subclasses that override a patched storage method get it too.
    for cls in _subclasses(filesystem.ParallelFileSystem):
        for name in ("create", "open", "close", "unlink", "write", "read"):
            if name in vars(cls):
                count = "storage.files_created" if name == "create" \
                    else None
                out.append((cls, name, w("storage", count=count)))
    return out


def _subclasses(cls: type) -> List[type]:
    found = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_subclasses(sub))
    return found


_saved: List[Tuple[Any, str, Any]] = []
_fork_hook: List[bool] = []


def install() -> None:
    """Wrap every layer entry point (idempotent)."""
    if _saved:
        return
    for owner, name, make in _targets():
        original = owner.__dict__[name] if isinstance(owner, type) \
            else getattr(owner, name)
        _saved.append((owner, name, original))
        setattr(owner, name, make(original))
    TRACER.reset()
    if not _fork_hook:
        # A forked pool worker starts with empty aggregates.
        os.register_at_fork(after_in_child=TRACER.reset)
        _fork_hook.append(True)


def uninstall() -> None:
    while _saved:
        owner, name, original = _saved.pop()
        setattr(owner, name, original)


def spec_digest(spec: Dict[str, Any]) -> str:
    """The id of the job a pool worker runs for one service spec."""
    import hashlib
    import json

    return hashlib.blake2b(json.dumps(spec, sort_keys=True).encode(),
                           digest_size=8).hexdigest()


def traced_service_spec(spec: Dict[str, Any]) -> Dict[str, Any]:
    """The service's pool runner with the engine traced.

    Runs :func:`repro.service.worker.run_service_spec` unchanged as one
    job and writes that job's aggregates to ``PERFBENCH_TRACE_DIR``
    (named by the spec digest), since the pool worker's memory is not
    the benchmark's. The returned payload is the stock one.
    """
    import json

    from repro.service.worker import run_service_spec

    install()
    digest = spec_digest(spec)
    payload = TRACER.run_job(digest, run_service_spec, spec)
    job = dict(TRACER.jobs.pop(digest))
    job["spans"] = [s for s in TRACER.spans() if s["job"] == digest]
    for st in list(TRACER._states):
        st.spans.clear()
    path = os.path.join(os.environ["PERFBENCH_TRACE_DIR"],
                        f"{digest}-{os.getpid()}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(job, fh)
    return payload
