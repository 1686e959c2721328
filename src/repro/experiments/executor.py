"""Cache-aware sweep scheduler: a serial loop or one local process pool.

The figure drivers in :mod:`repro.experiments.figures` sweep many
independent ``(ncores, strategy)`` configurations; each one builds its
own :class:`~repro.des.core.Simulator` and machine from an explicit RNG
seed, so they can run in any order, in any process, and produce
bit-identical results. This module provides the scheduling:

- :class:`SweepTask` — a picklable unit of work (top-level function,
  positional args, keyword args, display label);
- :func:`run_sweep` — the cache-aware scheduler: tasks whose result is
  already in the content-addressed store (:mod:`repro.cache`) are
  returned instantly and never reach a worker; the remaining misses run
  in-process, or over one ``ProcessPoolExecutor`` when
  ``parallel``/``REPRO_PARALLEL`` asks for more than one worker and
  more than one task misses, and are written back as they complete.
  Results stream in **completion order** (one progress tick each, with
  the task's wall ``duration`` and ``worker`` origin) but are
  reassembled **by index**, so serial and pool runs return a
  bit-identical list.

Caching is off unless requested (an explicit
:class:`~repro.cache.ResultCache`, or ``REPRO_CACHE``). The cache-keyed
rows of :mod:`repro.config` (:func:`env_mode_context`) fold into every
key because task bodies read them; a ``REPRO_TRACE`` run bypasses the
cache entirely, since a hit would silently skip the trace files the
task is expected to emit.

Determinism contract: a task must not read or mutate shared state; all
randomness must come from seeds carried in its arguments. Every task in
``figures.py`` satisfies this by passing the seed down to
``PlatformPreset.build``.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Tuple, Union)

from repro import config
from repro.cache.store import ResultCache, cache_from_env

__all__ = ["SweepProgress", "SweepTask", "default_parallelism",
           "env_mode_context", "pool_chunksize", "resolve_cache_context",
           "run_sweep"]

#: Upper bound for a computed dispatch chunk: large enough to amortise
#: IPC, small enough to keep workers balanced.
_MAX_CHUNKSIZE = 16

#: One finished miss: ``(index, value, worker, duration)``.
_Outcome = Tuple[int, Any, str, float]


@dataclass(frozen=True)
class SweepTask:
    """One picklable unit of sweep work.

    ``fn`` must be a module-level callable (pickled by qualified name)
    and its arguments must be picklable; lambdas and closures will fail
    as soon as a parallel run is requested, so they are rejected upfront.
    """

    fn: Callable[..., Any]
    args: Tuple[Any, ...] = ()
    kwargs: Dict[str, Any] = field(default_factory=dict)
    label: str = ""

    def __post_init__(self) -> None:
        name = getattr(self.fn, "__name__", "")
        qualname = getattr(self.fn, "__qualname__", name)
        if name == "<lambda>" or "<locals>" in qualname:
            raise TypeError(
                f"SweepTask fn must be a module-level function, got "
                f"{qualname!r} (not picklable for process pools)")

    def run(self) -> Any:
        return self.fn(*self.args, **self.kwargs)


def default_parallelism() -> int:
    """Worker count requested via ``REPRO_PARALLEL`` (default 1); a
    malformed value warns and runs serially."""
    return config.get("REPRO_PARALLEL")


@dataclass(frozen=True)
class SweepProgress:
    """One progress tick of :func:`run_sweep`.

    ``done`` counts every finished task — cache hits, bypasses and
    computed results alike — through one accounting path, so a consumer
    always observes ``done`` advancing by exactly 1 per event, from 1
    to ``total``, regardless of how the hit/miss partition interleaves
    with parallel completion. ``index`` is the task's position in the
    submitted list; ``source`` says how the result was produced;
    ``worker`` names the execution site (``serial/<pid>``,
    ``pool/<pid>``, empty for cache hits) and ``duration`` is the
    task's wall time on that worker (0.0 for hits).
    """

    done: int
    total: int
    hits: int
    computed: int
    index: int
    source: str  # "cache" | "serial" | "pool"
    label: str = ""
    worker: str = ""
    duration: float = 0.0


def env_mode_context() -> Dict[str, Any]:
    """The resolved values of the config rows with a ``cache_key``,
    which task bodies read. (The unset kernel resolves per host; the two
    kernels are bit-identical, so its fold is only a guard.)"""
    from repro.des.kernels import resolve_kernel

    context = {knob.cache_key: config.get(knob.env)
               for knob in config.KNOBS.values() if knob.cache_key}
    context["repro_kernel"] = resolve_kernel(context["repro_kernel"])
    return context


def resolve_cache_context(store: ResultCache) -> Any:
    """The key context for this run: the store's own, else the env modes.

    A store constructed with an explicit ``context`` keeps it (tests
    pin contexts this way); one without gets the *current*
    :func:`env_mode_context` per call — never written back onto the
    store, so a long-lived cache follows environment-mode changes
    between sweeps instead of freezing the modes of its first use.
    """
    if store.context is not None:
        return store.context
    return env_mode_context()


def _resolve_cache(cache: Union[ResultCache, None, bool],
                   ) -> Optional[ResultCache]:
    if cache is False:
        return None
    if isinstance(cache, ResultCache):
        return cache
    return cache_from_env(context=env_mode_context())


def pool_chunksize(ntasks: int, workers: int) -> int:
    """Tasks per dispatch chunk for the process pool.

    One IPC round-trip per task dominates on large sweeps of fast
    tasks. Aim for ~4 chunks per worker (keeps the pool balanced when
    task durations vary) and cap the chunk at a fixed bound so a huge
    sweep still streams results.
    """
    if workers <= 1:
        return 1
    return max(1, min(_MAX_CHUNKSIZE, ntasks // (workers * 4)))


def _run_chunk(chunk: List[Tuple[int, SweepTask]]
               ) -> Tuple[int, List[Tuple[int, Any, float]]]:
    """Pool-side chunk runner: per-task values with wall durations."""
    out = []
    for index, task in chunk:
        start = time.perf_counter()
        value = task.run()
        out.append((index, value, time.perf_counter() - start))
    return os.getpid(), out


def _run_serial(pending: Sequence[Tuple[int, SweepTask]]
                ) -> Iterator[_Outcome]:
    worker = f"serial/{os.getpid()}"
    for index, task in pending:
        start = time.perf_counter()
        value = task.run()
        yield index, value, worker, time.perf_counter() - start


def _run_pool(pending: Sequence[Tuple[int, SweepTask]], workers: int,
              chunksize: Optional[int]) -> Iterator[_Outcome]:
    """Fan ``pending`` over one pool and yield chunk results in
    completion order (``submit`` + ``wait``, not ``map``: one slow early
    chunk must not hold back its finished peers' progress ticks and
    cache write-back)."""
    # Imported here so a serial sweep never loads the multiprocessing
    # machinery.
    from concurrent.futures import (FIRST_COMPLETED, ProcessPoolExecutor,
                                    wait)

    if chunksize is None:
        chunksize = pool_chunksize(len(pending), workers)
    chunksize = max(1, int(chunksize))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = {pool.submit(_run_chunk, pending[at:at + chunksize])
                   for at in range(0, len(pending), chunksize)}
        while futures:
            done, futures = wait(futures, return_when=FIRST_COMPLETED)
            for future in done:
                pid, outcomes = future.result()
                for index, value, duration in outcomes:
                    yield index, value, f"pool/{pid}", duration


def _trace_sweep(actor: str, trace_dir: str, total: int, hits: int,
                 computed: int, workers: int) -> None:
    # One "backend" event per sweep, appended to a single jsonl next to
    # the per-config trace files; tracereport --by backend feeds on it.
    from repro.observe.export import to_jsonl
    from repro.observe.tracer import Tracer

    tracer = Tracer()
    tracer.record_event(
        "backend", "sweep", actor, time=0.0,
        total=total, hits=hits, computed=computed, workers=workers)
    os.makedirs(trace_dir, exist_ok=True)
    path = os.path.join(trace_dir, "sweep-backend.jsonl")
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(to_jsonl(tracer))


def run_sweep(tasks: Iterable[SweepTask],
              parallel: Optional[int] = None,
              cache: Union[ResultCache, None, bool] = None,
              chunksize: Optional[int] = None,
              progress: Optional[Callable[[SweepProgress], None]] = None,
              ) -> List[Any]:
    """Run every task and return their results **in task order**.

    ``parallel=None`` consults :func:`default_parallelism`. The cache
    misses run serially in-process when one worker or a single miss
    makes a pool pure overhead; otherwise they fan over one
    ``ProcessPoolExecutor`` of ``min(parallel, misses)`` workers, in
    chunks of ``chunksize`` tasks (``None``: :func:`pool_chunksize`).
    Cache hits never reach a worker — with a fully warm cache no pool
    is spawned. A task that raises propagates its exception; the
    results already written back stay in the store and its index.

    ``cache=None`` consults the environment (``REPRO_CACHE`` /
    ``REPRO_CACHE_DIR``); ``cache=False`` forces caching off; an
    explicit :class:`~repro.cache.ResultCache` is used as-is — its
    ``context`` attribute is respected when set and **never mutated**
    (see :func:`resolve_cache_context`). Hits are returned without
    running the task; misses are executed and written back atomically
    *as each one completes* — a slow straggler cannot delay persisting
    its finished peers — then an LRU eviction pass bounds the store
    size. With ``REPRO_TRACE`` set every task is a *bypass*: trace
    files are a side effect a cache hit would skip, and the sweep
    appends one ``backend`` event to ``sweep-backend.jsonl`` there.

    ``progress`` is called once per finished task, in true completion
    order, with a :class:`SweepProgress` whose ``done`` counter is
    strictly monotonic: cache hits served in the parent and computed
    results are counted through the same accounting path, so totals can
    never be observed out of order however completion interleaves.
    Results are reassembled by task index, so the returned list is
    bit-identical between serial and pool runs of deterministic tasks.
    """
    task_list = list(tasks)
    total = len(task_list)
    workers = default_parallelism() if parallel is None \
        else max(1, int(parallel))
    store = _resolve_cache(cache)
    trace_dir = config.get("REPRO_TRACE")
    if store is not None and trace_dir:
        store.record_bypass(total)
        store.flush()
        store = None

    done = hits = computed_count = 0

    def _advance(index: int, source: str, label: str,
                 worker: str = "", duration: float = 0.0) -> None:
        # The single accounting path: every finished task — cache hit,
        # bypass or computed result — passes through here exactly once.
        nonlocal done, hits, computed_count
        done += 1
        if source == "cache":
            hits += 1
        else:
            computed_count += 1
        if progress is not None:
            progress(SweepProgress(
                done=done, total=total, hits=hits,
                computed=computed_count, index=index, source=source,
                label=label, worker=worker, duration=duration))

    results: List[Any] = [None] * total
    keys: Dict[int, Optional[str]] = {}
    if store is None:
        pending: List[Tuple[int, SweepTask]] = list(enumerate(task_list))
    else:
        context = resolve_cache_context(store)
        pending = []
        for i, task in enumerate(task_list):
            key = store.key_for(task.fn, task.args, task.kwargs,
                                context=context)
            if key is None:
                store.record_bypass()
                pending.append((i, task))
                continue
            hit, value = store.get(key)
            if hit:
                results[i] = value
                _advance(i, "cache", task.label)
            else:
                keys[i] = key
                pending.append((i, task))

    if pending:
        workers = min(workers, len(pending))
        if workers > 1:
            actor, source = "process", "pool"
            outcomes = _run_pool(pending, workers, chunksize)
        else:
            actor, source = "serial", "serial"
            outcomes = _run_serial(pending)
        sites = set()
        try:
            for index, value, worker, duration in outcomes:
                results[index] = value
                sites.add(worker)
                task = task_list[index]
                _advance(index, source, task.label, worker=worker,
                         duration=duration)
                key = keys.get(index)
                if key is not None:
                    store.put(key, value, meta={
                        "fn": f"{getattr(task.fn, '__module__', '?')}."
                              f"{getattr(task.fn, '__qualname__', '?')}",
                        "label": task.label,
                    })
        finally:
            outcomes.close()  # shut a pool down even if a consumer raised
            if store is not None:
                # Index what was written back, even when a task raised.
                store.flush()
        if trace_dir:
            _trace_sweep(actor, trace_dir, total, hits, computed_count,
                         len(sites))

    if store is not None:
        store.flush()
        if store.total_bytes() > store.max_bytes:
            store.evict()
            store.flush()
    return results
