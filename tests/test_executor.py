"""Tests for the cache-aware sweep executor and driver determinism."""

import concurrent.futures
import os
import subprocess
import sys
import time
import uuid
import warnings

import pytest

from repro.cache import ResultCache
from repro.experiments import figures
from repro.experiments.executor import (
    SweepTask,
    _run_pool,
    _run_serial,
    default_parallelism,
    env_mode_context,
    pool_chunksize,
    resolve_cache_context,
    run_sweep,
)
from repro.observe.export import load_jsonl
from repro.tools.tracereport import main as tracereport_main


def _square(x):
    return x * x


def _fail_on_two(x):
    if x == 2:
        raise ValueError(f"task {x} failed")
    return x * x


def _fail_on_two_late(x):
    """Like :func:`_fail_on_two`, but task 2 raises only after a pause,
    so a pool has written its fast peers back by then."""
    if x == 2:
        time.sleep(0.5)
    return _fail_on_two(x)


def _sleep_value(duration, value):
    time.sleep(duration)
    return value


def _pid_and_value(x):
    return (os.getpid(), x)


def _record_call(x, marker_dir):
    """Leave one unique marker file per invocation (worker-safe)."""
    path = os.path.join(marker_dir, f"{uuid.uuid4().hex}.call")
    with open(path, "w", encoding="utf-8"):
        pass
    return x * 10


def _calls(marker_dir):
    return len([name for name in os.listdir(marker_dir)
                if name.endswith(".call")])


def _type_name(x):
    return type(x).__name__


class TestDefaultParallelism:
    def test_unset_means_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_PARALLEL", raising=False)
        assert default_parallelism() == 1

    def test_env_value(self, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLEL", "4")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a valid value must not warn
            assert default_parallelism() == 4

    def test_garbage_warns_and_falls_back_to_serial(self, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLEL", "eight")
        with pytest.warns(RuntimeWarning, match="'eight'"):
            assert default_parallelism() == 1

    def test_negative_warns_and_falls_back_to_serial(self, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLEL", "-2")
        with pytest.warns(RuntimeWarning, match="'-2'"):
            assert default_parallelism() == 1

    def test_zero_warns_and_falls_back_to_serial(self, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLEL", "0")
        with pytest.warns(RuntimeWarning, match="'0'"):
            assert default_parallelism() == 1


class TestPoolChunksize:
    def test_serial_is_one(self):
        assert pool_chunksize(1000, 1) == 1

    def test_small_sweep_stays_fine_grained(self):
        assert pool_chunksize(10, 4) == 1

    def test_large_sweep_amortises_ipc(self):
        assert pool_chunksize(256, 4) == 16

    def test_capped(self):
        assert pool_chunksize(100000, 2) == 16

    def test_chunked_results_identical_to_unchunked(self):
        tasks = [SweepTask(_square, (i,)) for i in range(40)]
        unchunked = run_sweep(tasks, parallel=3, cache=False, chunksize=1)
        chunked = run_sweep(tasks, parallel=3, cache=False, chunksize=7)
        auto = run_sweep(tasks, parallel=3, cache=False)
        assert unchunked == chunked == auto == [i * i for i in range(40)]


class TestSweepTask:
    def test_lambda_rejected(self):
        with pytest.raises(TypeError):
            SweepTask(lambda: 1)

    def test_nested_function_rejected(self):
        def local():
            return 1

        with pytest.raises(TypeError):
            SweepTask(local)

    def test_run(self):
        assert SweepTask(_square, (3,)).run() == 9


class TestRunSweep:
    def test_serial_preserves_order(self):
        tasks = [SweepTask(_square, (i,)) for i in range(10)]
        assert run_sweep(tasks, parallel=1) == [i * i for i in range(10)]

    def test_parallel_preserves_order(self):
        tasks = [SweepTask(_square, (i,)) for i in range(10)]
        assert run_sweep(tasks, parallel=3) == [i * i for i in range(10)]

    def test_parallel_uses_worker_processes(self):
        tasks = [SweepTask(_pid_and_value, (i,)) for i in range(4)]
        results = run_sweep(tasks, parallel=2)
        assert [value for _pid, value in results] == [0, 1, 2, 3]
        assert all(pid != os.getpid() for pid, _value in results)

    def test_empty_sweep(self):
        assert run_sweep([]) == []

    def test_serial_sweep_never_loads_the_pool_machinery(self):
        code = ("import sys\n"
                "from repro.experiments import figures\n"
                "from repro.experiments.executor import SweepTask, run_sweep\n"
                "assert run_sweep([SweepTask(abs, (-2,))] * 2, parallel=1,"
                " cache=False) == [2, 2]\n"
                "assert 'concurrent.futures.process' not in sys.modules\n")
        subprocess.run([sys.executable, "-c", code], check=True,
                       timeout=120)

    @pytest.mark.parametrize("parallel", [1, 2], ids=["serial", "pool"])
    def test_task_error_propagates(self, tmp_path, monkeypatch, parallel):
        # The task's own exception reaches the caller from either path;
        # serially, the points before it are already in the store.
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        cache = ResultCache(str(tmp_path / "cache"), fingerprint="fp")
        tasks = [SweepTask(_fail_on_two, (i,)) for i in range(4)]
        with pytest.raises(ValueError, match="task 2 failed"):
            run_sweep(tasks, parallel=parallel, cache=cache, chunksize=1)
        if parallel == 1:
            assert cache.stats.writes == 2
            assert run_sweep(tasks[:2], parallel=1, cache=cache) == [0, 1]
            assert cache.stats.hits == 2

    @pytest.mark.parametrize("parallel", [1, 2], ids=["serial", "pool"])
    def test_index_flushed_when_a_task_raises(self, tmp_path, monkeypatch,
                                              parallel):
        # The points written back before a task raised are in the
        # store's advisory index and run totals, not only on disk.
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        root = str(tmp_path / "cache")
        cache = ResultCache(root, fingerprint="fp")
        tasks = [SweepTask(_fail_on_two_late, (i,)) for i in range(4)]
        with pytest.raises(ValueError, match="task 2 failed"):
            run_sweep(tasks, parallel=parallel, cache=cache, chunksize=1)
        reopened = ResultCache(root, fingerprint="fp")
        on_disk = sorted(info.key for info in reopened.entries())
        assert len(on_disk) >= 2
        assert sorted(reopened.load_index()["entries"]) == on_disk
        totals = reopened.totals()
        assert totals["misses"] == 4
        assert totals["writes"] == len(on_disk)

    def test_env_default_applies(self, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLEL", "2")
        tasks = [SweepTask(_pid_and_value, (i,)) for i in range(2)]
        results = run_sweep(tasks)
        assert all(pid != os.getpid() for pid, _value in results)


class TestDispatch:
    """The two paths ``run_sweep`` dispatches its cache misses to,
    driven directly."""

    def test_serial_outcomes(self):
        pending = [(i, SweepTask(_square, (i,))) for i in range(4)]
        outcomes = list(_run_serial(pending))
        assert [index for index, _, _, _ in outcomes] == [0, 1, 2, 3]
        assert [value for _, value, _, _ in outcomes] == [0, 1, 4, 9]
        assert all(worker == f"serial/{os.getpid()}"
                   for _, _, worker, _ in outcomes)
        assert all(duration >= 0.0 for _, _, _, duration in outcomes)

    def test_head_of_line_completion_order(self):
        # Regression: map() yielded in submission order, so the slow
        # first task held back every later completion. The pool path
        # must yield the fast tasks before the straggler finishes.
        pending = [(0, SweepTask(_sleep_value, (1.0, "slow")))]
        pending += [(i, SweepTask(_sleep_value, (0.0, f"fast{i}")))
                    for i in range(1, 6)]
        outcomes = list(_run_pool(pending, 2, chunksize=1))
        order = [index for index, _, _, _ in outcomes]
        assert order[-1] == 0, f"straggler should finish last: {order}"
        assert sorted(order) == list(range(6))
        assert {index: value for index, value, _, _ in outcomes} == {
            0: "slow", **{i: f"fast{i}" for i in range(1, 6)}}
        assert all(worker.startswith("pool/")
                   for _, _, worker, _ in outcomes)


class TestRunSweepCache:
    """The cache-aware scheduler: hits skip execution, misses write back."""

    def _cache(self, tmp_path):
        return ResultCache(str(tmp_path / "cache"), fingerprint="test-fp")

    def _tasks(self, tmp_path, n=6):
        marker = tmp_path / "markers"
        marker.mkdir(exist_ok=True)
        return ([SweepTask(_record_call, (i, str(marker))) for i in range(n)],
                str(marker))

    def test_warm_run_recomputes_nothing(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        cache = self._cache(tmp_path)
        tasks, marker = self._tasks(tmp_path)
        cold = run_sweep(tasks, parallel=1, cache=cache)
        assert _calls(marker) == 6
        assert cache.stats.misses == 6 and cache.stats.writes == 6
        warm = run_sweep(tasks, parallel=1, cache=cache)
        assert _calls(marker) == 6  # nothing recomputed
        assert cache.stats.hits == 6
        assert warm == cold == [i * 10 for i in range(6)]

    def test_warm_parallel_matches_cold_serial(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        cache = self._cache(tmp_path)
        tasks, marker = self._tasks(tmp_path)
        cold = run_sweep(tasks, parallel=2, cache=cache)
        assert _calls(marker) == 6
        warm = run_sweep(tasks, parallel=2, cache=cache)
        assert _calls(marker) == 6
        assert warm == cold

    def test_partial_invalidation_only_recomputes_changed(self, tmp_path,
                                                          monkeypatch):
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        cache = self._cache(tmp_path)
        tasks, marker = self._tasks(tmp_path)
        run_sweep(tasks, parallel=1, cache=cache)
        # One new point (the incremental-figure workflow): only it runs.
        extra_marker = tmp_path / "markers"
        tasks.append(SweepTask(_record_call, (99, str(extra_marker))))
        results = run_sweep(tasks, parallel=1, cache=cache)
        assert _calls(marker) == 7
        assert results == [i * 10 for i in range(6)] + [990]

    def test_fingerprint_change_invalidates_everything(self, tmp_path,
                                                       monkeypatch):
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        tasks, marker = self._tasks(tmp_path)
        old = ResultCache(str(tmp_path / "cache"), fingerprint="model-v1")
        run_sweep(tasks, parallel=1, cache=old)
        assert _calls(marker) == 6
        new = ResultCache(str(tmp_path / "cache"), fingerprint="model-v2")
        run_sweep(tasks, parallel=1, cache=new)
        assert _calls(marker) == 12  # a stale entry is never served
        assert new.stats.hits == 0 and new.stats.misses == 6

    def test_corrupt_entry_recomputed(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        cache = self._cache(tmp_path)
        tasks, marker = self._tasks(tmp_path, n=1)
        run_sweep(tasks, parallel=1, cache=cache)
        # The store's own context stays None (run_sweep never mutates
        # it); reproducing the sweep's key needs the same context the
        # executor resolved.
        key = cache.key_for(tasks[0].fn, tasks[0].args, tasks[0].kwargs,
                            context=resolve_cache_context(cache))
        with open(cache.entry_path(key), "r+b") as fh:
            fh.truncate(10)
        results = run_sweep(tasks, parallel=1, cache=cache)
        assert results == [0]
        assert _calls(marker) == 2
        assert cache.stats.corrupt == 1

    def test_trace_run_bypasses_cache(self, tmp_path, monkeypatch):
        cache = self._cache(tmp_path)
        tasks, marker = self._tasks(tmp_path, n=2)
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        run_sweep(tasks, parallel=1, cache=cache)
        assert _calls(marker) == 2
        monkeypatch.setenv("REPRO_TRACE", str(tmp_path / "traces"))
        run_sweep(tasks, parallel=1, cache=cache)
        assert _calls(marker) == 4  # cache not consulted under tracing
        assert cache.stats.bypasses == 2

    def test_uncacheable_args_bypass_not_crash(self, tmp_path, monkeypatch):
        # An argument the canonical encoder refuses (here a raw object())
        # must run the task every time, counted as a bypass — mixed into
        # the same sweep as cacheable tasks.
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        cache = self._cache(tmp_path)
        tasks = [SweepTask(_type_name, (object(),)), SweepTask(_square, (4,))]
        first = run_sweep(tasks, parallel=1, cache=cache)
        second = run_sweep(tasks, parallel=1, cache=cache)
        assert first == second == ["object", 16]
        assert cache.stats.bypasses == 2  # the object() task, both runs
        assert cache.stats.hits == 1      # the square task, second run

    def test_env_resolution(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        monkeypatch.setenv("REPRO_CACHE", "1")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "envcache"))
        tasks, marker = self._tasks(tmp_path, n=3)
        run_sweep(tasks, parallel=1)
        run_sweep(tasks, parallel=1)
        assert _calls(marker) == 3
        store = ResultCache(str(tmp_path / "envcache"))
        assert store.totals()["hits"] == 3
        assert store.totals()["misses"] == 3

    def test_cache_false_forces_off(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        monkeypatch.setenv("REPRO_CACHE", "1")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "envcache"))
        tasks, marker = self._tasks(tmp_path, n=2)
        run_sweep(tasks, parallel=1, cache=False)
        run_sweep(tasks, parallel=1, cache=False)
        assert _calls(marker) == 4

    def test_warm_cache_never_creates_a_pool(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        cache = self._cache(tmp_path)
        tasks = [SweepTask(_square, (i,)) for i in range(3)]
        cold = run_sweep(tasks, parallel=1, cache=cache)

        def no_pool(*args, **kwargs):
            raise AssertionError("process pool created on a warm sweep")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            no_pool)
        warm = run_sweep(tasks, parallel=2, cache=cache)
        assert warm == cold
        assert cache.stats.hits == 3

    def test_cache_context_not_mutated(self, tmp_path, monkeypatch):
        # Regression: _resolve_cache used to assign cache.context in
        # place, freezing the first call's env modes into a reused
        # store. The store's context must survive untouched...
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        cache = self._cache(tmp_path)
        run_sweep([SweepTask(_square, (1,))], parallel=1, cache=cache)
        assert cache.context is None
        # ...and an explicit context must be respected, not replaced.
        pinned = ResultCache(str(tmp_path / "cache2"), fingerprint="fp",
                             context={"pinned": True})
        run_sweep([SweepTask(_square, (1,))], parallel=1, cache=pinned)
        assert pinned.context == {"pinned": True}
        assert resolve_cache_context(pinned) == {"pinned": True}

    def test_context_follows_env_between_sweeps(self, tmp_path,
                                                monkeypatch):
        # Flipping a mode knob between sweeps over one long-lived store
        # must change the keys (miss), not serve the other mode's
        # results (hit).
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        monkeypatch.delenv("REPRO_FAST", raising=False)
        cache = self._cache(tmp_path)
        tasks = [SweepTask(_square, (i,)) for i in range(2)]
        run_sweep(tasks, parallel=1, cache=cache)
        assert cache.stats.misses == 2
        monkeypatch.setenv("REPRO_FAST", "1")
        assert resolve_cache_context(cache) == env_mode_context()
        run_sweep(tasks, parallel=1, cache=cache)
        assert cache.stats.misses == 4, \
            "REPRO_FAST flip must invalidate, not hit"
        run_sweep(tasks, parallel=1, cache=cache)
        assert cache.stats.hits == 2


class TestDriverDeterminism:
    """Same seed ⇒ bit-identical figure output, serial vs parallel."""

    def test_fig2_serial_vs_parallel(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAST", "1")
        monkeypatch.delenv("REPRO_PARALLEL", raising=False)
        serial = figures.fig2_write_phase_kraken(scales=(48,))
        monkeypatch.setenv("REPRO_PARALLEL", "2")
        parallel = figures.fig2_write_phase_kraken(scales=(48,))
        assert repr(serial.rows) == repr(parallel.rows)
        assert repr(serial.notes) == repr(parallel.notes)

    def test_fig2_same_seed_bit_identical(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAST", "1")
        monkeypatch.delenv("REPRO_PARALLEL", raising=False)
        first = figures.fig2_write_phase_kraken(scales=(48,), seed=7)
        second = figures.fig2_write_phase_kraken(scales=(48,), seed=7)
        assert repr(first.rows) == repr(second.rows)

    def test_fig2_seed_changes_output(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAST", "1")
        monkeypatch.delenv("REPRO_PARALLEL", raising=False)
        first = figures.fig2_write_phase_kraken(scales=(48,), seed=7)
        second = figures.fig2_write_phase_kraken(scales=(48,), seed=8)
        assert repr(first.rows) != repr(second.rows)

    def test_fig2_cold_warm_serial_parallel_bit_identical(self, monkeypatch,
                                                          tmp_path):
        """The acceptance matrix: cold, warm, serial and parallel runs of
        one figure all produce byte-for-byte the same report."""
        monkeypatch.setenv("REPRO_FAST", "1")
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        monkeypatch.delenv("REPRO_PARALLEL", raising=False)
        monkeypatch.setenv("REPRO_CACHE", "1")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        cold = figures.fig2_write_phase_kraken(scales=(48,))
        warm = figures.fig2_write_phase_kraken(scales=(48,))
        monkeypatch.setenv("REPRO_PARALLEL", "2")
        warm_parallel = figures.fig2_write_phase_kraken(scales=(48,))
        monkeypatch.setenv("REPRO_CACHE", "0")
        uncached_parallel = figures.fig2_write_phase_kraken(scales=(48,))
        assert repr(cold.rows) == repr(warm.rows) \
            == repr(warm_parallel.rows) == repr(uncached_parallel.rows)
        assert repr(cold.notes) == repr(warm.notes) \
            == repr(warm_parallel.notes) == repr(uncached_parallel.notes)
        store = ResultCache(str(tmp_path / "cache"))
        assert store.totals()["misses"] == 4   # the cold run only
        assert store.totals()["hits"] == 8     # two fully warm runs

    def test_fig2_fast_mode_keys_do_not_collide(self, monkeypatch, tmp_path):
        """REPRO_FAST is read inside the task body, so it must be part of
        the cache key: a fast-mode result must never satisfy a full-mode
        lookup of the same spec."""
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        monkeypatch.delenv("REPRO_PARALLEL", raising=False)
        monkeypatch.setenv("REPRO_CACHE", "1")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.setenv("REPRO_FAST", "1")
        fast = figures.fig2_write_phase_kraken(scales=(48,))
        monkeypatch.setenv("REPRO_FAST", "0")
        full = figures.fig2_write_phase_kraken(scales=(48,))
        store = ResultCache(str(tmp_path / "cache"))
        assert store.totals()["hits"] == 0  # no cross-mode contamination
        assert store.totals()["misses"] == 8
        # fast mode runs 1 write phase, full mode 2: results must differ.
        assert repr(fast.rows) != repr(full.rows)


class TestSweepProgress:
    """Regression: cache hits and pool results feed one accounting path,
    so progress events are strictly monotonic however tasks resolve."""

    def _run(self, tasks, **kwargs):
        events = []
        results = run_sweep(tasks, progress=events.append, **kwargs)
        return results, events

    def _assert_single_path(self, events, total):
        # one event per finished task, `done` strictly monotonic from 1,
        # and the per-source counters always reconcile with `done`
        assert [e.done for e in events] == list(range(1, total + 1))
        for e in events:
            assert e.hits + e.computed == e.done
            assert e.total == total
            assert e.source in ("cache", "pool", "serial")
        assert sorted(e.index for e in events) == list(range(total))

    def test_progress_serial_no_cache(self):
        tasks = [SweepTask(_square, (i,)) for i in range(5)]
        results, events = self._run(tasks, parallel=1, cache=False)
        assert results == [i * i for i in range(5)]
        self._assert_single_path(events, 5)
        assert all(e.source == "serial" for e in events)
        assert events[-1].hits == 0 and events[-1].computed == 5

    def test_progress_parallel_no_cache(self):
        tasks = [SweepTask(_square, (i,)) for i in range(6)]
        results, events = self._run(tasks, parallel=2, cache=False)
        assert results == [i * i for i in range(6)]
        self._assert_single_path(events, 6)
        assert all(e.source == "pool" for e in events)

    def test_progress_mixed_hits_and_misses(self, tmp_path):
        cache = ResultCache(str(tmp_path / "store"))
        warm = [SweepTask(_square, (i,), label=f"t{i}") for i in range(3)]
        self._run(warm, parallel=1, cache=cache)
        # 3 cached + 3 cold tasks: hits emit during partition, misses
        # stream from the pool — both through the same counter
        mixed = [SweepTask(_square, (i,), label=f"t{i}") for i in range(6)]
        results, events = self._run(mixed, parallel=2, cache=cache)
        assert results == [i * i for i in range(6)]
        self._assert_single_path(events, 6)
        assert events[-1].hits == 3 and events[-1].computed == 3
        # the three hits are emitted first (admission-time short-circuit)
        assert [e.source for e in events[:3]] == ["cache"] * 3
        assert {e.source for e in events[3:]} == {"pool"}
        assert [e.label for e in events[:3]] == ["t0", "t1", "t2"]

    def test_progress_all_hits_never_touches_pool(self, tmp_path):
        cache = ResultCache(str(tmp_path / "store"))
        tasks = [SweepTask(_square, (i,)) for i in range(4)]
        self._run(tasks, parallel=1, cache=cache)
        results, events = self._run(
            [SweepTask(_square, (i,)) for i in range(4)],
            parallel=4, cache=cache)
        assert results == [i * i for i in range(4)]
        self._assert_single_path(events, 4)
        assert all(e.source == "cache" for e in events)

    @pytest.mark.parametrize("parallel, site", [(1, "serial/"),
                                                (2, "pool/")],
                             ids=["serial", "pool"])
    def test_progress_carries_worker_and_duration(self, parallel, site):
        tasks = [SweepTask(_square, (i,)) for i in range(4)]
        _results, events = self._run(tasks, parallel=parallel, cache=False)
        self._assert_single_path(events, 4)
        assert all(e.worker.startswith(site) for e in events)
        assert all(e.duration >= 0.0 for e in events)

    def test_progress_completion_order_with_straggler(self):
        # Chunks stream back as they finish, so the fast tasks' ticks
        # arrive before the slow first task's, while the returned list
        # stays in task order.
        tasks = [SweepTask(_sleep_value, (0.6, "slow"))]
        tasks += [SweepTask(_sleep_value, (0.0, f"f{i}"))
                  for i in range(1, 5)]
        results, events = self._run(tasks, parallel=2, chunksize=1,
                                    cache=False)
        assert results == ["slow", "f1", "f2", "f3", "f4"]
        self._assert_single_path(events, 5)
        assert events[-1].index == 0, (
            f"straggler should tick last: {[e.index for e in events]}")

    def test_progress_counts_uncacheable_bypasses(self, tmp_path):
        cache = ResultCache(str(tmp_path / "store"))
        # an uncacheable argument (a set) cannot key the store: it must
        # still be counted exactly once, as computed work
        tasks = [SweepTask(_type_name, ({1, 2},)),
                 SweepTask(_square, (3,))]
        results, events = self._run(tasks, parallel=1, cache=cache)
        assert results == ["set", 9]
        self._assert_single_path(events, 2)
        assert events[-1].computed == 2
        assert cache.stats.bypasses == 1


class TestTracedSweep:
    """A traced sweep appends one ``backend`` event per sweep, which
    ``tracereport --by backend`` reads."""

    @pytest.mark.parametrize("parallel, actor", [(1, "serial"),
                                                 (2, "process")],
                             ids=["serial", "pool"])
    def test_one_backend_event_per_sweep(self, tmp_path, monkeypatch,
                                         capsys, parallel, actor):
        monkeypatch.setenv("REPRO_TRACE", str(tmp_path))
        tasks = [SweepTask(_square, (i,)) for i in range(3)]
        for _ in range(2):
            assert run_sweep(tasks, parallel=parallel, cache=False) \
                == [0, 1, 4]
        path = tmp_path / "sweep-backend.jsonl"
        with open(path, encoding="utf-8") as fh:
            events = load_jsonl(fh).events_in("backend")
        assert [e.actor for e in events] == [actor, actor]
        for event in events:
            assert set(event.attrs) == {"total", "hits", "computed",
                                        "workers"}
            assert event.attrs["total"] == event.attrs["computed"] == 3
            assert event.attrs["hits"] == 0
            assert 1 <= event.attrs["workers"] <= parallel
        assert tracereport_main(["--by", "backend", str(path)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].split() == ["backend", "sweeps", "total", "hits",
                                    "computed", "workers"]
        assert lines[-1].split()[:5] == [actor, "2", "6", "0", "6"]
