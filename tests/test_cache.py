"""Tests for the content-addressed sweep-result cache.

Covers the correctness contract from the cache design: a hit returns
the stored object, any argument change misses, a model-fingerprint
change invalidates, a truncated or corrupted entry degrades to a miss
(never a crash, never a wrong value), and two processes racing on the
same key both leave a valid store behind.
"""

import hashlib
import multiprocessing
import os

import numpy as np
import pytest

from repro.cache import (
    ResultCache,
    UncacheableArgument,
    cache_from_env,
    canonical_blob,
    default_cache_dir,
    model_fingerprint,
    task_key,
)
from repro.cache.store import _MAGIC
from repro.errors import ConfigurationError


def _fn(x, y=1):
    return x + y


class TestCanonicalBlob:
    def test_dict_order_insensitive(self):
        assert canonical_blob({"a": 1, "b": 2}) == \
            canonical_blob({"b": 2, "a": 1})

    def test_list_and_tuple_equivalent(self):
        assert canonical_blob([1, 2, 3]) == canonical_blob((1, 2, 3))

    def test_int_float_distinct(self):
        assert canonical_blob(1) != canonical_blob(1.0)

    def test_bool_not_confused_with_int(self):
        assert canonical_blob(True) != canonical_blob(1)

    def test_nested_change_changes_blob(self):
        a = {"spec": {"ncores": 576, "strategy": {"kind": "fpp"}}}
        b = {"spec": {"ncores": 576, "strategy": {"kind": "damaris"}}}
        assert canonical_blob(a) != canonical_blob(b)

    def test_numpy_scalar_matches_python(self):
        assert canonical_blob(np.int64(7)) == canonical_blob(7)

    def test_numpy_array_roundtrip(self):
        arr = np.arange(6, dtype=float).reshape(2, 3)
        assert canonical_blob(arr) == canonical_blob(arr.copy())
        assert canonical_blob(arr) != canonical_blob(arr.T)

    def test_unknown_type_raises(self):
        with pytest.raises(UncacheableArgument):
            canonical_blob(object())

    def test_string_prefix_injection(self):
        # ("ab", "c") must not collide with ("a", "bc").
        assert canonical_blob(("ab", "c")) != canonical_blob(("a", "bc"))


class TestTaskKey:
    def test_stable(self):
        assert task_key(_fn, (1,), {"y": 2}, "fp") == \
            task_key(_fn, (1,), {"y": 2}, "fp")

    def test_arg_change_misses(self):
        base = task_key(_fn, (1,), {"y": 2}, "fp")
        assert task_key(_fn, (2,), {"y": 2}, "fp") != base
        assert task_key(_fn, (1,), {"y": 3}, "fp") != base
        assert task_key(_fn, (1,), {}, "fp") != base

    def test_fingerprint_change_misses(self):
        assert task_key(_fn, (1,), {}, "fp-a") != \
            task_key(_fn, (1,), {}, "fp-b")

    def test_context_change_misses(self):
        assert task_key(_fn, (1,), {}, "fp", context={"fast": True}) != \
            task_key(_fn, (1,), {}, "fp", context={"fast": False})

    def test_function_identity_in_key(self):
        assert task_key(_fn, (1,), {}, "fp") != \
            task_key(canonical_blob, (1,), {}, "fp")


class TestModelFingerprint:
    def _tree(self, tmp_path, name, content):
        root = tmp_path / name
        root.mkdir()
        (root / "mod.py").write_text(content)
        return str(root)

    def test_stable_and_memoised(self, tmp_path):
        root = self._tree(tmp_path, "a", "X = 1\n")
        assert model_fingerprint(root) == model_fingerprint(root)

    def test_source_change_changes_fingerprint(self, tmp_path):
        a = self._tree(tmp_path, "a", "X = 1\n")
        b = self._tree(tmp_path, "b", "X = 2\n")
        assert model_fingerprint(a) != model_fingerprint(b)

    def test_refresh_sees_edit(self, tmp_path):
        root = self._tree(tmp_path, "a", "X = 1\n")
        before = model_fingerprint(root)
        (tmp_path / "a" / "mod.py").write_text("X = 99\n")
        assert model_fingerprint(root) == before  # memoised
        assert model_fingerprint(root, refresh=True) != before

    def test_non_python_files_ignored(self, tmp_path):
        root = self._tree(tmp_path, "a", "X = 1\n")
        before = model_fingerprint(root, refresh=True)
        (tmp_path / "a" / "notes.txt").write_text("irrelevant")
        assert model_fingerprint(root, refresh=True) == before

    def test_default_root_is_repro_package(self):
        fp = model_fingerprint()
        assert isinstance(fp, str) and len(fp) == 40


class TestResultCacheStore:
    def _cache(self, tmp_path, fingerprint="fp", **kwargs):
        return ResultCache(str(tmp_path / "cache"), fingerprint=fingerprint,
                           **kwargs)

    def test_roundtrip_returns_stored_object(self, tmp_path):
        cache = self._cache(tmp_path)
        value = {"rows": np.arange(4.0), "label": "fig2", "n": 42}
        key = cache.key_for(_fn, (1,), {"y": 2})
        cache.put(key, value)
        hit, loaded = cache.get(key)
        assert hit
        assert loaded["label"] == "fig2" and loaded["n"] == 42
        np.testing.assert_array_equal(loaded["rows"], value["rows"])

    def test_absent_key_misses(self, tmp_path):
        cache = self._cache(tmp_path)
        hit, value = cache.get("0" * 40)
        assert not hit and value is None
        assert cache.stats.misses == 1

    def test_arg_change_changes_key(self, tmp_path):
        cache = self._cache(tmp_path)
        assert cache.key_for(_fn, (1,), {}) != cache.key_for(_fn, (2,), {})

    def test_fingerprint_change_invalidates(self, tmp_path):
        old = self._cache(tmp_path, fingerprint="model-v1")
        key = old.key_for(_fn, (1,), {})
        old.put(key, "stale-result")
        new = self._cache(tmp_path, fingerprint="model-v2")
        new_key = new.key_for(_fn, (1,), {})
        assert new_key != key
        hit, _value = new.get(new_key)
        assert not hit  # the stale entry is structurally unreachable

    def test_uncacheable_args_yield_no_key(self, tmp_path):
        cache = self._cache(tmp_path)
        assert cache.key_for(_fn, (object(),), {}) is None

    def test_truncated_entry_is_a_miss(self, tmp_path):
        cache = self._cache(tmp_path)
        key = cache.key_for(_fn, (1,), {})
        cache.put(key, list(range(1000)))
        path = cache.entry_path(key)
        blob = open(path, "rb").read()
        with open(path, "wb") as fh:
            fh.write(blob[:len(blob) // 2])
        hit, value = cache.get(key)
        assert not hit and value is None
        assert cache.stats.corrupt == 1
        assert not os.path.exists(path)  # removed so a re-put lands clean

    def test_garbage_entry_is_a_miss(self, tmp_path):
        cache = self._cache(tmp_path)
        key = cache.key_for(_fn, (1,), {})
        path = cache.entry_path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "wb") as fh:
            fh.write(b"not a cache entry at all")
        hit, _value = cache.get(key)
        assert not hit
        assert cache.stats.corrupt == 1

    def test_valid_digest_bad_pickle_is_a_miss(self, tmp_path):
        # A correctly framed entry whose body is not a pickle: the
        # checksum passes, unpickling must still degrade to a miss.
        cache = self._cache(tmp_path)
        key = cache.key_for(_fn, (1,), {})
        body = b"\x80\x04 definitely not a valid pickle stream"
        digest = hashlib.blake2b(body, digest_size=32).digest()
        path = cache.entry_path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "wb") as fh:
            fh.write(_MAGIC + digest + body)
        hit, _value = cache.get(key)
        assert not hit
        assert cache.stats.corrupt == 1

    def test_bitflip_detected_by_digest(self, tmp_path):
        cache = self._cache(tmp_path)
        key = cache.key_for(_fn, (1,), {})
        cache.put(key, "payload")
        path = cache.entry_path(key)
        blob = bytearray(open(path, "rb").read())
        blob[-1] ^= 0xFF
        with open(path, "wb") as fh:
            fh.write(bytes(blob))
        hit, _value = cache.get(key)
        assert not hit

    def test_verify_reports_corruption(self, tmp_path):
        cache = self._cache(tmp_path)
        good = cache.key_for(_fn, (1,), {})
        bad = cache.key_for(_fn, (2,), {})
        cache.put(good, "ok")
        cache.put(bad, "soon corrupt")
        with open(cache.entry_path(bad), "ab") as fh:
            fh.write(b"trailing garbage")
        assert cache.verify() == [bad]

    def test_clear_removes_everything(self, tmp_path):
        cache = self._cache(tmp_path)
        for i in range(3):
            cache.put(cache.key_for(_fn, (i,), {}), i)
        assert cache.clear() == 3
        assert list(cache.entries()) == []
        assert cache.total_bytes() == 0

    def test_lru_eviction_keeps_recent(self, tmp_path):
        cache = self._cache(tmp_path)
        keys = [cache.key_for(_fn, (i,), {}) for i in range(4)]
        for i, key in enumerate(keys):
            cache.put(key, b"x" * 512)
            # Deterministic, well-separated mtimes (filesystem clock
            # granularity is too coarse for a tight loop).
            os.utime(cache.entry_path(key), (1000.0 + i, 1000.0 + i))
        entry_size = os.path.getsize(cache.entry_path(keys[0]))
        cache.evict(max_bytes=2 * entry_size)
        survivors = {info.key for info in cache.entries()}
        assert survivors == {keys[2], keys[3]}
        assert cache.stats.evicted == 2

    @pytest.mark.parametrize("raw", ["1G", "-1"])
    def test_bad_env_size_bound_raises(self, tmp_path, monkeypatch, raw):
        # "1G" is not an integer; "-1" would evict every entry right
        # after it is written.
        monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", raw)
        with pytest.raises(ConfigurationError,
                           match="REPRO_CACHE_MAX_BYTES"):
            self._cache(tmp_path)

    def test_negative_size_bound_argument_raises(self, tmp_path):
        with pytest.raises(ConfigurationError, match="max_bytes"):
            self._cache(tmp_path, max_bytes=-1)

    def test_prune_stale_drops_old_model_entries(self, tmp_path):
        old = self._cache(tmp_path, fingerprint="model-v1")
        old.put(old.key_for(_fn, (1,), {}), "old")
        old.flush()
        new = self._cache(tmp_path, fingerprint="model-v2")
        fresh_key = new.key_for(_fn, (1,), {})
        new.put(fresh_key, "new")
        new.flush()
        assert new.prune_stale() == 1
        survivors = {info.key for info in new.entries()}
        assert survivors == {fresh_key}

    def test_flush_accumulates_without_double_counting(self, tmp_path):
        cache = self._cache(tmp_path)
        key = cache.key_for(_fn, (1,), {})
        cache.get(key)      # miss
        cache.put(key, 1)   # write
        cache.flush()
        cache.flush()       # repeated flush must not double the totals
        cache.get(key)      # hit
        cache.flush()
        totals = cache.totals()
        assert totals["misses"] == 1
        assert totals["writes"] == 1
        assert totals["hits"] == 1
        assert cache.last_run() == cache.stats.as_dict()

    def test_index_corruption_tolerated(self, tmp_path):
        cache = self._cache(tmp_path)
        key = cache.key_for(_fn, (1,), {})
        cache.put(key, "value")
        cache.flush()
        with open(cache.index_path, "w") as fh:
            fh.write("{not json")
        hit, value = cache.get(key)  # entries never depend on the index
        assert hit and value == "value"
        assert cache.totals() == {k: 0 for k in cache.totals()}


def _race_writer(root, key, value, barrier, rounds):
    cache = ResultCache(root, fingerprint="race-fp")
    barrier.wait()
    for _ in range(rounds):
        cache.put(key, value)


class TestConcurrentWriters:
    def test_same_key_race_is_safe(self, tmp_path):
        """Two processes hammering the same key concurrently must leave
        one complete, checksum-valid entry (last writer wins)."""
        root = str(tmp_path / "cache")
        cache = ResultCache(root, fingerprint="race-fp")
        key = cache.key_for(_fn, (1,), {})
        payload = {"arr": np.arange(2048.0)}
        ctx = multiprocessing.get_context("spawn")
        barrier = ctx.Barrier(2)
        procs = [
            ctx.Process(target=_race_writer,
                        args=(root, key, payload, barrier, 25))
            for _ in range(2)
        ]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=120)
            assert proc.exitcode == 0
        hit, value = cache.get(key)
        assert hit
        np.testing.assert_array_equal(value["arr"], payload["arr"])
        assert cache.verify() == []
        # No temp-file debris left behind by either writer.
        shard = os.path.dirname(cache.entry_path(key))
        assert [f for f in os.listdir(shard) if f.endswith(".tmp")] == []


class TestEnvWiring:
    def test_disabled_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        assert cache_from_env() is None

    def test_enabled_values(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        for raw in ("1", "true", "YES", "on"):
            monkeypatch.setenv("REPRO_CACHE", raw)
            cache = cache_from_env()
            assert isinstance(cache, ResultCache)
            assert cache.root == str(tmp_path)
        for raw in ("0", "false", "off", ""):
            monkeypatch.setenv("REPRO_CACHE", raw)
            assert cache_from_env() is None
        monkeypatch.setenv("REPRO_CACHE", "maybe")
        with pytest.raises(ConfigurationError, match="REPRO_CACHE"):
            cache_from_env()

    def test_default_dir_honours_xdg(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        monkeypatch.setenv("XDG_CACHE_HOME", "/tmp/xdg")
        assert default_cache_dir() == "/tmp/xdg/repro/sweeps"


class TestCachectlCLI:
    def _seed(self, tmp_path):
        root = str(tmp_path / "store")
        cache = ResultCache(root)  # real model fingerprint, like the CLI
        for i in range(3):
            cache.put(cache.key_for(_fn, (i,), {}), {"result": i},
                      meta={"fn": "tests._fn", "label": f"t{i}"})
        cache.flush()
        return root, cache

    def _run(self, *argv):
        from repro.tools import cachectl

        return cachectl.main(list(argv))

    def test_stats_and_ls(self, tmp_path, capsys):
        root, _cache = self._seed(tmp_path)
        assert self._run("--cache-dir", root, "stats") == 0
        out = capsys.readouterr().out
        assert "entries:          3" in out
        assert self._run("--cache-dir", root, "ls") == 0
        out = capsys.readouterr().out
        assert out.count("tests._fn") == 3

    def test_verify_clean_then_corrupt(self, tmp_path, capsys):
        root, cache = self._seed(tmp_path)
        assert self._run("--cache-dir", root, "verify") == 0
        key = cache.key_for(_fn, (0,), {})
        with open(cache.entry_path(key), "ab") as fh:
            fh.write(b"junk")
        assert self._run("--cache-dir", root, "verify") == 1
        err = capsys.readouterr().err
        assert f"CORRUPT {key}" in err

    def test_prune_stale_via_cli(self, tmp_path, capsys):
        root, _cache = self._seed(tmp_path)
        stale = ResultCache(root, fingerprint="some-older-model")
        stale.put(stale.key_for(_fn, ("old",), {}), "old")
        stale.flush()
        assert self._run("--cache-dir", root, "prune", "--stale") == 0
        assert "pruned 1 stale entry" in capsys.readouterr().out

    def test_clear(self, tmp_path, capsys):
        root, cache = self._seed(tmp_path)
        assert self._run("--cache-dir", root, "clear") == 0
        assert list(cache.entries()) == []
