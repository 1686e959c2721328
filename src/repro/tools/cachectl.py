"""Inspect and maintain the content-addressed sweep-result cache.

Usage::

    python -m repro.tools.cachectl stats            # counters + size
    python -m repro.tools.cachectl ls               # one line per entry
    python -m repro.tools.cachectl prune            # LRU-evict to the size bound
    python -m repro.tools.cachectl prune --stale    # drop old-model entries
    python -m repro.tools.cachectl verify           # re-checksum every entry
    python -m repro.tools.cachectl clear            # remove everything

All commands accept ``--cache-dir DIR`` (default ``REPRO_CACHE_DIR``,
else ``~/.cache/repro/sweeps``); ``prune`` accepts ``--max-bytes N`` to
override the configured bound for one pass. ``verify`` exits non-zero
if any entry fails its checksum — corrupt entries are reported, and at
read time they degrade to cache misses rather than wrong results, so
``verify`` failing means disk trouble, not wrong figures.

When to ``clear``: never for correctness — a model-source change
already unreaches every old entry (the fingerprint is part of the key),
and ``prune --stale`` reclaims their disk. ``clear`` is for reclaiming
the whole store or forcing a cold benchmark run.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Optional

from repro.cache import ResultCache, default_cache_dir


def _byte_count(text: str) -> int:
    value = int(text)  # a ValueError becomes argparse's usage error
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _cache(args: argparse.Namespace) -> ResultCache:
    root = args.cache_dir if args.cache_dir else default_cache_dir()
    return ResultCache(root)


def _fmt_bytes(n: float) -> str:
    for unit in ("B", "KiB", "MiB", "GiB"):
        if n < 1024 or unit == "GiB":
            return f"{n:.1f} {unit}" if unit != "B" else f"{int(n)} B"
        n /= 1024
    return f"{n:.1f} GiB"  # pragma: no cover - unreachable


def cmd_stats(args: argparse.Namespace) -> int:
    cache = _cache(args)
    infos = list(cache.entries())
    total = sum(info.size for info in infos)
    current = sum(
        1 for info in infos
        if info.meta.get("fingerprint") == cache.fingerprint)
    print(f"cache dir:        {cache.root}")
    print(f"model fingerprint: {cache.fingerprint}")
    print(f"entries:          {len(infos)} "
          f"({current} current-model per index)")
    print(f"total size:       {_fmt_bytes(total)} "
          f"(bound {_fmt_bytes(cache.max_bytes)})")
    totals = cache.totals()
    last = cache.last_run()
    print("cumulative:       " + "  ".join(
        f"{key}={totals[key]}" for key in sorted(totals)))
    print("last run:         " + "  ".join(
        f"{key}={last[key]}" for key in sorted(last)))
    return 0


def cmd_ls(args: argparse.Namespace) -> int:
    cache = _cache(args)
    now = time.time()
    count = 0
    for info in sorted(cache.entries(), key=lambda i: -i.mtime):
        age_s = max(0.0, now - info.mtime)
        age = (f"{age_s:.0f}s" if age_s < 120
               else f"{age_s / 60:.0f}m" if age_s < 7200
               else f"{age_s / 3600:.1f}h")
        fn = info.meta.get("fn", "?")
        label = info.meta.get("label", "")
        stale = ("" if info.meta.get("fingerprint") == cache.fingerprint
                 else "  [stale]")
        print(f"{info.key}  {_fmt_bytes(info.size):>10}  {age:>6}  "
              f"{fn}  {label}{stale}")
        count += 1
    if not count:
        print("(empty cache)")
    return 0


def cmd_prune(args: argparse.Namespace) -> int:
    cache = _cache(args)
    if args.stale:
        removed = cache.prune_stale()
        print(f"pruned {removed} stale entr{'y' if removed == 1 else 'ies'} "
              f"(model fingerprint {cache.fingerprint})")
    else:
        removed = cache.evict(args.max_bytes)
        bound = cache.max_bytes if args.max_bytes is None else args.max_bytes
        print(f"evicted {removed} LRU entr{'y' if removed == 1 else 'ies'} "
              f"to fit {_fmt_bytes(bound)} "
              f"(now {_fmt_bytes(cache.total_bytes())})")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    cache = _cache(args)
    infos = list(cache.entries())
    bad = cache.verify()
    for key in bad:
        print(f"CORRUPT {key}", file=sys.stderr)
    print(f"verified {len(infos)} entr{'y' if len(infos) == 1 else 'ies'}: "
          f"{len(infos) - len(bad)} ok, {len(bad)} corrupt")
    return 1 if bad else 0


def cmd_clear(args: argparse.Namespace) -> int:
    cache = _cache(args)
    removed = cache.clear()
    print(f"cleared {removed} entr{'y' if removed == 1 else 'ies'} "
          f"from {cache.root}")
    return 0


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.cachectl",
        description="Inspect and maintain the sweep-result cache.")
    parser.add_argument("--cache-dir", default=None,
                        help="cache root (default REPRO_CACHE_DIR, else "
                             "~/.cache/repro/sweeps)")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("stats", help="counters, entry count, total size")
    sub.add_parser("ls", help="list entries, most recently used first")
    prune = sub.add_parser("prune", help="evict entries")
    prune.add_argument("--max-bytes", type=_byte_count, default=None,
                       help="LRU-evict down to this size (default: the "
                            "configured bound, REPRO_CACHE_MAX_BYTES)")
    prune.add_argument("--stale", action="store_true",
                       help="instead remove entries recorded under an "
                            "older model fingerprint")
    sub.add_parser("verify", help="re-checksum every entry; exit 1 on "
                                  "corruption")
    sub.add_parser("clear", help="remove every entry and reset the index")
    args = parser.parse_args(argv)
    handler = {
        "stats": cmd_stats,
        "ls": cmd_ls,
        "prune": cmd_prune,
        "verify": cmd_verify,
        "clear": cmd_clear,
    }[args.command]
    return handler(args)


if __name__ == "__main__":
    raise SystemExit(main())
