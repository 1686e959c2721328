"""Inspect recorded traces from the command line.

Usage::

    python -m repro.tools.tracereport trace.jsonl            # summary
    python -m repro.tools.tracereport trace.jsonl --by actor
    python -m repro.tools.tracereport trace.jsonl --by category
    python -m repro.tools.tracereport trace.jsonl --by target
    python -m repro.tools.tracereport trace.jsonl --by solver
    python -m repro.tools.tracereport trace.jsonl --by backend
    python -m repro.tools.tracereport trace.jsonl --chrome out.json

The summary shows per-category, per-actor, per-storage-target and
bandwidth-solver tables plus the persist-vs-write_phase overlap (the
structural form of the paper's jitter-hiding claim). The solver table
reports how the flow-network share recomputations were served: full
water-filling solves vs component-partitioned solves vs incremental
fast-path grants, and which water-filling kernel (python/compiled)
served them. The backend table (``--by backend``; appears in the
summary when a ``REPRO_TRACE`` sweep recorded its totals to
``sweep-backend.jsonl``) shows, per dispatch path (``serial`` or
``process``), how many sweeps ran, their tasks, cache hits and
computed points, and the most worker processes one sweep used.
``--chrome`` converts the JSONL trace to
Chrome ``trace_event`` format — open it at ``chrome://tracing`` or
https://ui.perfetto.dev to see the timeline.
"""

from __future__ import annotations

import sys
from typing import List, Optional

from repro.errors import ReproError
from repro.experiments.report import render_table
from repro.observe.aggregate import (
    backend_table,
    per_actor_table,
    per_category_table,
    per_target_table,
    render_summary,
    solver_table,
)
from repro.observe.export import dump_chrome_trace, load_jsonl

#: ``--by`` value -> the table it prints.
_TABLES = {"actor": per_actor_table, "category": per_category_table,
           "target": per_target_table, "solver": solver_table,
           "backend": backend_table}


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("-h", "--help"):
        print(__doc__)
        return 0

    chrome_out = None
    if "--chrome" in argv:
        at = argv.index("--chrome")
        try:
            chrome_out = argv[at + 1]
        except IndexError:
            print("--chrome requires an output path", file=sys.stderr)
            return 2
        del argv[at:at + 2]

    grouping = None
    if "--by" in argv:
        at = argv.index("--by")
        try:
            grouping = argv[at + 1]
        except IndexError:
            grouping = ""
        if grouping not in _TABLES:
            print(f"--by requires one of: {', '.join(_TABLES)}",
                  file=sys.stderr)
            return 2
        del argv[at:at + 2]

    if len(argv) != 1:
        print("expected exactly one trace file; see --help",
              file=sys.stderr)
        return 2
    path = argv[0]
    try:
        with open(path, "r", encoding="utf-8") as fh:
            tracer = load_jsonl(fh)
    except (OSError, ValueError, ReproError) as exc:
        print(f"cannot load {path!r}: {exc}", file=sys.stderr)
        return 1

    if chrome_out is not None:
        dump_chrome_trace(tracer, chrome_out)
        print(f"wrote Chrome trace to {chrome_out} "
              f"(open at chrome://tracing or https://ui.perfetto.dev)")

    try:
        if grouping is None:
            report = render_summary(tracer)
        else:
            report = render_table(_TABLES[grouping](tracer))
    except ReproError as exc:
        print(f"cannot report {path!r}: {exc}", file=sys.stderr)
        return 1
    print(report)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
