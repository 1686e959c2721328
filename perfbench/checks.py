"""Output checks. Every failure here counts a job as failed.

* Figure rows for the default seed (42) must match the committed rows in
  ``reference.json`` within :data:`REL_TOL` (relative) / :data:`ABS_TOL`
  (absolute): the model is deterministic, so the tolerance only absorbs
  floating-point reordering, never a changed result.
* For any seed, the paper-direction assertions of
  ``benchmarks/bench_fig2_write_phase_kraken.py`` and
  ``benchmarks/bench_fig7_spare_strategies.py`` must hold.
* Service jobs must end ``done`` with one summary per spec, and a spec
  sent more than once must get identical summaries every time.
"""

from __future__ import annotations

import json
import math
import os
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

REL_TOL = 1e-6
ABS_TOL = 1e-9
REFERENCE_SEED = 42
REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")


def load_reference(workload: str) -> Dict[str, Any]:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)[workload]


def _same(a: Any, b: Any) -> bool:
    if isinstance(a, float) or isinstance(b, float):
        return isinstance(a, (int, float)) and isinstance(b, (int, float)) \
            and math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)
    return a == b


def compare_rows(rows: Sequence[Dict[str, Any]],
                 reference: Sequence[Dict[str, Any]]
                 ) -> Tuple[Set[int], List[str]]:
    """Indices of rows that differ from the reference, with reasons."""
    bad: Set[int] = set()
    problems = []
    if len(rows) != len(reference):
        problems.append(f"{len(rows)} rows, reference has {len(reference)}")
        return set(range(max(len(rows), len(reference)))), problems
    for i, (row, ref) in enumerate(zip(rows, reference)):
        if set(row) != set(ref):
            bad.add(i)
            problems.append(f"row {i}: columns {sorted(row)} != "
                            f"{sorted(ref)}")
            continue
        for key in ref:
            if not _same(row[key], ref[key]):
                bad.add(i)
                problems.append(f"row {i} {key}: {row[key]!r} != "
                                f"reference {ref[key]!r}")
    return bad, problems


def fig2_directions(rows: Sequence[Dict[str, Any]]) -> List[str]:
    by_key = {(row["strategy"], row["cores"]): row for row in rows}
    scales = sorted({row["cores"] for row in rows})
    largest = scales[-1]
    problems = []

    def need(ok: bool, claim: str) -> None:
        if not ok:
            problems.append(f"fig2: {claim}")

    for cores in scales:
        damaris = by_key[("damaris", cores)]
        need(damaris["avg_s"] < 1.0, f"Damaris avg < 1 s at {cores}")
        need(damaris["spread_s"] < 0.2, f"Damaris spread < 0.2 s at {cores}")
    coll = by_key[("collective-io", largest)]
    fpp = by_key[("file-per-process", largest)]
    damaris = by_key[("damaris", largest)]
    need(coll["avg_s"] > fpp["avg_s"] > damaris["avg_s"],
         "collective > file-per-process > Damaris")
    need(coll["avg_s"] > 10 * damaris["avg_s"], "collective > 10x Damaris")
    oversized = by_key[("collective-io (32MB stripes)", largest)]
    need(oversized["avg_s"] > 10 * damaris["avg_s"],
         "32 MB stripes > 10x Damaris")
    need(oversized["avg_s"] > fpp["avg_s"] * 0.8,
         "32 MB stripes > 0.8x file-per-process")
    return problems


def fig7_directions(rows: Sequence[Dict[str, Any]]) -> List[str]:
    by_key = {(row["platform"], row["variant"]): row for row in rows}
    problems = []
    for platform in ("kraken", "grid5000"):
        if not by_key[(platform, "scheduler")]["write_s"] \
                < by_key[(platform, "plain")]["write_s"] * 1.05:
            problems.append(f"fig7: scheduling lowers write time on "
                            f"{platform}")
    overheads = [by_key[(p, "gzip")]["write_s"]
                 / by_key[(p, "plain")]["write_s"]
                 for p in ("kraken", "grid5000")]
    if not max(overheads) > 1.2:
        problems.append("fig7: gzip raises dedicated write time > 1.2x "
                        "on some platform")
    if not by_key[("kraken", "scheduler")]["throughput_GB_s"] \
            >= by_key[("kraken", "plain")]["throughput_GB_s"] * 0.9:
        problems.append("fig7: Kraken scheduler keeps >= 0.9x throughput")
    return problems


DIRECTIONS = {"fig2_kraken": fig2_directions,
              "fig7_dedicated": fig7_directions}


def check_figure(workload: str, seed: int, rows: List[Dict[str, Any]],
                 smoke: bool = False,
                 reference: Optional[Sequence[Dict[str, Any]]] = None
                 ) -> Tuple[int, List[str]]:
    """``(failed points, problems)`` for one regeneration.

    A row that differs from its reference fails its point; a broken
    paper direction fails every point of the regeneration. Smoke-sized
    sweeps have neither reference rows nor the paper's scale, so only
    their shape is checked.
    """
    if smoke:
        return (0, []) if rows else (1, ["no rows"])
    bad: Set[int] = set()
    problems: List[str] = []
    if seed == REFERENCE_SEED:
        if reference is None:
            reference = load_reference(workload)["rows"]
        bad, problems = compare_rows(rows, reference)
    directions = DIRECTIONS[workload](rows)
    if directions:
        problems.extend(directions)
        bad = set(range(len(rows)))
    return len(bad), problems


def check_service(records: List[Dict[str, Any]]
                  ) -> Tuple[int, List[str]]:
    """``(failed jobs, problems)`` for one service run."""
    failed = 0
    problems: List[str] = []
    seen: Dict[str, str] = {}
    for record in records:
        reason = record.get("error")
        result = record.get("result")
        if reason is None and (result is None
                               or result.get("state") != "done"):
            reason = f"ended {result and result.get('state')!r}"
        if reason is None:
            summaries = result["results"]
            if len(summaries) != len(record["specs"]) \
                    or any(s is None for s in summaries):
                reason = "not one summary per spec"
            else:
                for spec, summary in zip(record["specs"], summaries):
                    key = json.dumps(spec, sort_keys=True)
                    text = json.dumps(summary, sort_keys=True)
                    if seen.setdefault(key, text) != text:
                        reason = f"repeated spec {key} changed its summary"
        if reason is not None:
            failed += 1
            problems.append(f"{record.get('job_id', '?')}: {reason}")
    return failed, problems


def service_summaries(records: List[Dict[str, Any]]) -> Dict[str, str]:
    """Spec → summary text over every finished job (for run-to-run
    comparison)."""
    out = {}
    for record in records:
        result = record.get("result") or {}
        for spec, summary in zip(record["specs"],
                                 result.get("results") or ()):
            out[json.dumps(spec, sort_keys=True)] = json.dumps(
                summary, sort_keys=True)
    return out
