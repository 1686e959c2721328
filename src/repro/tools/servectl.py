"""Run and talk to the sweep job service.

Usage::

    python -m repro.tools.servectl serve                 # start a server
    python -m repro.tools.servectl serve --port 8642 --workers 4
    python -m repro.tools.servectl submit specs.json     # submit a job
    python -m repro.tools.servectl submit specs.json --tenant alice \\
        --priority 5 --wait
    python -m repro.tools.servectl status job-000001     # one snapshot
    python -m repro.tools.servectl events job-000001 --follow
    python -m repro.tools.servectl fetch job-000001      # results JSON
    python -m repro.tools.servectl cancel job-000001
    python -m repro.tools.servectl metrics               # Prometheus page
    python -m repro.tools.servectl drain                 # stop admission
    python -m repro.tools.servectl health

Client commands accept ``--host``/``--port`` (default
``127.0.0.1:8642``, overridable via ``REPRO_SERVICE_ADDR=host:port``; a
malformed value makes every command exit 2).
``submit`` reads a JSON file holding either a list of sweep specs or a
full job object (``{"specs": [...], "priority": ..., "label": ...}``);
``-`` reads stdin. Typed rejections (quota, rate limit, draining,
invalid spec) print as ``kind: message`` and exit non-zero.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, Optional

from repro import config
from repro.errors import ConfigurationError
from repro.service.client import ServiceClient
from repro.service.errors import ServiceError


def _client(args: argparse.Namespace) -> ServiceClient:
    return ServiceClient(args.host, args.port,
                         tenant=getattr(args, "tenant", None))


def _emit(doc: Any) -> None:
    print(json.dumps(doc, indent=2, sort_keys=True))


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import signal

    from repro.service.quotas import QuotaManager, TenantPolicy
    from repro.service.server import SweepService

    policy = TenantPolicy(max_active_jobs=args.max_active_jobs,
                          max_specs_per_job=args.max_specs_per_job,
                          rate=args.rate, burst=args.burst)
    service = SweepService(host=args.host, port=args.port,
                           workers=args.workers,
                           job_slots=args.job_slots,
                           quotas=QuotaManager(default=policy))

    async def main() -> None:
        await service.start()
        print(f"serving on {service.address} "
              f"(workers={args.workers or 'auto'}, "
              f"job_slots={args.job_slots})", flush=True)
        # Serve until SIGINT/SIGTERM, then exit gracefully: a drained
        # server keeps answering (rejecting submissions, serving
        # results) until the operator terminates it, and termination
        # itself drains — in-flight jobs finish, pool workers join.
        stop_signal = asyncio.Event()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(sig, stop_signal.set)
            except (NotImplementedError, RuntimeError):
                pass
        try:
            await stop_signal.wait()
        finally:
            await service.stop()

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        pass
    return 0


def _load_payload(path: str) -> Dict[str, Any]:
    if path == "-":
        raw = sys.stdin.read()
    else:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.read()
    doc = json.loads(raw)
    if isinstance(doc, list):
        return {"specs": doc}
    if isinstance(doc, dict):
        return doc
    raise SystemExit(f"{path}: expected a JSON list of specs or a job "
                     f"object, got {type(doc).__name__}")


def cmd_submit(args: argparse.Namespace) -> int:
    client = _client(args)
    payload = _load_payload(args.specs)
    if args.priority is not None:
        payload["priority"] = args.priority
    if args.label:
        payload["label"] = args.label
    snap = client.submit(payload["specs"],
                         priority=payload.get("priority", 0),
                         label=payload.get("label", ""))
    if not args.wait:
        _emit(snap)
        return 0
    final = client.wait(snap["job_id"], timeout=args.timeout)
    _emit(final)
    return 0 if final["state"] == "done" else 1


def cmd_status(args: argparse.Namespace) -> int:
    _emit(_client(args).status(args.job_id))
    return 0


def cmd_events(args: argparse.Namespace) -> int:
    client = _client(args)
    after = args.after
    while True:
        page = client.events(args.job_id, after=after,
                             wait=2.0 if args.follow else 0.0)
        for event in page["events"]:
            print(json.dumps(event, sort_keys=True))
            after = event["seq"]
        if not args.follow or page["state"] in ("done", "failed",
                                                "cancelled"):
            return 0


def cmd_fetch(args: argparse.Namespace) -> int:
    _emit(_client(args).result(args.job_id))
    return 0


def cmd_cancel(args: argparse.Namespace) -> int:
    _emit(_client(args).cancel(args.job_id))
    return 0


def cmd_metrics(args: argparse.Namespace) -> int:
    sys.stdout.write(_client(args).metrics())
    return 0


def cmd_drain(args: argparse.Namespace) -> int:
    _emit(_client(args).drain())
    return 0


def cmd_health(args: argparse.Namespace) -> int:
    _emit(_client(args).health())
    return 0


def build_parser() -> argparse.ArgumentParser:
    host, port = config.get("REPRO_SERVICE_ADDR")
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.servectl",
        description="Run and talk to the sweep job service.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--host", default=host)
        p.add_argument("--port", type=int, default=port)

    p = sub.add_parser("serve", help="start a server in the foreground")
    common(p)
    p.add_argument("--workers", type=int, default=None,
                   help="compute pool size (default: auto)")
    p.add_argument("--job-slots", type=int, default=4,
                   help="jobs executing concurrently")
    p.add_argument("--max-active-jobs", type=int, default=4)
    p.add_argument("--max-specs-per-job", type=int, default=256)
    p.add_argument("--rate", type=float, default=50.0,
                   help="tenant token-bucket refill, specs/second")
    p.add_argument("--burst", type=float, default=200.0,
                   help="tenant token-bucket capacity, specs")
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser("submit", help="submit a job from a JSON file")
    common(p)
    p.add_argument("specs", help="JSON file (or '-') with a spec list "
                                 "or job object")
    p.add_argument("--tenant", default=None)
    p.add_argument("--priority", type=int, default=None)
    p.add_argument("--label", default="")
    p.add_argument("--wait", action="store_true",
                   help="block until the job is terminal")
    p.add_argument("--timeout", type=float, default=600.0)
    p.set_defaults(fn=cmd_submit)

    for name, fn, help_text in (
            ("status", cmd_status, "print one job snapshot"),
            ("events", cmd_events, "print job events as JSON lines"),
            ("fetch", cmd_fetch, "print a finished job's results"),
            ("cancel", cmd_cancel, "cancel a queued or running job")):
        p = sub.add_parser(name, help=help_text)
        common(p)
        p.add_argument("job_id")
        if name == "events":
            p.add_argument("--after", type=int, default=-1)
            p.add_argument("--follow", action="store_true",
                           help="long-poll until the job is terminal")
        p.set_defaults(fn=fn)

    for name, fn, help_text in (
            ("metrics", cmd_metrics, "print the Prometheus page"),
            ("drain", cmd_drain, "stop admitting new jobs"),
            ("health", cmd_health, "print liveness/drain state")):
        p = sub.add_parser(name, help=help_text)
        common(p)
        p.set_defaults(fn=fn)
    return parser


def main(argv: Optional[list] = None) -> int:
    try:
        parser = build_parser()
    except ConfigurationError as exc:
        print(f"servectl: {exc}", file=sys.stderr)
        return 2
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ServiceError as exc:
        print(f"{exc.kind}: {exc.message}", file=sys.stderr)
        return 2
    except ConnectionError as exc:
        print(f"connection failed: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
