"""Launch and control TCP sweep workers for the remote backend.

Usage::

    # On each worker machine (same checkout + deps as the coordinator),
    # one process per core you want to donate:
    python -m repro.tools.sweepworkerctl serve --port 7401
    python -m repro.tools.sweepworkerctl serve --port 7402

    # On the coordinator machine:
    REPRO_WORKERS=nodeA:7401,nodeA:7402 REPRO_BACKEND=remote \\
        python -m repro.tools.figures all --out figures/

    # Tear a worker down remotely:
    python -m repro.tools.sweepworkerctl stop nodeA:7401

A worker is a single-threaded task server: it accepts one coordinator
connection at a time, introduces itself (protocol version, source-tree
fingerprint, pid, tag), adopts the coordinator's run-mode environment
from the ``welcome`` frame, then executes each ``run`` batch task by
task, streaming one ``result`` frame per task as it finishes. Between
coordinator connections it just listens, so one long-lived worker
serves any number of sweeps.

Options that matter in scripts and tests: ``--port 0`` binds an
ephemeral port and ``--port-file PATH`` publishes the chosen one
(written atomically; the first line is ``host:port``); ``--once``
exits after a single coordinator connection; ``--max-idle SECONDS``
exits when no coordinator shows up in time (so CI can never leak a
listener); ``--fingerprint`` overrides the source-tree fingerprint
(tests use this to exercise the handshake rejection). SIGTERM exits
cleanly.

Security: the protocol is pickle over TCP between hosts *you* control
— bind stays on localhost unless ``--host`` says otherwise, and worker
ports must never be reachable from untrusted networks.
"""

from __future__ import annotations

import argparse
import os
import signal
import socket
import sys
import tempfile
import time
import traceback
from typing import Optional

from repro import config
from repro.experiments.backends.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    recv_msg,
    send_msg,
)
from repro.experiments.backends.remote import RemoteBackendError, parse_workers

__all__ = ["main", "serve_worker"]


def _default_tag() -> str:
    return f"{socket.gethostname()}-{os.getpid()}"


def _write_port_file(path: str, host: str, port: int) -> None:
    # Atomic so a watcher polling the file never reads a partial line.
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    with os.fdopen(fd, "w", encoding="utf-8") as fh:
        fh.write(f"{host}:{port}\n")
    os.replace(tmp_path, path)


def _run_batch(conn: socket.socket, tasks) -> None:
    for task_id, task in tasks:
        start = time.perf_counter()
        try:
            value = task.run()
        except Exception as exc:
            send_msg(conn, {
                "type": "result", "task_id": task_id, "ok": False,
                "error": f"{type(exc).__name__}: {exc}",
                "traceback": traceback.format_exc(),
            })
            continue
        send_msg(conn, {
            "type": "result", "task_id": task_id, "ok": True,
            "value": value,
            "duration": time.perf_counter() - start,
        })


def _serve_connection(conn: socket.socket, fingerprint: str,
                      tag: str) -> str:
    """One coordinator session; returns why it ended.

    ``"bye"`` / ``"eof"`` mean keep listening, ``"shutdown"`` means the
    worker process should exit, ``"rejected"`` means the coordinator
    refused this worker.
    """
    send_msg(conn, {
        "type": "hello", "protocol": PROTOCOL_VERSION,
        "fingerprint": fingerprint, "pid": os.getpid(), "tag": tag,
    })
    greeting = recv_msg(conn)
    if greeting is None:
        return "eof"
    if not isinstance(greeting, dict):
        raise ProtocolError(f"bad greeting: {type(greeting).__name__}")
    if greeting.get("type") == "shutdown":
        return "shutdown"
    if greeting.get("type") == "reject":
        print(f"coordinator rejected this worker: "
              f"{greeting.get('reason', '?')}", file=sys.stderr)
        return "rejected"
    if greeting.get("type") != "welcome":
        raise ProtocolError(f"expected welcome, got {greeting.get('type')!r}")
    config.apply_task_env(greeting.get("env", {}))
    while True:
        msg = recv_msg(conn)
        if msg is None:
            return "eof"
        kind = msg.get("type") if isinstance(msg, dict) else None
        if kind == "run":
            _run_batch(conn, msg.get("tasks", ()))
        elif kind == "bye":
            return "bye"
        elif kind == "shutdown":
            return "shutdown"
        else:
            raise ProtocolError(f"unexpected frame type {kind!r}")


def serve_worker(host: str = "127.0.0.1", port: int = 0, *,
                 fingerprint: Optional[str] = None,
                 tag: Optional[str] = None,
                 port_file: Optional[str] = None,
                 once: bool = False,
                 max_idle: Optional[float] = None) -> int:
    """Run a sweep worker until told to stop; returns an exit code."""
    if fingerprint is None:
        from repro.cache.keys import model_fingerprint
        fingerprint = model_fingerprint()
    if tag is None:
        tag = _default_tag()

    stopping = []
    previous = signal.signal(
        signal.SIGTERM, lambda _sig, _frame: stopping.append(True))

    server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    try:
        server.bind((host, port))
        server.listen(1)
        bound_port = server.getsockname()[1]
        if port_file:
            _write_port_file(port_file, host, bound_port)
        print(f"sweep worker {tag} listening on {host}:{bound_port} "
              f"(fingerprint {fingerprint[:12]}...)", flush=True)
        # A short accept timeout keeps the loop responsive to SIGTERM
        # and lets --max-idle be enforced without a second thread.
        server.settimeout(0.5)
        idle_since = time.monotonic()
        while not stopping:
            if max_idle is not None \
                    and time.monotonic() - idle_since > max_idle:
                print(f"no coordinator in {max_idle:g}s; exiting",
                      flush=True)
                return 0
            try:
                conn, peer = server.accept()
            except socket.timeout:
                continue
            with conn:
                conn.settimeout(None)
                try:
                    ended = _serve_connection(conn, fingerprint, tag)
                except (OSError, ProtocolError) as exc:
                    print(f"connection from {peer[0]}:{peer[1]} failed: "
                          f"{exc}", file=sys.stderr, flush=True)
                    ended = "error"
            idle_since = time.monotonic()
            if ended == "shutdown":
                print("shutdown requested; exiting", flush=True)
                return 0
            if once:
                return 0
        print("SIGTERM; exiting", flush=True)
        return 0
    finally:
        signal.signal(signal.SIGTERM, previous)
        server.close()


def cmd_serve(args: argparse.Namespace) -> int:
    return serve_worker(
        args.host, args.port, fingerprint=args.fingerprint, tag=args.tag,
        port_file=args.port_file, once=args.once, max_idle=args.max_idle)


def cmd_stop(args: argparse.Namespace) -> int:
    (addr,) = parse_workers([args.address])
    try:
        with socket.create_connection(addr, timeout=args.timeout) as conn:
            hello = recv_msg(conn)
            if not isinstance(hello, dict) or hello.get("type") != "hello":
                print(f"{args.address} is not a sweep worker",
                      file=sys.stderr)
                return 2
            send_msg(conn, {"type": "shutdown"})
    except OSError as exc:
        print(f"cannot reach worker {args.address}: {exc}",
              file=sys.stderr)
        return 3
    print(f"worker {hello.get('tag', '?')} at {args.address} stopping")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sweepworkerctl",
        description="launch and control remote sweep workers")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("serve", help="run a worker (blocks)")
    p.add_argument("--host", default="127.0.0.1",
                   help="bind address (default localhost; think before "
                        "exposing a pickle endpoint more widely)")
    p.add_argument("--port", type=int, default=0,
                   help="listen port (0 = ephemeral; see --port-file)")
    p.add_argument("--port-file", default=None,
                   help="write the bound host:port here (atomic)")
    p.add_argument("--tag", default=None,
                   help="worker name in progress/traces "
                        "(default <hostname>-<pid>)")
    p.add_argument("--fingerprint", default=None,
                   help="override the source-tree fingerprint "
                        "(testing the handshake)")
    p.add_argument("--once", action="store_true",
                   help="exit after one coordinator connection")
    p.add_argument("--max-idle", type=float, default=None,
                   help="exit after this many idle seconds")
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser("stop", help="shut a worker down remotely")
    p.add_argument("address", help="host:port of the worker")
    p.add_argument("--timeout", type=float, default=5.0)
    p.set_defaults(fn=cmd_stop)
    return parser


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except RemoteBackendError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        return 130


if __name__ == "__main__":
    sys.exit(main())
