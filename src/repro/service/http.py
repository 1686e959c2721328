"""A thin HTTP/1.1 layer over ``asyncio`` streams.

Deliberately minimal — the sweep service speaks a small JSON dialect to
trusted tools on a trusted network, so this is a request parser and a
response builder, not a web framework: no TLS, no chunked request
bodies, no keep-alive (every response closes the connection, which keeps
server state per-request and lets the drain path finish by just waiting
for open handlers). Limits are enforced up front: header block and body
sizes are bounded so a confused client cannot balloon server memory, and
a request must arrive whole within a time bound so a silent client
cannot hold a handler (and with it the drain path) open.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qsl, unquote, urlsplit

__all__ = ["HttpError", "Request", "read_request", "response",
           "json_response"]

_MAX_HEADER_BYTES = 32 * 1024
_MAX_BODY_BYTES = 32 * 1024 * 1024
#: Seconds a client has to send one whole request, head and body.
_REQUEST_TIMEOUT_S = 10.0

_REASONS = {
    200: "OK", 202: "Accepted", 204: "No Content",
    400: "Bad Request", 404: "Not Found", 405: "Method Not Allowed",
    408: "Request Timeout", 409: "Conflict", 413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error", 503: "Service Unavailable",
}


class HttpError(Exception):
    """A malformed request; ``status`` is the response to send."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


@dataclass
class Request:
    """One parsed request."""

    method: str
    path: str
    query: Dict[str, str] = field(default_factory=dict)
    headers: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    def json(self) -> Any:
        if not self.body:
            return None
        try:
            return json.loads(self.body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise HttpError(400, f"request body is not valid JSON: {exc}")
        except RecursionError:
            raise HttpError(400, "request body is nested too deeply")

    def header(self, name: str, default: str = "") -> str:
        return self.headers.get(name.lower(), default)


async def read_request(reader) -> Optional[Request]:
    """Parse one request from ``reader``; ``None`` on a clean EOF. A
    request not received whole within ``_REQUEST_TIMEOUT_S`` is a 408."""
    try:
        return await asyncio.wait_for(_read_request(reader),
                                      _REQUEST_TIMEOUT_S)
    except asyncio.TimeoutError:
        raise HttpError(408, f"request not received within "
                             f"{_REQUEST_TIMEOUT_S:g} s") from None


async def _read_request(reader) -> Optional[Request]:
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except Exception as exc:  # IncompleteReadError, LimitOverrun, reset
        if isinstance(exc, asyncio.IncompleteReadError):
            if not exc.partial:
                return None  # connection closed between requests
            raise HttpError(400, "truncated request head")
        if isinstance(exc, asyncio.LimitOverrunError):
            raise HttpError(413, "request head too large")
        raise HttpError(400, f"unreadable request: {exc}")
    if len(head) > _MAX_HEADER_BYTES:
        raise HttpError(413, "request head too large")

    try:
        lines = head.decode("latin-1").split("\r\n")
        method, target, version = lines[0].split(" ", 2)
    except (UnicodeDecodeError, ValueError):
        raise HttpError(400, "malformed request line")
    if not version.startswith("HTTP/1."):
        raise HttpError(400, f"unsupported protocol {version!r}")

    headers: Dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise HttpError(400, f"malformed header line {line!r}")
        headers[name.strip().lower()] = value.strip()

    try:
        split = urlsplit(target)
    except ValueError:  # e.g. an unclosed "[" in an authority
        raise HttpError(400, f"malformed request target {target!r}")
    query = {key: value for key, value
             in parse_qsl(split.query, keep_blank_values=True)}

    body = b""
    if "content-length" in headers:
        try:
            length = int(headers["content-length"])
        except ValueError:
            raise HttpError(400, "malformed Content-Length")
        if length < 0 or length > _MAX_BODY_BYTES:
            raise HttpError(413, f"body of {length} bytes refused")
        if length:
            try:
                body = await reader.readexactly(length)
            except Exception:
                raise HttpError(400, "truncated request body")
    elif headers.get("transfer-encoding"):
        raise HttpError(400, "chunked request bodies are not supported")

    return Request(method=method.upper(), path=unquote(split.path),
                   query=query, headers=headers, body=body)


def response(status: int, body: bytes = b"",
             content_type: str = "application/json",
             extra_headers: Tuple[Tuple[str, str], ...] = ()) -> bytes:
    reason = _REASONS.get(status, "Unknown")
    lines = [f"HTTP/1.1 {status} {reason}",
             f"Content-Type: {content_type}",
             f"Content-Length: {len(body)}",
             "Connection: close"]
    lines.extend(f"{name}: {value}" for name, value in extra_headers)
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


def json_response(status: int, payload: Any,
                  extra_headers: Tuple[Tuple[str, str], ...] = ()) -> bytes:
    body = json.dumps(payload, sort_keys=True).encode("utf-8")
    return response(status, body, "application/json", extra_headers)
