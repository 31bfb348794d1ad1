"""Minimal HTTP/1.1 framing for the gateway — stdlib only, by design.

The gateway cannot assume aiohttp or any other server framework, so this
module hand-rolls the 10% of HTTP the serving endpoints need: GET request
lines with query strings, a header block, keep-alive connections and
``Content-Length``-framed JSON responses. Everything unusual (request
bodies, chunked encoding, upgrades) is answered with an error status rather
than implemented. HTTP/1.0 connections close after one response unless
the client asked for keep-alive.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from urllib.parse import parse_qsl, urlsplit

#: request header cap — a header block larger than this is a bad client
MAX_HEADER_BYTES = 16384

REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


class BadRequest(ValueError):
    """The bytes on the wire were not a parseable HTTP request."""


@dataclass
class Request:
    """One parsed request: method, path, query params, lowercase headers."""

    method: str
    path: str
    params: dict[str, str]
    headers: dict[str, str]
    version: str = "HTTP/1.1"
    #: per-request gateway context, attached by the server after parsing
    #: (not part of the wire format)
    trace: object | None = None

    def header(self, name: str, default: str | None = None) -> str | None:
        return self.headers.get(name.lower(), default)

    @property
    def wants_close(self) -> bool:
        connection = self.headers.get("connection", "").lower()
        if self.version == "HTTP/1.0":
            return "keep-alive" not in connection
        return "close" in connection


@dataclass
class Response:
    """One response: status plus a JSON-serialisable body and extra headers."""

    status: int = 200
    body: dict | list | str | None = None
    headers: dict[str, str] = field(default_factory=dict)
    content_type: str = "application/json"


def parse_request(raw: bytes) -> Request:
    """Parse a request head (everything before the blank line)."""
    try:
        text = raw.decode("latin-1")
    except UnicodeDecodeError as exc:  # pragma: no cover — latin-1 total
        raise BadRequest("undecodable request head") from exc
    lines = text.split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise BadRequest(f"malformed request line: {lines[0]!r}")
    method, target, version = parts
    split = urlsplit(target)
    params = dict(parse_qsl(split.query, keep_blank_values=True))
    headers: dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise BadRequest(f"malformed header line: {line!r}")
        headers[name.strip().lower()] = value.strip()
    # the body would be left on the wire and read as the next request head
    if "transfer-encoding" in headers or headers.get("content-length", "0") != "0":
        raise BadRequest("request bodies are not accepted")
    return Request(
        method=method.upper(),
        path=split.path or "/",
        params=params,
        headers=headers,
        version=version,
    )


def render_response(response: Response, *, close: bool = False) -> bytes:
    """Serialise a :class:`Response` with ``Content-Length`` framing."""
    body = response.body
    if body is None:
        payload = b""
    elif isinstance(body, (bytes, bytearray)):
        payload = bytes(body)
    elif isinstance(body, str):
        payload = body.encode("utf-8")
    else:
        payload = json.dumps(body).encode("utf-8")
    reason = REASONS.get(response.status, "Unknown")
    head = [
        f"HTTP/1.1 {response.status} {reason}",
        f"Content-Type: {response.content_type}",
        f"Content-Length: {len(payload)}",
        f"Connection: {'close' if close else 'keep-alive'}",
    ]
    for name, value in response.headers.items():
        head.append(f"{name}: {value}")
    return ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + payload


async def read_request_head(reader) -> bytes | None:
    """Read one request head off a stream; ``None`` on a clean EOF.

    Raises :class:`BadRequest` when the head outgrows
    :data:`MAX_HEADER_BYTES` — an unframed flood is indistinguishable
    from an attack, so the connection is refused rather than buffered.
    """
    try:
        raw = await reader.readuntil(b"\r\n\r\n")
    except EOFError:
        return None
    except Exception as exc:
        # IncompleteReadError on half-closed connections => clean EOF when
        # nothing arrived; LimitOverrunError => oversized head
        partial = getattr(exc, "partial", None)
        if partial is not None:
            if not partial:
                return None
            raise BadRequest("truncated request head") from exc
        if exc.__class__.__name__ == "LimitOverrunError":
            raise BadRequest("request head too large") from exc
        raise
    if len(raw) > MAX_HEADER_BYTES:
        raise BadRequest("request head too large")
    return raw[:-4]
