"""Wire protocol of the ``repro serve`` daemon.

Newline-delimited JSON-RPC 2.0 over a TCP byte stream. Two message
shapes:

* request — ``{"jsonrpc": "2.0", "id": N, "method": "...", "params":
  {...}}``; the client picks ``id`` and the response echoes it.
* response — ``{"jsonrpc": "2.0", "id": N, "result": {...}}`` on
  success, ``{"jsonrpc": "2.0", "id": N, "error": {"code": C,
  "message": "..."}}`` on failure.

Requests may additionally carry a ``trace_id`` member — a
client-minted request/trace identifier (see
:mod:`repro.obs.context`). The daemon binds it for the request's
lifetime, tagging every span, access-log line, and dedup/batch
decision, which is what lets the stitcher join the client-side and
daemon-side halves of one request into a single Chrome trace. It is an
extension member in the JSON-RPC 2.0 sense: servers that do not know
it ignore it.

Every message is one ``\\n``-terminated UTF-8 line of compact JSON
(requests and results never contain raw newlines). Floats survive the
round trip exactly — ``json`` serialises via ``repr`` — which is what
lets the acceptance tests pin served predictions bit-identical to
direct :class:`~repro.sim.estimator.VTrain` calls.
"""

from __future__ import annotations

import json
from typing import Any, BinaryIO

from repro.errors import ReproError

JSONRPC_VERSION = "2.0"

#: Maximum accepted message size (a predict carrying a full input
#: description is under 1 KB; a frame this large is a framing bug).
MAX_MESSAGE_BYTES = 64 * 1024 * 1024

# JSON-RPC 2.0 pre-defined error codes, plus application codes in the
# implementation-defined -32000..-32099 server-error band.
PARSE_ERROR = -32700
INVALID_REQUEST = -32600
METHOD_NOT_FOUND = -32601
INVALID_PARAMS = -32602
INTERNAL_ERROR = -32603
#: The plan is structurally invalid or exceeds GPU memory.
INFEASIBLE = -32000
#: The daemon is shutting down and no longer accepts work.
SHUTTING_DOWN = -32001


class ProtocolError(ReproError):
    """A malformed or oversized message on the wire."""


class RemoteError(ReproError):
    """A request the server answered with a JSON-RPC error object."""

    def __init__(self, code: int, message: str,
                 data: Any = None) -> None:
        super().__init__(message)
        self.code = code
        self.data = data


def encode(message: dict[str, Any]) -> bytes:
    """One wire frame: compact JSON + the terminating newline."""
    return json.dumps(message, separators=(",", ":")).encode("utf-8") + b"\n"


def decode_line(line: bytes) -> dict[str, Any]:
    """Parse one received frame.

    Raises:
        ProtocolError: Not valid JSON, or not a JSON object.
    """
    try:
        message = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"invalid message frame: {exc}") from exc
    if not isinstance(message, dict):
        raise ProtocolError(
            f"message frame must be a JSON object, got "
            f"{type(message).__name__}")
    return message


def read_message(stream: BinaryIO) -> dict[str, Any] | None:
    """Read the next frame from a blocking byte stream.

    Returns ``None`` on a clean EOF (peer closed the connection between
    messages).

    Raises:
        ProtocolError: Truncated frame, oversized frame, or bad JSON.
    """
    line = stream.readline(MAX_MESSAGE_BYTES + 1)
    if not line:
        return None
    if not line.endswith(b"\n"):
        if len(line) > MAX_MESSAGE_BYTES:
            raise ProtocolError(
                f"message exceeds {MAX_MESSAGE_BYTES} bytes")
        raise ProtocolError("connection closed mid-message")
    return decode_line(line)


def request(request_id: int, method: str,
            params: dict[str, Any] | None = None, *,
            trace_id: str | None = None) -> dict[str, Any]:
    """Build a request message (optionally carrying a trace ID)."""
    message: dict[str, Any] = {"jsonrpc": JSONRPC_VERSION,
                               "id": request_id, "method": method}
    if params is not None:
        message["params"] = params
    if trace_id is not None:
        message["trace_id"] = trace_id
    return message


def response(request_id: int | None, result: Any) -> dict[str, Any]:
    """Build a success response."""
    return {"jsonrpc": JSONRPC_VERSION, "id": request_id, "result": result}


def error_response(request_id: int | None, code: int, message: str,
                   data: Any = None) -> dict[str, Any]:
    """Build an error response."""
    error: dict[str, Any] = {"code": code, "message": message}
    if data is not None:
        error["data"] = data
    return {"jsonrpc": JSONRPC_VERSION, "id": request_id, "error": error}


def parse_request(message: dict[str, Any]) -> tuple[int | None, str,
                                                    dict[str, Any]]:
    """Validate an incoming request; returns ``(id, method, params)``.

    Raises:
        ProtocolError: Missing/ill-typed fields (the caller answers
            with an ``INVALID_REQUEST`` error).
    """
    request_id = message.get("id")
    if request_id is not None and reply_id(message) is None:
        raise ProtocolError("request id must be an integer or string")
    method = message.get("method")
    if not isinstance(method, str) or not method:
        raise ProtocolError("request has no method")
    params = message.get("params", {})
    if not isinstance(params, dict):
        raise ProtocolError("request params must be an object")
    return request_id, method, params


def reply_id(message: dict[str, Any]) -> int | str | None:
    """The id a reply to ``message`` carries: its own when it is an
    integer or a string, else ``null`` (JSON-RPC 2.0 §5)."""
    request_id = message.get("id")
    return request_id if type(request_id) in (int, str) else None


def trace_id_of(message: dict[str, Any]) -> str | None:
    """The envelope's ``trace_id``, if present and well-typed.

    A malformed trace ID is dropped rather than rejected — telemetry
    must never fail a request that would otherwise succeed.
    """
    trace_id = message.get("trace_id")
    return trace_id if isinstance(trace_id, str) and trace_id else None
