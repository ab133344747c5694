"""Thin client for the ``repro serve`` daemon.

A :class:`ServeClient` wraps one protocol session — a TCP connection
(:meth:`ServeClient.connect`) — behind typed call methods. Each call
writes one request line and reads lines until the matching response
arrives.

One client is one session and is **not** thread-safe; concurrent
callers each open their own (connections are cheap — the expensive
state lives in the daemon). The CLI's ``repro predict --connect`` and
the service-throughput benchmark both drive this class.

Telemetry: :meth:`call` accepts a ``trace_id`` that rides in the
request envelope (see :mod:`repro.serve.protocol`) and records the
client-side half of the round trip as a wire span in
:attr:`ServeClient.last_call_spans` — what
:func:`repro.obs.stitch.stitch_trace` merges with the daemon-side
spans a traced ``predict`` returns.
"""

from __future__ import annotations

import socket
import time
from typing import Any, BinaryIO, Callable

from repro.errors import ReproError
from repro.obs.stitch import wire_span
from repro.serve import protocol
from repro.serve.protocol import RemoteError


class ServeClient:
    """A JSON-RPC session with a running prediction daemon."""

    def __init__(self, reader: BinaryIO, writer: BinaryIO, *,
                 on_close: Callable[[], None] | None = None) -> None:
        self._reader = reader
        self._writer = writer
        self._on_close = on_close
        self._next_id = 0
        self._closed = False
        #: Client-side wire spans of the most recent :meth:`call` made
        #: with a ``trace_id`` (cleared and refilled per traced call).
        self.last_call_spans: list[dict[str, Any]] = []

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def connect(cls, host: str, port: int,
                timeout: float | None = None) -> "ServeClient":
        """Open a TCP session to a daemon at ``host:port``."""
        try:
            sock = socket.create_connection((host, port), timeout=timeout)
        except OSError as exc:
            raise ReproError(
                f"cannot reach a repro daemon at {host}:{port} ({exc}); "
                f"start one with `repro serve --port {port}`") from exc
        sock.settimeout(None)
        reader = sock.makefile("rb")
        writer = sock.makefile("wb")

        def close() -> None:
            for stream in (reader, writer):
                try:
                    stream.close()
                except OSError:
                    pass
            sock.close()

        return cls(reader, writer, on_close=close)

    # ------------------------------------------------------------------
    # Session plumbing
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Tear down the session (the daemon keeps running)."""
        if not self._closed:
            self._closed = True
            if self._on_close is not None:
                self._on_close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.close()

    def call(self, method: str, params: dict[str, Any] | None = None, *,
             trace_id: str | None = None) -> Any:
        """One request/response round trip.

        When ``trace_id`` is given it rides in the request envelope and
        the round trip is recorded as a ``client.call`` wire span in
        :attr:`last_call_spans`.

        Raises:
            RemoteError: The server answered with a JSON-RPC error.
            ReproError: The session broke mid-call.
        """
        if self._closed:
            raise ReproError("client session is closed")
        self._next_id += 1
        request_id = self._next_id
        if trace_id is not None:
            self.last_call_spans = []
            call_start = time.time()
        self._writer.write(protocol.encode(
            protocol.request(request_id, method, params,
                             trace_id=trace_id)))
        self._writer.flush()
        try:
            while True:
                message = protocol.read_message(self._reader)
                if message is None:
                    self.close()
                    raise ReproError(
                        f"server closed the connection during {method!r}")
                if message.get("id") != request_id:
                    continue  # stale reply from an aborted earlier call
                error = message.get("error")
                if error is not None:
                    raise RemoteError(error.get("code",
                                                protocol.INTERNAL_ERROR),
                                      error.get("message", "server error"),
                                      error.get("data"))
                return message.get("result")
        finally:
            if trace_id is not None:
                now = time.time()
                self.last_call_spans.append(wire_span(
                    "client.call", "client", call_start, now - call_start,
                    method=method, trace_id=trace_id))

    # ------------------------------------------------------------------
    # Typed calls
    # ------------------------------------------------------------------
    def ping(self) -> bool:
        """Liveness check."""
        return bool(self.call("ping").get("ok"))

    def predict(self, *, description: dict[str, Any] | None = None,
                preset: str | None = None,
                granularity: str | None = None,
                zero_stage: int | None = None,
                workload: dict[str, Any] | None = None,
                trace: bool = False,
                trace_id: str | None = None) -> dict[str, Any]:
        """Predict one plan (an :class:`InputDescription` dict or a
        preset key); returns the prediction payload.

        ``workload`` is a serialised workload envelope (e.g.
        ``InferenceWorkload.to_dict()``) forwarded to the daemon
        unchanged; omitting it predicts the training workload.

        With ``trace=True`` the daemon returns its wall-clock spans
        (and pid) in the payload's ``served`` dict; pair with a
        ``trace_id`` so the response is stitchable against
        :attr:`last_call_spans`."""
        params: dict[str, Any] = {}
        if description is not None:
            params["description"] = description
        if preset is not None:
            params["preset"] = preset
        if granularity is not None:
            params["granularity"] = granularity
        if zero_stage is not None:
            params["zero_stage"] = zero_stage
        if workload is not None:
            params["workload"] = workload
        if trace:
            params["trace"] = True
        return self.call("predict", params, trace_id=trace_id)

    def stats(self) -> dict[str, Any]:
        """The daemon's serving metrics (req/s, p50/p99, hit rates)."""
        return self.call("stats")

    def metrics(self) -> dict[str, Any]:
        """The daemon's full metrics registry as a snapshot
        (``repro stats --connect`` prints it)."""
        return self.call("metrics")

    def shutdown(self) -> None:
        """Ask the daemon to stop accepting and exit."""
        self.call("shutdown")
        self.close()
