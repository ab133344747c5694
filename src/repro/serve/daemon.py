"""The TCP transport of the prediction service.

``repro serve --port N`` binds a :class:`ServeDaemon` — a threading TCP
server whose handler threads all dispatch into one shared
:class:`~repro.serve.service.PredictionService`, so every connection
sees the same warm caches, in-flight dedup table, and batcher. A
connection is a sequential JSON-RPC session: the client writes one
request line, reads the response line, and may keep the connection
open for further requests. Concurrency comes from concurrent
*connections* (one thread each).
"""

from __future__ import annotations

import socketserver
import threading
from typing import Any

from repro.serve import protocol
from repro.serve.service import PredictionService


class _Handler(socketserver.StreamRequestHandler):
    """One connection: read request lines, write replies."""

    server: "ServeDaemon"

    def handle(self) -> None:  # noqa: D102 - socketserver contract
        service = self.server.service
        write_lock = threading.Lock()
        try:
            peer = "%s:%d" % self.client_address[:2]
        except (TypeError, IndexError):
            peer = str(self.client_address)

        def send(message: dict[str, Any]) -> None:
            payload = protocol.encode(message)
            with write_lock:
                self.wfile.write(payload)
                self.wfile.flush()

        while True:
            try:
                message = protocol.read_message(self.rfile)
            except protocol.ProtocolError as exc:
                try:
                    send(protocol.error_response(
                        None, protocol.PARSE_ERROR, str(exc)))
                except OSError:
                    pass
                return
            if message is None:
                return
            response, shutdown = service.dispatch(message, peer=peer)
            try:
                send(response)
            except OSError:
                return
            if shutdown:
                self.server.request_shutdown()
                return


class ServeDaemon(socketserver.ThreadingTCPServer):
    """The long-lived TCP serving tier.

    Args:
        service: The shared prediction service (owns the warm state).
        host: Bind address (default loopback).
        port: Bind port; ``0`` picks a free port (read it back from
            :attr:`address`).
    """

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, service: PredictionService, *,
                 host: str = "127.0.0.1", port: int = 0) -> None:
        self.service = service
        super().__init__((host, port), _Handler)
        self._serve_thread: threading.Thread | None = None

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)``."""
        return self.socket.getsockname()[:2]

    def serve_forever(self, poll_interval: float = 0.05) -> None:
        """Accept connections until :meth:`shutdown`, checking for it
        every ``poll_interval`` seconds.

        :meth:`stop` and the ``shutdown`` RPC wait up to one interval
        for the loop to end; socketserver's 0.5 s default made each of
        them take half a second.
        """
        super().serve_forever(poll_interval)

    def start(self) -> None:
        """Serve in a background thread (tests, embedding)."""
        self._serve_thread = threading.Thread(
            target=self.serve_forever, name="repro-serve-accept",
            daemon=True)
        self._serve_thread.start()

    def request_shutdown(self) -> None:
        """Stop accepting from a handler thread (the ``shutdown``
        method) without deadlocking on ``serve_forever``'s loop."""
        threading.Thread(target=self.shutdown, daemon=True).start()

    def stop(self) -> None:
        """Stop the accept loop and close the listening socket."""
        self.shutdown()
        self.server_close()
        if self._serve_thread is not None:
            self._serve_thread.join(timeout=5.0)
            self._serve_thread = None
