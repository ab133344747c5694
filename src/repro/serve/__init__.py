"""repro.serve — prediction-as-a-service (the ``repro serve`` daemon).

One resident process owns the warm state every prediction benefits
from — profiled operator tables, the process-wide LRU structure cache,
a persistent prediction cache — and serves concurrent ``predict``
requests over newline-delimited JSON-RPC on TCP, deduplicating
identical in-flight fingerprints and micro-batching concurrent retimes
into vectorized sweeps. See :mod:`repro.serve.service` for the serving
semantics, :mod:`repro.serve.daemon` for the TCP transport, and
:mod:`repro.serve.client` for the thin client the CLI's
``predict --connect`` uses.
"""

from repro.serve.client import ServeClient
from repro.serve.daemon import ServeDaemon
from repro.serve.protocol import ProtocolError, RemoteError
from repro.serve.service import PredictionService

__all__ = [
    "PredictionService", "ProtocolError", "RemoteError", "ServeClient",
    "ServeDaemon",
]
