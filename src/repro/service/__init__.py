"""The network-facing ingest service (ROADMAP: async gateway service).

``repro.service`` turns the durable fleet gateway into a long-running
process using nothing beyond the standard library:

* :mod:`~repro.service.protocol` — the CRC-framed wire protocol shared
  with the event journal, plus the strict incremental decoder;
* :mod:`~repro.service.server` — the asyncio ingest server: bounded-queue
  admission control, load shedding with structured drop accounting, a
  Prometheus/health/readiness HTTP surface, graceful SIGTERM drain;
* :mod:`~repro.service.client` — the reconnect-and-resume retrying
  sender the ``repro send`` CLI and the network chaos harness drive;
* :mod:`~repro.service.signals` — the shared checkpoint-and-exit-0
  signal handling the stream/fleet CLIs reuse.
"""

from .. import _lazy_exports

#: Each exported name, by the submodule that defines it.  The package
#: imports them on first access, so ``repro.service.client`` (``repro
#: send``) loads neither the server nor the gateway stack behind it.
__all__, __getattr__, __dir__ = _lazy_exports(
    globals(),
    {
        "protocol": (
            "DEFAULT_MAX_FRAME_BYTES",
            "FrameDecoder",
            "ProtocolError",
            "encode_message",
        ),
        "server": (
            "QUEUE_DEPTH_GAUGE",
            "CONNECTIONS_TOTAL",
            "DISCONNECTS_TOTAL",
            "FRAMES_TOTAL",
            "SHED_TOTAL",
            "DUPLICATE_FRAMES_TOTAL",
            "IngestServer",
            "ServiceConfig",
            "ServiceThread",
        ),
        "client": ("ServiceClient", "ServiceError", "SendReport"),
        "signals": ("GracefulShutdown",),
    },
)
