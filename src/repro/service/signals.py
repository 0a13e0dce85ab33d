"""Shared graceful-shutdown plumbing for the CLIs and the service.

A long-running ``repro stream`` / ``repro fleet`` / ``repro serve`` must
treat SIGTERM (and a operator's Ctrl-C) as *drain*, not *die*: stop
consuming, flush what is in flight, write a checkpoint, exit 0.  The
synchronous CLIs get that from :class:`GracefulShutdown` — a context
manager that swaps in flag-setting handlers and exposes ``requested`` for
the ingest loop to poll between events — while the asyncio service wires
the same signals straight to :meth:`IngestServer.drain` on its loop.
"""

from __future__ import annotations

import signal
from typing import List, Optional, Tuple

from .. import telemetry

__all__ = ["GracefulShutdown"]

_log = telemetry.get_logger("repro.service.signals")

#: The signals a deployment sends a process it wants gone politely.
_SIGNALS = (signal.SIGTERM, signal.SIGINT)


class GracefulShutdown:
    """Install SIGTERM/SIGINT handlers that request — not force — a stop.

    Inside the ``with`` block, ``requested`` flips to True on the first
    signal (recording which one); a second signal of the same kind falls
    back to the previous handler, so a stuck drain can still be killed
    the ordinary way.  Handlers are restored on exit.
    """

    def __init__(self) -> None:
        self.requested = False
        self.signal_name: Optional[str] = None
        self._previous: List[Tuple[int, object]] = []

    def _handler(self, signum, frame) -> None:
        if self.requested:
            # Second signal: the operator means it. Restore and re-raise
            # through the original disposition.
            self._restore()
            signal.raise_signal(signum)
            return
        self.requested = True
        self.signal_name = signal.Signals(signum).name
        _log.info("shutdown_requested", signal=self.signal_name)

    def __enter__(self) -> "GracefulShutdown":
        self._previous = []
        for signum in _SIGNALS:
            try:
                previous = signal.signal(signum, self._handler)
            except (ValueError, OSError):  # non-main thread / exotic platform
                continue
            self._previous.append((signum, previous))
        return self

    def _restore(self) -> None:
        for signum, previous in self._previous:
            try:
                signal.signal(signum, previous)
            except (ValueError, OSError):  # pragma: no cover
                pass
        self._previous = []

    def __exit__(self, *exc_info) -> None:
        self._restore()
