"""The load generator and the result line when the program misbehaves."""

import socket
import threading

from loadgen import Generator
from repro.durability.runtime import encode_event_frame
from repro.model import Event
from repro.service import protocol
from repro.service.protocol import FrameDecoder

import run


def _short_server(listener: socket.socket) -> None:
    """Serve one home: welcome at 0, then a ``synced`` one event short."""
    conn, _ = listener.accept()
    with conn:
        decoder = FrameDecoder()
        events = 0
        while True:
            data = conn.recv(65536)
            if not data:
                return
            for message in decoder.feed(data):
                if message["type"] == "hello":
                    conn.sendall(protocol.encode_message(protocol.welcome(0)))
                elif message["type"] == "event":
                    events += 1
                elif message["type"] == "sync":
                    conn.sendall(protocol.encode_message(protocol.synced(events - 1)))


def test_a_short_sync_count_is_recorded_not_raised():
    frames = [encode_event_frame(Event(float(t), "d1", 1.0)) for t in range(5)]
    with socket.create_server(("127.0.0.1", 0)) as listener:
        server = threading.Thread(target=_short_server, args=(listener,), daemon=True)
        server.start()
        gen = Generator(listener.getsockname()[1], [("h", frames, 0, len(frames))])
        try:
            result = gen.run_closed()
        finally:
            gen.close()
        server.join(timeout=10)
    assert not server.is_alive()
    assert gen.conns[0].reply == 4
    assert result["applied"] == 4


def test_a_run_that_stopped_early_prints_a_failed_result():
    record = {
        "error": "ServeError: server s1 exited with 1",
        "accounting": {"attempted": 12, "failed": 12, "failed_ratio": 1.0},
        "end_to_end": {"failed_ratio": 1.0},
    }
    spec = {"end_to_end": {"setup_s": {"unit": "s"}}, "per_layer": {}}
    for trace in (False, True):
        assert run._result(record, spec, trace) == {
            "correct": False, "attempted": 12, "failed": 12, "metrics": {},
        }
