"""Wire-protocol framing: roundtrips plus the seeded decoder fuzz suite."""

import json

import numpy as np
import pytest

from repro.durability.journal import FRAME_HEADER, frame_payload
from repro.durability.runtime import encode_event_frame
from repro.model import Event
from repro.service import protocol
from repro.service.protocol import (
    DEFAULT_MAX_FRAME_BYTES,
    HEADER_SIZE,
    FrameDecoder,
    ProtocolError,
    encode_message,
)


def _messages(count: int) -> list:
    out = []
    for i in range(count):
        out.append(protocol.hello(f"home-{i:04d}"))
        out.append(protocol.welcome(i))
        out.append(protocol.resume(i))
        out.append(protocol.ack(i * 3))
        out.append(protocol.end(float(i)))
    return out


class TestRoundtrip:
    def test_control_messages_roundtrip(self):
        decoder = FrameDecoder()
        sent = _messages(4)
        blob = b"".join(encode_message(m) for m in sent)
        assert decoder.feed(blob) == sent
        assert decoder.buffered == 0
        assert not decoder.dead

    def test_event_frame_is_journal_record_bytes(self):
        """The wire event frame IS the journal record — byte-identical."""
        from repro.durability.journal import encode_record

        event = Event(1234.5, "motion_kitchen", 1.0)
        frame = encode_event_frame(event)
        record = {"d": "motion_kitchen", "t": 1234.5, "type": "event", "v": 1.0}
        assert frame == encode_record(record)
        decoder = FrameDecoder()
        assert decoder.feed(frame) == [record]

    def test_partial_frame_held_until_complete(self):
        decoder = FrameDecoder()
        frame = encode_message(protocol.sync())
        assert decoder.feed(frame[:3]) == []
        assert decoder.buffered == 3
        assert decoder.feed(frame[3:]) == [protocol.sync()]
        assert decoder.buffered == 0

    def test_oversized_length_rejected_before_buffering(self):
        decoder = FrameDecoder(max_frame_bytes=64)
        header = FRAME_HEADER.pack(1 << 20, 0)
        with pytest.raises(ProtocolError, match="exceeds"):
            decoder.feed(header)
        assert decoder.dead
        assert decoder.buffered == 0

    def test_crc_mismatch_rejected(self):
        decoder = FrameDecoder()
        frame = bytearray(encode_message(protocol.sync()))
        frame[-1] ^= 0xFF
        with pytest.raises(ProtocolError, match="CRC"):
            decoder.feed(bytes(frame))
        assert decoder.dead

    def test_non_object_payload_rejected(self):
        decoder = FrameDecoder()
        with pytest.raises(ProtocolError, match="typed object"):
            decoder.feed(frame_payload(b"[1,2,3]"))

    def test_untyped_object_rejected(self):
        decoder = FrameDecoder()
        with pytest.raises(ProtocolError, match="typed object"):
            decoder.feed(frame_payload(json.dumps({"a": 1}).encode()))

    def test_poisoned_decoder_stays_dead(self):
        decoder = FrameDecoder()
        with pytest.raises(ProtocolError):
            decoder.feed(frame_payload(b"not json"))
        with pytest.raises(ProtocolError, match="poisoned"):
            decoder.feed(encode_message(protocol.sync()))

    def test_payload_nested_past_the_recursion_limit_poisons(self):
        decoder = FrameDecoder()
        depth = 30000  # far past the recursion limit, within the frame bound
        payload = b"[" * depth + b"]" * depth
        with pytest.raises(ProtocolError, match="not valid JSON"):
            decoder.feed(frame_payload(payload))
        assert decoder.dead

    def test_messages_before_poison_are_preserved(self):
        decoder = FrameDecoder()
        good = encode_message(protocol.ack(7))
        bad = bytearray(encode_message(protocol.sync()))
        bad[-1] ^= 0xFF
        with pytest.raises(ProtocolError) as excinfo:
            decoder.feed(good + bytes(bad))
        assert excinfo.value.messages == [protocol.ack(7)]

    def test_max_frame_bytes_validation(self):
        with pytest.raises(ValueError):
            FrameDecoder(max_frame_bytes=0)
        with pytest.raises(ValueError):
            FrameDecoder(max_frame_bytes=(1 << 20) + 1)


class TestFuzz:
    """Satellite: seeded randomized decoder fuzzing.

    Whatever the split points, garbage injections or truncations, the
    decoder must (a) never raise anything but ProtocolError, (b) preserve
    every intact frame up to the first corruption, and (c) never carry a
    poisoned stream forward.
    """

    def _drive(self, decoder, blob, rng):
        """Feed *blob* in random-sized chunks; return (messages, error)."""
        out = []
        offset = 0
        while offset < len(blob):
            step = 1 + int(rng.integers(64))
            chunk = bytes(blob[offset : offset + step])
            offset += step
            try:
                out.extend(decoder.feed(chunk))
            except ProtocolError as exc:
                out.extend(getattr(exc, "messages", []))
                return out, exc
        return out, None

    @pytest.mark.parametrize("seed", range(8))
    def test_random_splits_preserve_all_frames(self, seed):
        rng = np.random.default_rng(seed)
        sent = _messages(10)
        blob = b"".join(encode_message(m) for m in sent)
        got, err = self._drive(FrameDecoder(), blob, rng)
        assert err is None
        assert got == sent

    @pytest.mark.parametrize("seed", range(8))
    def test_garbage_injection_never_escapes_protocol_error(self, seed):
        rng = np.random.default_rng(100 + seed)
        sent = _messages(6)
        frames = [encode_message(m) for m in sent]
        cut = int(rng.integers(len(frames) + 1))
        garbage = rng.integers(0, 256, size=int(rng.integers(1, 64)),
                               dtype=np.uint8).tobytes()
        blob = b"".join(frames[:cut]) + garbage + b"".join(frames[cut:])
        decoder = FrameDecoder()
        got, err = self._drive(decoder, blob, rng)
        # Every frame before the corruption point must have survived.
        prefix = sent[:cut]
        assert got[: len(prefix)] == prefix
        if err is not None:
            assert isinstance(err, ProtocolError)
            assert decoder.dead

    @pytest.mark.parametrize("seed", range(8))
    def test_truncation_holds_partial_frame_without_error(self, seed):
        rng = np.random.default_rng(200 + seed)
        sent = _messages(6)
        blob = b"".join(encode_message(m) for m in sent)
        cut = int(rng.integers(1, len(blob)))
        decoder = FrameDecoder()
        got, err = self._drive(decoder, blob[:cut], rng)
        assert err is None  # a truncated tail is pending, not malformed
        assert got == sent[: len(got)]
        assert decoder.buffered <= HEADER_SIZE + DEFAULT_MAX_FRAME_BYTES

    @pytest.mark.parametrize("seed", range(4))
    def test_bitflip_anywhere_is_contained(self, seed):
        rng = np.random.default_rng(300 + seed)
        sent = _messages(4)
        blob = bytearray(b"".join(encode_message(m) for m in sent))
        blob[int(rng.integers(len(blob)))] ^= 1 << int(rng.integers(8))
        got, err = self._drive(FrameDecoder(), bytes(blob), rng)
        # Either the flip landed somewhere harmless (decoded fine) or it
        # raised ProtocolError; any decoded prefix must match the original.
        assert got == sent[: len(got)] or err is not None
        for message in got:
            assert message in sent
