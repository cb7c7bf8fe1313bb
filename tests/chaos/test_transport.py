"""The fabric's wire protocol: length-prefixed JSON frames.

Torn frames are a crash signature, not a protocol error — the decoder
must distinguish "no complete message yet" from "garbage", and the
blocking connection must turn EOF-inside-a-frame into the reconnect
path rather than a parse failure.
"""

import socket
import threading

import pytest

from repro.resilience import (
    FrameConnection,
    FrameDecoder,
    TransportClosed,
    TransportError,
    encode_frame,
    parse_endpoint,
    split_frames,
)
from repro.resilience.transport import (
    LENGTH_PREFIX,
    MAX_FRAME_BYTES,
    decode_payload,
    iter_messages,
)


class TestFraming:
    def test_roundtrip(self):
        message = {"type": "lease", "index": 3, "cell": {"seed": 7}}
        frames, rest = split_frames(encode_frame(message))
        assert rest == b""
        assert iter_messages(frames) == [message]

    def test_encoding_is_canonical(self):
        # Same message, same bytes — retransmissions are literally
        # byte-identical, which the dedup layers rely on.
        a = encode_frame({"b": 1, "a": 2})
        b = encode_frame({"a": 2, "b": 1})
        assert a == b

    def test_split_keeps_partial_tail(self):
        frame = encode_frame({"n": 1})
        frames, rest = split_frames(frame + frame[:5])
        assert len(frames) == 1
        assert rest == frame[:5]

    def test_split_many(self):
        blob = b"".join(encode_frame({"n": i}) for i in range(10))
        frames, rest = split_frames(blob)
        assert [m["n"] for m in iter_messages(frames)] == list(range(10))
        assert rest == b""

    def test_oversize_length_rejected(self):
        bogus = LENGTH_PREFIX.pack(MAX_FRAME_BYTES + 1) + b"x"
        with pytest.raises(TransportError):
            split_frames(bogus)

    def test_non_object_payload_rejected(self):
        with pytest.raises(TransportError):
            decode_payload(b"[1,2,3]")
        with pytest.raises(TransportError):
            decode_payload(b"\xff\xfe")


class TestFrameDecoder:
    def test_message_split_across_feeds(self):
        frame = encode_frame({"type": "heartbeat", "leases": [4]})
        decoder = FrameDecoder()
        out = []
        for i in range(len(frame)):  # one byte at a time
            out.extend(decoder.feed(frame[i : i + 1]))
        assert out == [{"type": "heartbeat", "leases": [4]}]
        assert not decoder.torn

    def test_torn_frame_is_visible(self):
        frame = encode_frame({"big": "x" * 100})
        decoder = FrameDecoder()
        assert decoder.feed(frame[:20]) == []
        assert decoder.torn  # peer died mid-send: crash signature

    def test_torn_inside_length_prefix(self):
        decoder = FrameDecoder()
        assert decoder.feed(b"\x00\x00") == []
        assert decoder.torn


class TestFrameConnection:
    def _pair(self) -> tuple[FrameConnection, FrameConnection]:
        a, b = socket.socketpair()
        return FrameConnection(a), FrameConnection(b)

    def test_send_recv(self):
        left, right = self._pair()
        with left, right:
            left.send({"type": "register", "name": "w"})
            assert right.recv(timeout=2.0) == {
                "type": "register",
                "name": "w",
            }

    def test_recv_timeout_returns_none(self):
        left, right = self._pair()
        with left, right:
            assert right.recv(timeout=0.05) is None

    def test_eof_raises_closed(self):
        left, right = self._pair()
        with right:
            left.close()
            with pytest.raises(TransportClosed):
                right.recv(timeout=2.0)

    def test_peer_gone_sees_hangup_without_consuming(self):
        left, right = self._pair()
        with right:
            assert not right.peer_gone()
            left.send({"n": 1})
            assert not right.peer_gone()  # pending data is not a hangup
            assert right.recv(timeout=2.0) == {"n": 1}  # nor consumed
            left.close()
            assert right.peer_gone()

    def test_eof_mid_frame_raises_closed(self):
        left, right = self._pair()
        frame = encode_frame({"n": 1})
        with right:
            left.sock.sendall(frame[: len(frame) - 2])
            left.close()
            with pytest.raises(TransportClosed, match="mid-frame"):
                right.recv(timeout=2.0)

    def test_concurrent_sends_do_not_interleave(self):
        left, right = self._pair()
        with left, right:
            threads = [
                threading.Thread(
                    target=lambda i=i: [
                        left.send({"who": i, "n": j}) for j in range(50)
                    ]
                )
                for i in range(4)
            ]
            for t in threads:
                t.start()
            got = [right.recv(timeout=5.0) for _ in range(200)]
            for t in threads:
                t.join()
        assert all(m is not None for m in got)  # every frame parsed whole


class TestParseEndpoint:
    def test_host_port(self):
        assert parse_endpoint("127.0.0.1:9000") == ("127.0.0.1", 9000)

    @pytest.mark.parametrize("bad", ["nohost", ":123", "h:", "h:x"])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_endpoint(bad)
