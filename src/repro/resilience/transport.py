"""Length-prefixed JSON frames: the fabric's wire protocol.

The multi-host campaign fabric (:mod:`repro.resilience.fabric`) speaks
one deliberately boring protocol: every message is a single JSON object
encoded as UTF-8 and prefixed with its byte length as a 4-byte
big-endian unsigned integer.  Boring is the point — the frame boundary
is explicit, so a receiver can always tell "I have a whole message"
from "the sender died mid-frame", and the chaos proxy
(:mod:`repro.resilience.netchaos`) can drop, duplicate, delay, or tear
individual frames without having to understand their contents.

Three layers, smallest first:

* :func:`encode_frame` / :func:`split_frames` — pure bytes-level
  framing, shared by everything (including the chaos proxy, which
  forwards frames it never parses).
* :class:`FrameDecoder` — incremental decoder for non-blocking readers
  (the coordinator feeds it whatever ``recv`` returned and gets back
  complete messages).
* :class:`FrameConnection` — a blocking socket wrapper with a send
  lock, used by workers (whose heartbeat thread and main loop share
  one socket).

A torn frame — the stream ends inside a length prefix or payload — is
*not* an error at this layer; it is the crash signature the fabric is
built to survive.  Decoders simply report that no further message is
available, and the connection-level reader raises
:class:`TransportClosed` so callers enter their reconnect path.
"""

from __future__ import annotations

import json
import select
import socket
import struct
import threading
from typing import Any, Iterable

from ..errors import ResilienceError

#: Frame length prefix: 4-byte big-endian unsigned int.
LENGTH_PREFIX = struct.Struct(">I")

#: Upper bound on one frame's payload.  Campaign cells and records are
#: a few hundred bytes; anything near this bound is a corrupt or
#: hostile stream, not a message.
MAX_FRAME_BYTES = 8 * 1024 * 1024


class TransportError(ResilienceError):
    """A malformed frame (oversized, not JSON, not an object)."""


class TransportClosed(ResilienceError):
    """The peer went away (EOF, reset, or a torn frame at EOF)."""


def encode_frame(message: Any) -> bytes:
    """Serialize one JSON-able message to ``length || payload`` bytes."""
    payload = json.dumps(
        message, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    if len(payload) > MAX_FRAME_BYTES:
        raise TransportError(
            f"frame of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte bound"
        )
    return LENGTH_PREFIX.pack(len(payload)) + payload


def split_frames(buffer: bytes) -> tuple[list[bytes], bytes]:
    """Split ``buffer`` into complete raw frames (prefix included) and
    the unconsumed tail.  Used by the chaos proxy, which injects faults
    at frame granularity without parsing payloads."""
    frames: list[bytes] = []
    offset = 0
    while len(buffer) - offset >= LENGTH_PREFIX.size:
        (length,) = LENGTH_PREFIX.unpack_from(buffer, offset)
        if length > MAX_FRAME_BYTES:
            raise TransportError(
                f"frame length {length} exceeds the "
                f"{MAX_FRAME_BYTES}-byte bound"
            )
        end = offset + LENGTH_PREFIX.size + length
        if len(buffer) < end:
            break
        frames.append(buffer[offset:end])
        offset = end
    return frames, buffer[offset:]


def decode_payload(payload: bytes) -> dict[str, Any]:
    """Decode one frame payload into a message dict."""
    try:
        message = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise TransportError(f"frame payload is not JSON: {exc}") from exc
    if not isinstance(message, dict):
        raise TransportError(
            f"frame payload is {type(message).__name__}, expected object"
        )
    return message


class FrameDecoder:
    """Incremental frame decoder for non-blocking readers.

    Feed it whatever bytes arrived; it yields every complete message
    and buffers the rest.  A partial frame left in the buffer when the
    peer disconnects is a torn frame — the caller treats the
    disconnect exactly like any other crash.
    """

    def __init__(self) -> None:
        self._buffer = b""

    def feed(self, data: bytes) -> list[dict[str, Any]]:
        frames, self._buffer = split_frames(self._buffer + data)
        return [decode_payload(frame[LENGTH_PREFIX.size:]) for frame in frames]

    @property
    def torn(self) -> bool:
        """True when a partial frame is buffered (peer died mid-send)."""
        return bool(self._buffer)


class FrameConnection:
    """Blocking framed connection over a TCP socket.

    ``send`` is serialized by an internal lock so a worker's heartbeat
    thread and its main loop can share the socket without interleaving
    frame bytes.  ``recv`` blocks up to ``timeout`` seconds and returns
    ``None`` on timeout (so callers can interleave housekeeping), or
    raises :class:`TransportClosed` when the peer is gone.
    """

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self._send_lock = threading.Lock()
        self._decoder = FrameDecoder()
        self._ready: list[dict[str, Any]] = []

    def send(self, message: Any) -> None:
        frame = encode_frame(message)
        with self._send_lock:
            try:
                self.sock.sendall(frame)
            except OSError as exc:
                raise TransportClosed(f"send failed: {exc}") from exc

    def recv(self, timeout: float | None = None) -> dict[str, Any] | None:
        """Next message, ``None`` on timeout, :class:`TransportClosed`
        on EOF/reset (including EOF inside a frame)."""
        while not self._ready:
            self.sock.settimeout(timeout)
            try:
                data = self.sock.recv(65536)
            except (TimeoutError, socket.timeout):
                return None
            except OSError as exc:
                raise TransportClosed(f"recv failed: {exc}") from exc
            if not data:
                raise TransportClosed(
                    "peer closed mid-frame"
                    if self._decoder.torn
                    else "peer closed"
                )
            self._ready.extend(self._decoder.feed(data))
        return self._ready.pop(0)

    def peer_gone(self) -> bool:
        """True when the peer has already hung up (an EOF or a reset is
        waiting on the socket).  Never blocks and consumes nothing."""
        poller = select.poll()
        poller.register(self.sock, select.POLLIN)
        if not poller.poll(0):
            return False
        try:
            return not self.sock.recv(1, socket.MSG_PEEK)
        except OSError:
            return True

    def shutdown(self) -> None:
        """Force both directions shut so any thread blocked in
        ``send``/``recv`` (a heartbeat wedged in ``sendall`` against a
        blackholed peer) wakes up with :class:`TransportClosed`.  Does
        not release the fd — call :meth:`close` afterwards as usual."""
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:  # already closed/reset is exactly what we want
            pass

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:  # pragma: no cover - close is best-effort
            pass

    def __enter__(self) -> "FrameConnection":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def connect_framed(
    host: str, port: int, *, timeout: float = 5.0
) -> FrameConnection:
    """Dial ``host:port`` and wrap the socket."""
    sock = socket.create_connection((host, port), timeout=timeout)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return FrameConnection(sock)


def parse_endpoint(text: str) -> tuple[str, int]:
    """Parse ``HOST:PORT`` (the CLI's ``--connect`` / ``--listen``)."""
    host, sep, port = text.rpartition(":")
    if not sep or not host:
        raise ValueError(f"expected HOST:PORT, got {text!r}")
    return host, int(port)


def iter_messages(frames: Iterable[bytes]) -> list[dict[str, Any]]:
    """Decode raw frames (as produced by :func:`split_frames`)."""
    return [decode_payload(frame[LENGTH_PREFIX.size:]) for frame in frames]
