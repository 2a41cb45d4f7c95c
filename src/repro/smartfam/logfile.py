"""The log-file wire format of the smartFAM channel.

"The log file of each data-intensive module is an efficient channel for
the host node to communicate with the smart-storage node" (Section IV-A).
A log file is an append-only sequence of records; each record is either an
``invoke`` (host -> SD: input parameters) or a ``result`` (SD -> host).
Records carry a sequence number so concurrent callers and stale reads are
unambiguous.

The simulated file payload is a sequence of framed records: a
``<length:u32><kind:u8><seq:u64>`` header (little-endian) in front of each
record's own pickle.  Appending concatenates one frame, and a lookup walks
the headers and unpickles only the record it returns, so a channel's cost
does not grow with its history.  The *declared* file size grows by a fixed
record size per append, which is what the disk and NFS cost models charge.
"""

from __future__ import annotations

import dataclasses
import pickle
import struct
import typing as _t

from repro.errors import ProtocolError

__all__ = ["INVOKE", "RESULT", "LogRecord", "LogFileCodec"]

INVOKE = "invoke"
RESULT = "result"


@dataclasses.dataclass
class LogRecord:
    """One entry in a module's log file."""

    kind: str
    seq: int
    module: str
    body: object = None
    ok: bool = True

    def __post_init__(self) -> None:
        if self.kind not in (INVOKE, RESULT):
            raise ProtocolError(f"unknown record kind {self.kind!r}")
        if self.seq < 0:
            raise ProtocolError(f"negative sequence number {self.seq}")


#: the frame header in front of every record's pickle
_FRAME = struct.Struct("<IBQ")
_KIND_CODES = {INVOKE: 0, RESULT: 1}
_KINDS = (INVOKE, RESULT)


def _frame(record: LogRecord) -> bytes:
    body = pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL)
    return _FRAME.pack(len(body), _KIND_CODES[record.kind], record.seq) + body


def _frames(payload: bytes | None) -> list[tuple[str, int, int, int]]:
    """``(kind, seq, body offset, body length)`` per record; raises
    :class:`~repro.errors.ProtocolError` unless the headers tile the
    payload exactly."""
    frames = []
    if not payload:
        return frames
    end = len(payload)
    off = 0
    while off < end:
        if off + _FRAME.size > end:
            raise ProtocolError(f"corrupt log file: torn header at byte {off}")
        length, code, seq = _FRAME.unpack_from(payload, off)
        off += _FRAME.size
        if code >= len(_KINDS) or off + length > end:
            raise ProtocolError(f"corrupt log file: bad frame at byte {off}")
        frames.append((_KINDS[code], seq, off, length))
        off += length
    return frames


def _load(payload: bytes, frame: tuple[str, int, int, int]) -> LogRecord:
    """Unpickle one framed record and check it against its header."""
    kind, seq, off, length = frame
    try:
        record = pickle.loads(payload[off : off + length])
    except Exception as exc:
        raise ProtocolError(f"corrupt log file: {exc}") from exc
    if not isinstance(record, LogRecord) or (record.kind, record.seq) != (kind, seq):
        raise ProtocolError("log file frame does not hold its LogRecord")
    return record


class LogFileCodec:
    """Encode/decode the framed records carried in a log file payload."""

    @staticmethod
    def encode(records: _t.Sequence[LogRecord]) -> bytes:
        """Serialize the full record list."""
        return b"".join(map(_frame, records))

    @staticmethod
    def decode(payload: bytes | None) -> list[LogRecord]:
        """Deserialize; empty/absent payload is an empty log."""
        return [_load(payload, frame) for frame in _frames(payload)]

    @staticmethod
    def append(payload: bytes | None, record: LogRecord) -> bytes:
        """Payload with ``record`` appended (the existing frames are
        checked, not unpickled)."""
        _frames(payload)
        return bytes(payload or b"") + _frame(record)

    @staticmethod
    def latest(payload: bytes | None, kind: str) -> LogRecord | None:
        """Most recent record of a kind (None if absent)."""
        last = None
        for frame in _frames(payload):
            if frame[0] == kind:
                last = frame
        return _load(payload, last) if last is not None else None

    @staticmethod
    def find(payload: bytes | None, kind: str, seq: int) -> LogRecord | None:
        """The record of ``kind`` with sequence ``seq``, if present."""
        for frame in _frames(payload):
            if frame[0] == kind and frame[1] == seq:
                return _load(payload, frame)
        return None
