"""Unit tests for the log-file codec."""

from __future__ import annotations

import itertools
import pickle
import types

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ProtocolError
from repro.smartfam import logfile
from repro.smartfam.logfile import INVOKE, RESULT, LogFileCodec, LogRecord


def test_record_validation():
    with pytest.raises(ProtocolError):
        LogRecord("bogus", 1, "m")
    with pytest.raises(ProtocolError):
        LogRecord(INVOKE, -1, "m")


def test_roundtrip_empty():
    assert LogFileCodec.decode(None) == []
    assert LogFileCodec.decode(b"") == []


def test_append_and_decode():
    payload = LogFileCodec.append(None, LogRecord(INVOKE, 1, "wc", body={"a": 1}))
    payload = LogFileCodec.append(payload, LogRecord(RESULT, 1, "wc", body="done"))
    records = LogFileCodec.decode(payload)
    assert len(records) == 2
    assert records[0].kind == INVOKE and records[0].body == {"a": 1}
    assert records[1].kind == RESULT and records[1].body == "done"


def test_latest_of_kind():
    payload = None
    for seq in (1, 2, 3):
        payload = LogFileCodec.append(payload, LogRecord(INVOKE, seq, "m"))
    latest = LogFileCodec.latest(payload, INVOKE)
    assert latest is not None and latest.seq == 3
    assert LogFileCodec.latest(payload, RESULT) is None


def test_find_by_seq():
    payload = None
    for seq in (5, 7):
        payload = LogFileCodec.append(payload, LogRecord(RESULT, seq, "m", body=seq))
    assert LogFileCodec.find(payload, RESULT, 7).body == 7
    assert LogFileCodec.find(payload, RESULT, 6) is None


def test_corrupt_payload_raises():
    with pytest.raises(ProtocolError):
        LogFileCodec.decode(b"not a pickle")


def test_non_record_list_rejected():
    with pytest.raises(ProtocolError):
        LogFileCodec.decode(pickle.dumps([1, 2, 3]))


# -- framing -----------------------------------------------------------------

_records = st.lists(
    st.builds(
        LogRecord,
        kind=st.sampled_from([INVOKE, RESULT]),
        seq=st.integers(min_value=0, max_value=2**40),
        module=st.sampled_from(["wc", "sm"]),
        body=st.one_of(st.none(), st.text(max_size=20), st.integers()),
        ok=st.booleans(),
    ),
    max_size=12,
)


@given(records=_records)
@settings(max_examples=60, deadline=None)
def test_append_concatenates_one_frame_per_record(records):
    payload = b""
    for record in records:
        longer = LogFileCodec.append(payload, record)
        assert longer.startswith(payload)
        payload = longer
    assert payload == LogFileCodec.encode(records)
    assert LogFileCodec.decode(payload) == records
    for kind in (INVOKE, RESULT):
        of_kind = [r for r in records if r.kind == kind]
        assert LogFileCodec.latest(payload, kind) == (of_kind[-1] if of_kind else None)
        for r in of_kind:
            first = next(x for x in of_kind if x.seq == r.seq)
            assert LogFileCodec.find(payload, kind, r.seq) == first


@given(records=_records.filter(bool), data=st.data())
@settings(max_examples=60, deadline=None)
def test_torn_payload_raises_protocol_error(records, data):
    payload = LogFileCodec.encode(records)
    frame_ends = set(itertools.accumulate(
        len(LogFileCodec.encode([r])) for r in records
    ))
    cut = data.draw(st.integers(min_value=1, max_value=len(payload) - 1))
    if cut in frame_ends:
        return  # a clean prefix is a shorter, valid log
    for call in (
        lambda p: LogFileCodec.decode(p),
        lambda p: LogFileCodec.append(p, LogRecord(INVOKE, 1, "m")),
        lambda p: LogFileCodec.latest(p, INVOKE),
        lambda p: LogFileCodec.find(p, RESULT, records[0].seq),
    ):
        with pytest.raises(ProtocolError):
            call(payload[:cut])


def test_lookups_unpickle_only_the_match(monkeypatch):
    payload = LogFileCodec.encode(
        [LogRecord(INVOKE if i % 2 else RESULT, i, "m", body=i) for i in range(20)]
    )
    loads = []
    real_loads = pickle.loads
    monkeypatch.setattr(
        logfile, "pickle",
        types.SimpleNamespace(
            loads=lambda b: loads.append(b) or real_loads(b),
            dumps=pickle.dumps, HIGHEST_PROTOCOL=pickle.HIGHEST_PROTOCOL,
        ),
    )
    assert LogFileCodec.find(payload, RESULT, 10).body == 10
    assert LogFileCodec.latest(payload, INVOKE).seq == 19
    LogFileCodec.append(payload, LogRecord(RESULT, 20, "m"))
    assert len(loads) == 2


def test_frame_header_must_match_its_record():
    good = LogFileCodec.encode([LogRecord(INVOKE, 3, "m")])
    # rewrite the header's seq (bytes 5..13): the record says 3
    forged = good[:5] + (4).to_bytes(8, "little") + good[13:]
    with pytest.raises(ProtocolError):
        LogFileCodec.decode(forged)
    bad_kind = good[:4] + bytes([7]) + good[5:]
    with pytest.raises(ProtocolError):
        LogFileCodec.decode(bad_kind)
