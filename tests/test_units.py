"""Unit tests for unit helpers and the error hierarchy."""

from __future__ import annotations

import pickle

import pytest

from repro import errors, units


def test_byte_units():
    assert units.KB(1) == 1_000
    assert units.MB(1.5) == 1_500_000
    assert units.GB(2) == 2_000_000_000
    assert units.KiB(1) == 1024
    assert units.MiB(1) == 1024**2
    assert units.GiB(2) == 2 * 1024**3


def test_bandwidth_units():
    assert units.Gbit(1) == pytest.approx(125e6)
    assert units.Mbit(100) == pytest.approx(12.5e6)


def test_time_units():
    assert units.usec(100) == pytest.approx(1e-4)
    assert units.msec(50) == pytest.approx(0.05)
    assert units.sec(2) == 2.0
    assert units.minutes(1.5) == 90.0


def test_parse_bytes():
    assert units.parse_bytes("600M") == 600_000_000
    assert units.parse_bytes("1.25G") == 1_250_000_000
    assert units.parse_bytes("512K") == 512_000
    assert units.parse_bytes("4096") == 4096
    assert units.parse_bytes("2T") == 2_000_000_000_000
    assert units.parse_bytes("10MB") == 10_000_000
    assert units.parse_bytes(" 1g ") == 1_000_000_000


def test_parse_bytes_rejects_garbage():
    import pytest as _pytest

    for bad in ("", "abc", "-5M", "12Q"):
        with _pytest.raises(ValueError):
            units.parse_bytes(bad)


def test_fmt_bytes():
    assert units.fmt_bytes(500) == "500B"
    assert units.fmt_bytes(1500) == "1.50KB"
    assert units.fmt_bytes(2_500_000) == "2.50MB"
    assert units.fmt_bytes(1.25e9) == "1.25GB"


def test_fmt_time():
    assert units.fmt_time(0.0000005) == "0.5us"
    assert units.fmt_time(0.005) == "5.000ms"
    assert units.fmt_time(2.5) == "2.500s"
    assert units.fmt_time(90) == "1m30.00s"


def test_error_hierarchy_roots():
    assert issubclass(errors.SimulationError, errors.McSDError)
    assert issubclass(errors.OutOfMemoryError, errors.HardwareError)
    assert issubclass(errors.PhoenixMemoryError, errors.PhoenixError)
    assert issubclass(errors.IntegrityError, errors.PartitionError)
    assert issubclass(errors.NFSError, errors.FileSystemError)
    assert issubclass(errors.ModuleNotRegisteredError, errors.SmartFAMError)


def test_oom_error_carries_details():
    exc = errors.OutOfMemoryError(100, 50, node="sd0")
    assert exc.requested == 100
    assert exc.available == 50
    assert "sd0" in str(exc)


def test_phoenix_memory_error_details():
    exc = errors.PhoenixMemoryError(footprint=300, capacity=200, app="wc")
    assert exc.footprint == 300
    assert "wc" in str(exc)


def test_interrupt_error_cause():
    exc = errors.InterruptError(cause={"reason": "test"})
    assert exc.cause == {"reason": "test"}


#: constructor arguments for the errors that take more than a message
_ERROR_ARGS = {
    "InterruptError": ({"reason": "test"},),
    "OutOfMemoryError": (100, 50, "sd0"),
    "PhoenixMemoryError": (300, 200, "wordcount"),
    "OffloadTimeoutError": ("wordcount", 5.0, "sd0"),
    "NodeDownError": ("sd0", "wordcount"),
    "ShuffleArtifactError": ("/shuffle/part0", 1, "short read"),
    "DistributedJobError": (
        "wordcount", {"sd1"},
        [{"node": "sd1", "phase": "map", "cause": "OffloadTimeoutError", "at": 1.0}],
    ),
    "AdmissionError": ("job-7", 4, 4),
    "ProvenanceError": ("/trace.json", "run-a", "run-b"),
    "FaultInjectedError": ("disk.read", "EIO"),
    "WorkerCrashError": ("worker died", 3),
    "SpillCorruptionError": ("/spill/run0", 2, 0),
}


@pytest.mark.parametrize(
    "name", [n for n in errors.__all__ if isinstance(getattr(errors, n), type)]
)
def test_error_survives_pickle(name):
    # module errors reach the host through the smartFAM log file as pickles
    cls = getattr(errors, name)
    exc = errors.mark_retryable(
        cls(*_ERROR_ARGS.get(name, ("boom",))), not cls.retryable
    )
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is cls
    assert str(back) == str(exc)
    assert back.args == exc.args
    assert back.__dict__ == exc.__dict__
    assert errors.is_retryable(back) == errors.is_retryable(exc)
