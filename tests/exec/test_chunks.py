"""Unit + property tests for real-file chunking."""

from __future__ import annotations

import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.errors import IntegrityError
from repro.exec import chunk_file, read_chunk, read_chunk_cached, read_chunk_view
from repro.exec.chunks import (
    _HANDLES,
    _MAX_CACHED_FILES,
    FileChunk,
    drop_cached_handle,
)
from repro.workloads import zipf_corpus


@pytest.fixture()
def text_file(tmp_path):
    data = zipf_corpus(120_000, seed=3)
    p = tmp_path / "corpus.txt"
    p.write_bytes(data)
    return str(p), data


def test_chunks_reconstruct_file(text_file):
    path, data = text_file
    chunks = chunk_file(path, 17_000)
    assert b"".join(read_chunk(c) for c in chunks) == data


def test_chunks_contiguous_and_cover(text_file):
    path, data = text_file
    chunks = chunk_file(path, 10_000)
    pos = 0
    for c in chunks:
        assert c.offset == pos
        assert c.length > 0
        pos = c.end
    assert pos == len(data)


def test_no_chunk_splits_a_word(text_file):
    path, data = text_file
    vocab = set(data.split())
    for c in chunk_file(path, 8_192):
        for word in read_chunk(c).split():
            assert word in vocab


def test_chunk_larger_than_file(text_file):
    path, data = text_file
    chunks = chunk_file(path, len(data) * 2)
    assert len(chunks) == 1
    assert chunks[0].length == len(data)


def test_empty_file(tmp_path):
    p = tmp_path / "empty"
    p.write_bytes(b"")
    chunks = chunk_file(str(p), 100)
    assert len(chunks) == 1 and chunks[0].length == 0


def test_delimiter_free_file_single_chunk(tmp_path):
    p = tmp_path / "blob"
    p.write_bytes(b"x" * 50_000)
    chunks = chunk_file(str(p), 10_000)
    assert len(chunks) == 1  # cannot cut without splitting the record


def test_bad_chunk_size(text_file):
    path, _ = text_file
    with pytest.raises(IntegrityError):
        chunk_file(path, 0)


def test_delimiter_exactly_at_draft_boundary(tmp_path):
    # every draft point lands right after a delimiter: the fast probe
    # must accept it without scanning a window, and chunks stay exactly
    # chunk_bytes long
    data = b"abcd efgh ijkl"
    p = tmp_path / "exact"
    p.write_bytes(data)
    chunks = chunk_file(str(p), 5)
    assert [(c.offset, c.length) for c in chunks] == [(0, 5), (5, 5), (10, 4)]
    assert b"".join(read_chunk(c) for c in chunks) == data


def test_file_smaller_than_one_window(tmp_path):
    # whole file fits inside a single 64 KiB probe window: boundary scans
    # hit EOF rather than a full window
    data = b" ".join(b"w%03d" % i for i in range(60))  # ~300 bytes
    p = tmp_path / "tiny"
    p.write_bytes(data)
    chunks = chunk_file(str(p), 50)
    assert len(chunks) > 1
    assert b"".join(read_chunk(c) for c in chunks) == data
    for c in chunks[:-1]:
        assert read_chunk(c).endswith(b" ")


def test_boundary_scan_spans_multiple_windows(tmp_path):
    # first delimiter sits several windows past the draft point: the scan
    # must extend window by window instead of giving up or splitting the
    # record
    data = b"x" * 140_000 + b" " + b"y" * 10
    p = tmp_path / "long"
    p.write_bytes(data)
    chunks = chunk_file(str(p), 1_000)
    assert [(c.offset, c.length) for c in chunks] == [(0, 140_001), (140_001, 10)]
    assert b"".join(read_chunk(c) for c in chunks) == data


def test_custom_delimiters(tmp_path):
    data = b"row1|row2|row3|row4|row5"
    p = tmp_path / "rows"
    p.write_bytes(data)
    chunks = chunk_file(str(p), 7, delimiters=b"|")
    for c in chunks[:-1]:
        assert read_chunk(c).endswith(b"|")
    assert b"".join(read_chunk(c) for c in chunks) == data


# -- the mmap handle cache ---------------------------------------------------


def test_handle_cache_is_bounded_and_lru(tmp_path):
    paths = []
    for i in range(_MAX_CACHED_FILES + 3):
        p = tmp_path / f"f{i}"
        p.write_bytes(b"data for file %d " % i)
        paths.append(str(p))
    for p in paths:
        read_chunk_cached(FileChunk(p, 0, 4))
    assert len(_HANDLES) <= _MAX_CACHED_FILES
    # the most recent files survive, the oldest were evicted
    assert paths[-1] in _HANDLES
    assert paths[0] not in _HANDLES


def test_handle_cache_hit_moves_to_mru(tmp_path):
    a = tmp_path / "a"
    a.write_bytes(b"aaaa bbbb")
    read_chunk_cached(FileChunk(str(a), 0, 4))
    # fill the cache with other files, re-touching ``a`` midway: the hit
    # must refresh its position so it outlives files read before it
    fill = []
    for i in range(_MAX_CACHED_FILES - 1):
        p = tmp_path / f"fill{i}"
        p.write_bytes(b"x y z")
        fill.append(str(p))
        read_chunk_cached(FileChunk(str(p), 0, 2))
    read_chunk_cached(FileChunk(str(a), 0, 4))  # hit: a becomes MRU
    overflow = tmp_path / "overflow"
    overflow.write_bytes(b"q r s")
    read_chunk_cached(FileChunk(str(overflow), 0, 2))
    assert str(a) in _HANDLES  # survived the eviction...
    assert fill[0] not in _HANDLES  # ...which took the true LRU instead


def test_only_reads_populate_the_handle_cache(tmp_path):
    # planning reads through its own descriptor; only map-side reads
    # populate the handle cache, and dropping an entry closes it
    p = tmp_path / "plan-only"
    p.write_bytes(b"alpha beta gamma " * 100)
    chunks = chunk_file(str(p), 64)
    assert len(chunks) > 1
    assert str(p) not in _HANDLES
    read_chunk_cached(chunks[0])
    f = _HANDLES[str(p)][4]
    assert drop_cached_handle(str(p)) == 1
    assert f.closed and str(p) not in _HANDLES
    assert drop_cached_handle(str(p)) == 0


def test_cached_handles_are_closed_at_exit(tmp_path):
    p = tmp_path / "serial"
    p.write_bytes(b"alpha beta gamma")
    code = (
        "from repro.exec.chunks import FileChunk, read_chunk_cached\n"
        f"assert read_chunk_cached(FileChunk({str(p)!r}, 0, 5)) == b'alpha'\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(repro.__file__))
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-c", code],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert "ResourceWarning" not in proc.stderr


def test_shrunk_file_raises_instead_of_truncating(tmp_path):
    p = tmp_path / "shrink"
    p.write_bytes(b"0123456789" * 20)
    chunk = FileChunk(str(p), 100, 50)
    assert read_chunk_cached(chunk) == (b"0123456789" * 20)[100:150]
    with open(p, "r+b") as f:
        f.truncate(80)  # the planned chunk now extends past EOF
    with pytest.raises(IntegrityError):
        read_chunk_cached(chunk)
    with pytest.raises(IntegrityError):
        read_chunk_view(chunk)


def test_read_chunk_view_zero_copy_roundtrip(tmp_path):
    p = tmp_path / "view"
    data = b"alpha beta gamma delta"
    p.write_bytes(data)
    view = read_chunk_view(FileChunk(str(p), 6, 10))
    try:
        assert isinstance(view, memoryview)
        assert bytes(view) == data[6:16]
    finally:
        view.release()
    assert bytes(read_chunk_view(FileChunk(str(p), 0, 0))) == b""


def test_cache_survives_rewrite_with_same_path(tmp_path):
    p = tmp_path / "rewrite"
    p.write_bytes(b"first version here")
    assert read_chunk_cached(FileChunk(str(p), 0, 5)) == b"first"
    os.utime(p)  # mtime-only change still invalidates
    p.write_bytes(b"secnd version here")
    assert read_chunk_cached(FileChunk(str(p), 0, 5)) == b"secnd"


def test_rename_over_with_preserved_mtime_invalidates(tmp_path):
    """Regression: an atomic replace whose source preserves the target's
    mtime and size must not serve the old mapping.

    Staging tools (``os.replace`` after ``shutil.copystat``) produce
    exactly this shape: equal size, equal mtime.  If the kernel also
    recycles the inode number, an (ino, size, mtime) triple validates a
    stale entry — only the replacement's fresh ``st_ctime_ns`` tells the
    generations apart, so it must be part of the revalidation key.
    """
    p = tmp_path / "target"
    p.write_bytes(b"old bytes v1")
    assert read_chunk_cached(FileChunk(str(p), 0, 12)) == b"old bytes v1"
    st = os.stat(p)
    src = tmp_path / "incoming"
    src.write_bytes(b"new bytes v2")  # same length as the old content
    os.utime(src, ns=(st.st_atime_ns, st.st_mtime_ns))  # preserve mtime
    os.replace(src, p)
    assert read_chunk_cached(FileChunk(str(p), 0, 12)) == b"new bytes v2"


def test_revalidation_key_includes_ctime(tmp_path):
    """White-box: the cached entry carries ``st_ctime_ns``, the only stat
    field a mtime-preserving, size-preserving, inode-recycling replace
    cannot forge."""
    p = tmp_path / "keyed"
    p.write_bytes(b"some words here")
    read_chunk_cached(FileChunk(str(p), 0, 4))
    entry = _HANDLES[str(p)]
    st = os.stat(p)
    assert entry[:4] == (st.st_ino, st.st_size, st.st_mtime_ns, st.st_ctime_ns)
    # a metadata-only ctime bump (chmod) retires the mapping too: cheaper
    # a false invalidation than a stale read
    os.chmod(p, 0o600)
    read_chunk_cached(FileChunk(str(p), 0, 4))
    assert _HANDLES[str(p)][3] == os.stat(p).st_ctime_ns


@given(
    words=st.lists(st.integers(min_value=1, max_value=8), min_size=1, max_size=80),
    chunk=st.integers(min_value=1, max_value=300),
    seed=st.integers(min_value=0, max_value=5),
)
@settings(max_examples=60, deadline=None)
def test_property_real_chunking_preserves_words(tmp_path_factory, words, chunk, seed):
    import numpy as np

    rng = np.random.default_rng(seed)
    data = b" ".join(bytes(rng.choice(list(b"abc"), size=n)) for n in words)
    p = tmp_path_factory.mktemp("prop") / "f"
    p.write_bytes(data)
    chunks = chunk_file(str(p), chunk)
    assert b"".join(read_chunk(c) for c in chunks) == data
    from collections import Counter

    assert sum(
        (Counter(read_chunk(c).split()) for c in chunks), Counter()
    ) == Counter(data.split())
