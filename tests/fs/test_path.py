"""Property tests for the VFS path helpers against a plain reference.

The helpers memoize the parse of valid paths, so every property is
checked on a first and a repeated call: a memo must neither change an
answer nor remember a failure.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FileSystemError
from repro.fs import path as p

#: component texts, with the empty and '.' components normalize drops
_COMPONENT = st.sampled_from(["", ".", "a", "b", "log", "x.y", "..a", "a..", "sd 0"])
_COMPONENTS = st.lists(_COMPONENT, max_size=8)
#: how many slashes separate two components
_SLASHES = st.integers(min_value=1, max_value=3)


def _ref_parts(path: str) -> list[str]:
    return [c for c in path.split("/") if c not in ("", ".")]


def _ref_normalize(path: str) -> str:
    return "/" + "/".join(_ref_parts(path))


def _ref_join(base: str, *names: str) -> str:
    parts = _ref_parts(base)
    for name in names:
        parts += _ref_parts(name)
    return "/" + "/".join(parts)


@st.composite
def _paths(draw, absolute: bool = True) -> str:
    comps = draw(_COMPONENTS)
    text = ""
    for comp in comps:
        text += "/" * draw(_SLASHES) + comp
    if draw(st.booleans()):
        text += "/"
    if absolute:
        return text if text.startswith("/") else "/" + text
    return text.lstrip("/") or "a"


@given(path=_paths())
@settings(max_examples=300, deadline=None)
def test_normalize_and_split_match_the_reference(path):
    for _ in range(2):
        assert p.normalize(path) == _ref_normalize(path)
        assert list(p.split(path)) == _ref_parts(path)
        assert p.normalize(p.normalize(path)) == p.normalize(path)


@given(base=_paths(), names=st.lists(_paths(absolute=False), max_size=3))
@settings(max_examples=300, deadline=None)
def test_join_matches_the_reference(base, names):
    for _ in range(2):
        assert p.join(base, *names) == _ref_join(base, *names)


@given(path=_paths(absolute=False))
@settings(max_examples=100, deadline=None)
def test_relative_paths_always_raise(path):
    for _ in range(2):
        with pytest.raises(FileSystemError):
            p.normalize(path)
        with pytest.raises(FileSystemError):
            p.split(path)
        with pytest.raises(FileSystemError):
            p.join(path, "x")


@given(head=_paths(), tail=_paths(), slashes=_SLASHES)
@settings(max_examples=100, deadline=None)
def test_dotdot_always_raises(head, tail, slashes):
    path = head.rstrip("/") + "/" * slashes + ".." + tail
    p.normalize(head)  # a valid neighbour is memoized first
    for _ in range(2):
        with pytest.raises(FileSystemError):
            p.normalize(path)
        with pytest.raises(FileSystemError):
            p.split(path)
        with pytest.raises(FileSystemError):
            p.join(head, ".." + tail)


@pytest.mark.parametrize("bad", [None, 3, b"/a", ["/a"], ("/a",), 1.5])
def test_non_str_always_raises(bad):
    for _ in range(2):
        with pytest.raises(FileSystemError):
            p.normalize(bad)
        with pytest.raises(FileSystemError):
            p.split(bad)
        with pytest.raises(FileSystemError):
            p.join(bad, "x")
        with pytest.raises(FileSystemError):
            p.join("/a", bad)
