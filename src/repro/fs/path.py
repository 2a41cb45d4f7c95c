"""Pure path helpers for the simulated VFS (always absolute, '/'-separated).

A simulation names a few hundred distinct paths and resolves each many
times (every smartFAM poll looks its log file up again), so the parse of
a valid path is memoized.  Only valid paths enter the memo: an invalid
one is checked, and raises, on every call.
"""

from __future__ import annotations

from repro.errors import FileSystemError

__all__ = ["normalize", "split", "parent", "basename", "join", "is_under"]

#: entries a path memo keeps before it starts over (a sim-cluster stream
#: names about 400 distinct paths)
MEMO_MAX = 4096
#: path -> (canonical form, components)
_parsed: dict[str, tuple[str, tuple[str, ...]]] = {}


def _parse(path: str) -> tuple[str, tuple[str, ...]]:
    if path.__class__ is str:
        hit = _parsed.get(path)
        if hit is not None:
            return hit
    if not isinstance(path, str) or not path.startswith("/"):
        raise FileSystemError(f"path must be absolute, got {path!r}")
    parts = []
    for comp in path.split("/"):
        if comp in ("", "."):
            continue
        if comp == "..":
            raise FileSystemError(f"'..' not supported in VFS paths: {path!r}")
        parts.append(comp)
    hit = ("/" + "/".join(parts), tuple(parts))
    if len(_parsed) >= MEMO_MAX:
        _parsed.clear()
    _parsed[path] = hit
    return hit


def normalize(path: str) -> str:
    """Canonical absolute form: leading '/', no empty/'.' components.

    '..' is rejected — the simulated daemons never need it and allowing it
    would complicate watch bookkeeping for no benefit.
    """
    return _parse(path)[0]


def split(path: str) -> tuple[str, ...]:
    """Components of a normalized path ('/' -> ())."""
    return _parse(path)[1]


def parent(path: str) -> str:
    """Parent directory of a normalized path ('/' is its own parent)."""
    comps = split(path)
    if not comps:
        return "/"
    return "/" + "/".join(comps[:-1])


def basename(path: str) -> str:
    """Final component ('' for the root)."""
    comps = split(path)
    return comps[-1] if comps else ""


def join(base: str, *names: str) -> str:
    """Join relative names onto an absolute base."""
    out = normalize(base)
    for name in names:
        if not isinstance(name, str):
            raise FileSystemError(f"path component must be a str, got {name!r}")
        for comp in name.split("/"):
            if comp in ("", "."):
                continue
            if comp == "..":
                raise FileSystemError(f"'..' not supported: {name!r}")
            out = out.rstrip("/") + "/" + comp
    return normalize(out)


def is_under(path: str, prefix: str) -> bool:
    """True if ``path`` is ``prefix`` or inside it."""
    p = normalize(path)
    pre = normalize(prefix)
    return p == pre or p.startswith(pre.rstrip("/") + "/")
