"""The in-simulation file tree.

A :class:`VFS` is a pure state machine — no simulated time passes inside
it.  Timed access goes through :class:`~repro.fs.localfs.LocalFS` (local
disk) or :class:`~repro.fs.nfs.NFSMount` (remote).

Files carry two size notions, mirroring the reproduction's scale model:

* ``size``   — the *declared* byte count (drives every cost model), and
* ``data``   — an optional *materialized* payload (real bytes; drives real
  MapReduce execution).  ``data`` may be much smaller than ``size``.

Mutation hooks (`on_event`) let :class:`~repro.fs.inotify.InotifyManager`
observe create/modify/delete, which is the substrate smartFAM stands on.
"""

from __future__ import annotations

import itertools
import typing as _t

from repro.errors import (
    FileExistsInVFS,
    FileNotFoundInVFS,
    FileSystemError,
    IsADirectoryInVFS,
    NotADirectoryInVFS,
    StaleHandleError,
)
from repro.fs import path as _p

__all__ = ["Inode", "FileHandle", "VFS"]

_ino_counter = itertools.count(1)

#: event names emitted through VFS.on_event
EV_CREATE = "create"
EV_MODIFY = "modify"
EV_DELETE = "delete"


class Inode:
    """A file or directory."""

    __slots__ = ("ino", "kind", "children", "size", "data", "mtime", "nlink")

    FILE = "file"
    DIR = "dir"

    def __init__(self, kind: str, mtime: float = 0.0):
        self.ino = next(_ino_counter)
        self.kind = kind
        self.children: dict[str, "Inode"] | None = {} if kind == Inode.DIR else None
        self.size = 0
        self.data: bytes | None = b"" if kind == Inode.FILE else None
        self.mtime = mtime
        self.nlink = 1

    @property
    def is_dir(self) -> bool:
        """True for directories."""
        return self.kind == Inode.DIR

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if self.is_dir:
            return f"<Inode dir#{self.ino} {len(self.children or {})} entries>"
        return f"<Inode file#{self.ino} size={self.size}>"


class FileHandle:
    """A stable reference to an inode (what NFS calls a file handle)."""

    __slots__ = ("vfs", "inode", "path")

    def __init__(self, vfs: "VFS", inode: Inode, path: str):
        self.vfs = vfs
        self.inode = inode
        self.path = path

    def valid(self) -> bool:
        """False once the inode has been unlinked."""
        return self.inode.nlink > 0

    def ensure(self) -> Inode:
        """The inode, or :class:`StaleHandleError` if unlinked."""
        if not self.valid():
            raise StaleHandleError(f"stale handle for {self.path}")
        return self.inode


class VFS:
    """One file tree (one per node)."""

    def __init__(self, name: str = "vfs"):
        self.name = name
        self.root = Inode(Inode.DIR)
        self._listeners: list[_t.Callable[[str, str, Inode], None]] = []

    # -- events -------------------------------------------------------------

    def on_event(self, fn: _t.Callable[[str, str, Inode], None]) -> None:
        """Register ``fn(event, path, inode)`` for create/modify/delete."""
        self._listeners.append(fn)

    def _emit(self, event: str, path: str, inode: Inode) -> None:
        for fn in self._listeners:
            fn(event, path, inode)

    # -- resolution -----------------------------------------------------------

    def _lookup(self, path: str) -> Inode | None:
        node = self.root
        for comp in _p.split(path):
            children = node.children  # None for a file
            if children is None:
                raise NotADirectoryInVFS(f"{self.name}: not a directory on the way to {path}")
            node = children.get(comp)  # type: ignore[assignment]
            if node is None:
                return None
        return node

    def resolve(self, path: str) -> Inode:
        """The inode at ``path`` (raises if missing)."""
        node = self._lookup(path)
        if node is None:
            raise FileNotFoundInVFS(f"{self.name}: no such path {path}")
        return node

    def exists(self, path: str) -> bool:
        """True if ``path`` resolves."""
        try:
            return self._lookup(path) is not None
        except NotADirectoryInVFS:
            return False

    def handle(self, path: str) -> FileHandle:
        """A stable handle for the inode at ``path``."""
        norm = _p.normalize(path)
        return FileHandle(self, self.resolve(norm), norm)

    # -- directory ops ----------------------------------------------------------

    def mkdir(self, path: str, parents: bool = False, mtime: float = 0.0) -> Inode:
        """Create a directory (optionally with parents, like mkdir -p)."""
        norm = _p.normalize(path)
        if norm == "/":
            return self.root
        parent_path = _p.parent(norm)
        parent = self._lookup(parent_path)
        if parent is None:
            if not parents:
                raise FileNotFoundInVFS(f"{self.name}: no parent {parent_path}")
            parent = self.mkdir(parent_path, parents=True, mtime=mtime)
        if not parent.is_dir:
            raise NotADirectoryInVFS(f"{self.name}: {parent_path} is a file")
        name = _p.basename(norm)
        assert parent.children is not None
        existing = parent.children.get(name)
        if existing is not None:
            if existing.is_dir:
                return existing
            raise FileExistsInVFS(f"{self.name}: {norm} exists and is a file")
        node = Inode(Inode.DIR, mtime=mtime)
        parent.children[name] = node
        self._emit(EV_CREATE, norm, node)
        return node

    def listdir(self, path: str) -> list[str]:
        """Sorted entry names of a directory."""
        node = self.resolve(path)
        if not node.is_dir:
            raise NotADirectoryInVFS(f"{self.name}: {path} is a file")
        assert node.children is not None
        return sorted(node.children)

    # -- file ops -------------------------------------------------------------------

    def create(self, path: str, exist_ok: bool = False, mtime: float = 0.0) -> Inode:
        """Create an empty regular file."""
        norm = _p.normalize(path)
        parent = self.resolve(_p.parent(norm))
        if not parent.is_dir:
            raise NotADirectoryInVFS(f"{self.name}: parent of {norm} is a file")
        name = _p.basename(norm)
        if not name:
            raise FileSystemError("cannot create the root")
        assert parent.children is not None
        existing = parent.children.get(name)
        if existing is not None:
            if existing.is_dir:
                raise IsADirectoryInVFS(f"{self.name}: {norm} is a directory")
            if not exist_ok:
                raise FileExistsInVFS(f"{self.name}: {norm} exists")
            return existing
        node = Inode(Inode.FILE, mtime=mtime)
        parent.children[name] = node
        self._emit(EV_CREATE, norm, node)
        return node

    def write(
        self,
        path: str,
        data: bytes | None = None,
        size: int | None = None,
        append: bool = False,
        create: bool = True,
        mtime: float = 0.0,
    ) -> Inode:
        """Replace or append file content.

        ``data`` sets the materialized payload; ``size`` sets the declared
        size (defaults to ``len(data)``).  Appending concatenates payloads
        and adds sizes.
        """
        norm = _p.normalize(path)
        node = self._lookup(norm)
        if node is None:
            if not create:
                raise FileNotFoundInVFS(f"{self.name}: no such file {norm}")
            node = self.create(norm, mtime=mtime)
        if node.is_dir:
            raise IsADirectoryInVFS(f"{self.name}: {norm} is a directory")
        if size is None and data is not None:
            if isinstance(data, (bytes, bytearray)):
                new_size = len(data)
            else:
                raise FileSystemError(
                    f"{self.name}: non-byte payloads need an explicit declared size"
                )
        else:
            new_size = int(size or 0)
        if append:
            if data is not None:
                if isinstance(node.data, (bytes, bytearray)) and isinstance(
                    data, (bytes, bytearray)
                ):
                    node.data = bytes(node.data) + bytes(data)
                else:
                    node.data = data
            node.size += new_size
        else:
            node.data = data if data is not None else b""
            node.size = new_size
        node.mtime = mtime
        self._emit(EV_MODIFY, norm, node)
        return node

    def read(self, path: str) -> bytes:
        """The materialized payload (b'' if none)."""
        node = self.resolve(path)
        if node.is_dir:
            raise IsADirectoryInVFS(f"{self.name}: {path} is a directory")
        return node.data or b""

    def stat(self, path: str) -> Inode:
        """Alias of :meth:`resolve` (reads better at call sites)."""
        return self.resolve(path)

    def size_of(self, path: str) -> int:
        """Declared size of the file at ``path``."""
        node = self.resolve(path)
        if node.is_dir:
            raise IsADirectoryInVFS(f"{self.name}: {path} is a directory")
        return node.size

    def unlink(self, path: str) -> None:
        """Remove a file or an *empty* directory."""
        norm = _p.normalize(path)
        if norm == "/":
            raise FileSystemError("cannot unlink the root")
        parent = self.resolve(_p.parent(norm))
        name = _p.basename(norm)
        assert parent.children is not None
        node = parent.children.get(name)
        if node is None:
            raise FileNotFoundInVFS(f"{self.name}: no such path {norm}")
        if node.is_dir and node.children:
            raise FileSystemError(f"{self.name}: directory {norm} not empty")
        del parent.children[name]
        node.nlink = 0
        self._emit(EV_DELETE, norm, node)

    def rmtree(self, path: str) -> int:
        """Remove a file or a directory tree recursively; returns inodes removed.

        Children are unlinked before their parent, so every removal goes
        through :meth:`unlink` (and its ``EV_DELETE`` notifications — cache
        invalidation and inotify watches see the teardown file by file).
        """
        norm = _p.normalize(path)
        node = self.resolve(norm)
        removed = 0
        if node.is_dir:
            for name in sorted(node.children or {}):
                removed += self.rmtree(_p.join(norm, name))
        self.unlink(norm)
        return removed + 1

    def walk(self, top: str = "/") -> _t.Iterator[tuple[str, Inode]]:
        """Depth-first (path, inode) traversal in sorted order."""
        top = _p.normalize(top)
        node = self.resolve(top)
        yield top, node
        if node.is_dir:
            assert node.children is not None
            for name in sorted(node.children):
                child_path = _p.join(top, name)
                yield from self.walk(child_path)
