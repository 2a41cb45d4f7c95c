"""NFS: the storage interface between host and McSD nodes (Section III-B).

The paper's testbed connects the host computing node to the SD node's disk
through NFS over Gigabit Ethernet; smartFAM's log files live on that share.
This module implements a compact NFSv3-flavoured protocol on the simulated
fabric:

* :class:`NFSServer` — exports a subtree of a node's local FS.  An op that
  charges the disk (read, write, create, mkdir, remove) gets a server
  process from the moment it arrives (disk queueing provides the
  serialization); getattr, access, readdir and prefetch are answered
  from the VFS in the arrival handler.
* :class:`NFSClient` — per-node RPC endpoint resolving each call's event
  when its reply arrives.  Requests and replies are posted, so no
  completion event is scheduled for them.
* :class:`NFSMount` — the client-side file API, mirroring
  :class:`~repro.fs.localfs.LocalFS`'s timed operations so higher layers
  are mount-agnostic, plus the getattr/readdir/access RPCs.

Kernel inotify does not propagate over NFS, so a client watching a remote
file polls its attributes with getattr RPCs (the smartFAM host does this
inline while it waits for a result): five kernel events per round trip
on an idle fabric, four link hops and the call's reply.  With its 50 ms
timer a poll costs about 27 µs of host time on an idle 2-SD testbed
(2-vCPU VM), about 56 µs before event names were formatted only when
read, paths were parsed once and messages stopped leaving reference
cycles (DESIGN.md §5).  Work like that may make a poll cheaper, never
different: every event, its time and the order of events stay
bit-identical.

Every RPC charges a small request message; data-bearing replies (READ) or
requests (WRITE) charge the payload size, so bulk file movement costs real
simulated network time.
"""

from __future__ import annotations

import itertools
import typing as _t

from repro.errors import NFSError
from repro.fs import path as _p
from repro.sim.events import Event

if __import__("typing").TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.message import Message
    from repro.node.node import Node

__all__ = ["NFSServer", "NFSClient", "NFSMount", "NFS_PORT", "RPC_HEADER_BYTES"]

NFS_PORT = "nfs"
NFS_REPLY_PORT = "nfs-reply"
#: simulated wire size of an RPC header / metadata-only message
RPC_HEADER_BYTES = 256
#: ops that charge the server's disk; each gets its own server process
_DISK_OPS = frozenset({"read", "write", "create", "mkdir", "remove"})

_xids = itertools.count(1)


class _Names(dict):
    """op -> ``template.format(op)``, formatted once per op."""

    def __init__(self, template: str):
        super().__init__()
        self.template = template

    def __missing__(self, op: str) -> str:
        name = self[op] = self.template.format(op)
        return name


#: the per-op counter and RPC event names
_OP_COUNTER = _Names("nfs.op.{}")
_RPC_EVENT = _Names("nfs-rpc:{}")


class NFSServer:
    """Exports ``export_root`` of ``node``'s local FS to the cluster."""

    def __init__(self, node: "Node", export_root: str = "/"):
        self.node = node
        self.sim = node.sim
        self.export_root = _p.normalize(export_root)
        #: client path -> exported local path (a poll asks for the same
        #: log file again and again); cleared when full
        self._local: dict[str, str] = {}
        self._req_name = f"nfsd:{node.name}.req"
        node.bind(NFS_PORT, self._on_request)

    def _translate(self, rel_path: str) -> str:
        local = self._local.get(rel_path) if rel_path.__class__ is str else None
        if local is None:
            rel = _p.normalize(rel_path)  # raises for an invalid path
            local = _p.join(self.export_root, rel.lstrip("/"))
            if len(self._local) >= _p.MEMO_MAX:
                self._local.clear()
            self._local[rel_path] = local
        return local

    def _on_request(self, msg: Message) -> None:
        req = msg.payload
        op: str = req["op"]
        self.sim.obs.count(_OP_COUNTER[op])
        if op in _DISK_OPS:
            self.sim.spawn(self._serve_disk(msg.src, req), name=self._req_name)
            return
        # no disk time: answer from the VFS in the arrival instant
        try:
            reply = {"ok": True, "value": self._metadata(op, req)}
        except Exception as exc:  # deliver errors to the caller, not the server
            reply = {"ok": False, "error": exc}
        reply["xid"] = req["xid"]
        self.node.post(msg.src, NFS_REPLY_PORT, reply, RPC_HEADER_BYTES)

    def _metadata(self, op: str, req: dict) -> object:
        fs = self.node.fs
        path = self._translate(req.get("path", "/"))
        if op == "getattr":
            inode = fs.vfs.stat(path)
            return {"size": inode.size, "mtime": inode.mtime,
                    "is_dir": inode.is_dir, "ino": inode.ino}
        if op == "readdir":
            return fs.vfs.listdir(path)
        if op == "access":
            return fs.exists(path)
        if op == "prefetch":
            # kick the server-side tier's readahead and reply at once (the
            # fill runs in the background)
            started = fs.prefetch(
                path, offset=int(req.get("offset", 0)), nbytes=req.get("nbytes")
            )
            return started is not None
        raise NFSError(f"unknown NFS op {op!r}")

    def _serve_disk(self, client: str, req: dict) -> _t.Generator:
        op: str = req["op"]
        fs = self.node.fs
        reply: dict = {"xid": req["xid"], "ok": True, "value": True}
        reply_bytes = RPC_HEADER_BYTES
        try:
            path = self._translate(req.get("path", "/"))
            if op == "read":
                data = yield fs.read(
                    path, nbytes=req.get("nbytes"), offset=int(req.get("offset", 0))
                )
                size = fs.size_of(path)
                charged = size if req.get("nbytes") is None else int(req["nbytes"])
                reply["value"] = {"data": data, "size": size}
                reply_bytes += charged
            elif op == "write":
                inode = yield fs.write(
                    path,
                    data=req.get("data"),
                    size=req.get("size"),
                    append=req.get("append", False),
                )
                # post-op attributes, as an NFSv3 WRITE reply carries them
                reply["value"] = {"size": inode.size, "mtime": inode.mtime}
            elif op == "create":
                yield fs.create(path, exist_ok=req.get("exist_ok", False))
            elif op == "mkdir":
                yield fs.mkdir(path, parents=req.get("parents", False))
            else:
                yield fs.unlink(path)
        except Exception as exc:  # deliver errors to the caller, not the server
            reply["ok"] = False
            reply["error"] = exc
        self.node.post(client, NFS_REPLY_PORT, reply, reply_bytes)


class NFSClient:
    """Per-node RPC endpoint: sends requests, routes replies by xid."""

    def __init__(self, node: Node):
        self.node = node
        self.sim = node.sim
        self._pending: dict[int, Event] = {}
        #: RPC round trips completed (stats)
        self.rpcs = 0
        node.bind(NFS_REPLY_PORT, self._on_reply)

    def _on_reply(self, msg: Message) -> None:
        reply = msg.payload
        ev = self._pending.pop(reply["xid"], None)
        if ev is None:
            return  # late reply for an abandoned call
        self.rpcs += 1
        if reply["ok"]:
            ev.succeed(reply["value"])
        else:
            ev.fail(reply["error"])

    def call(self, server: str, req: dict, request_bytes: int = RPC_HEADER_BYTES) -> Event:
        """Issue one RPC; the returned event carries the reply value.

        Injected faults at ``nfs.call``: *fail* makes the RPC return a
        transient :class:`~repro.errors.NFSError` after one header round
        trip, *drop* loses the request on the floor (the reply never
        arrives — only deadlines recover this, exactly like a soft-mount
        RPC timeout), *delay* defers the send.
        """
        xid = next(_xids)
        req = dict(req, xid=xid)
        done = Event(self.sim, _RPC_EVENT[req["op"]])
        self._pending[xid] = done
        inj = self.sim.faults
        decision = None
        if inj is not None:
            decision = inj.check("nfs.call", op=req["op"], server=server)
        if decision is None:
            self.node.post(server, NFS_PORT, req, request_bytes)
            return done

        def _faulted() -> _t.Generator:
            if decision.action == "fail":
                yield self.sim.timeout(0.0)
                self._pending.pop(xid, None)
                done.fail(NFSError(
                    f"injected RPC failure ({req['op']} -> {server})",
                    node=self.node.name,
                ))
                return
            if decision.action == "drop":
                return  # the request is lost; the event never resolves
            if decision.action == "delay":
                yield self.sim.timeout(decision.delay)
            self.node.post(server, NFS_PORT, req, request_bytes)

        self.sim.spawn(_faulted(), name=f"nfscli:{self.node.name}.send")
        return done


class NFSMount:
    """A mounted NFS export, API-compatible with LocalFS timed operations."""

    def __init__(self, client: NFSClient, server: str, name: str = ""):
        self.client = client
        self.server = server
        self.sim = client.sim
        self.name = name or f"{client.node.name}:nfs:{server}"
        #: bytes moved over the wire for file data (stats)
        self.bytes_read = 0
        self.bytes_written = 0
        #: the exporting node's TierSpec, when it fronts its disk with a
        #: burst buffer (set by the cluster builder; drives readahead)
        self.remote_tier_spec = None

    # -- timed operations (all return events) ---------------------------------

    def read(self, path: str, nbytes: int | None = None, offset: int = 0) -> Event:
        """Read a remote file; returns the materialized payload.

        ``offset`` is forwarded to the server so a burst tier on the
        exporting node sees the true block range of a fragment read.
        """

        def _proc() -> _t.Generator:
            with self.sim.obs.span(
                "nfs.read", cat="nfs", track=self.name, path=path
            ) as sp:
                value = yield self.client.call(
                    self.server,
                    {"op": "read", "path": path, "nbytes": nbytes, "offset": offset},
                )
                charged = value["size"] if nbytes is None else int(nbytes)
                self.bytes_read += charged
                self.sim.obs.count("nfs.bytes_read", charged)
                sp.set(bytes=charged)
            return value["data"]

        return self.sim.spawn(_proc(), name=f"{self.name}.read")

    def write(
        self,
        path: str,
        data: bytes | None = None,
        size: int | None = None,
        append: bool = False,
    ) -> Event:
        """Write a remote file; request carries the payload bytes.

        The event's value is the file's post-op attributes, a dict(size,
        mtime) taken by the server right after its write: a baseline no
        later write can slip into, as a getattr sent after the reply can.
        """
        nbytes = len(data) if size is None and data is not None else int(size or 0)

        def _proc() -> _t.Generator:
            req = {
                "op": "write",
                "path": path,
                "data": data,
                "size": size,
                "append": append,
            }
            with self.sim.obs.span(
                "nfs.write", cat="nfs", track=self.name, path=path, bytes=nbytes
            ):
                attrs = yield self.client.call(
                    self.server, req, request_bytes=RPC_HEADER_BYTES + nbytes
                )
            self.bytes_written += nbytes
            self.sim.obs.count("nfs.bytes_written", nbytes)
            return attrs

        return self.sim.spawn(_proc(), name=f"{self.name}.write")

    def create(self, path: str, exist_ok: bool = False) -> Event:
        """Create a remote file."""
        return self.client.call(
            self.server, {"op": "create", "path": path, "exist_ok": exist_ok}
        )

    def mkdir(self, path: str, parents: bool = False) -> Event:
        """Create a remote directory."""
        return self.client.call(
            self.server, {"op": "mkdir", "path": path, "parents": parents}
        )

    def stat(self, path: str) -> Event:
        """Remote getattr; returns a dict(size, mtime, is_dir, ino)."""
        return self.client.call(self.server, {"op": "getattr", "path": path})

    def listdir(self, path: str) -> Event:
        """Remote readdir."""
        return self.client.call(self.server, {"op": "readdir", "path": path})

    def unlink(self, path: str) -> Event:
        """Remote remove."""
        return self.client.call(self.server, {"op": "remove", "path": path})

    def access(self, path: str) -> Event:
        """Timed existence check."""
        return self.client.call(self.server, {"op": "access", "path": path})

    def prefetch(self, path: str, offset: int = 0, nbytes: int | None = None) -> Event:
        """Ask the server to pull a range into its tier (readahead RPC).

        Returns an event carrying True when the server actually started a
        fill (False when it has no tier or the range is already cached).
        """
        return self.client.call(
            self.server,
            {"op": "prefetch", "path": path, "offset": offset, "nbytes": nbytes},
        )
