"""The processing-module registry: what is preloaded into a McSD node.

"When a new data-intensive module is preloaded to the McSD node, a
corresponding log-file is created" (Section IV-A).  A module is a named
function the SD daemon can invoke with host-supplied parameters; the
standard registry preloads the paper's three benchmarks, each honouring
``mode`` / ``fragment_bytes`` parameters so every evaluation scenario goes
through the same channel.

Module call convention: ``fn(node, params, phoenix_cfg)`` returns a
simulation-process generator whose return value is pickled back through
the log file.  ``params`` must be plain data (paths, sizes, options) — the
input *content* stays on the SD node; only its path crosses the channel.
"""

from __future__ import annotations

import typing as _t

from repro.config import PhoenixConfig
from repro.errors import ModuleNotRegisteredError, SmartFAMError
from repro.phoenix.api import InputSpec, MapReduceSpec
from repro.phoenix.runtime import PhoenixRuntime
from repro.partition.extended import ExtendedPhoenixRuntime

if _t.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.node.node import Node

__all__ = ["ModuleFn", "ModuleRegistry", "standard_registry", "mapreduce_module"]

ModuleFn = _t.Callable[["Node", dict, PhoenixConfig], _t.Generator]


class ModuleRegistry:
    """Named data-intensive modules preloadable into SD nodes."""

    def __init__(self) -> None:
        self._modules: dict[str, ModuleFn] = {}

    def register(self, name: str, fn: ModuleFn) -> None:
        """Preload a module under ``name``."""
        if not name or "/" in name:
            raise SmartFAMError(f"bad module name {name!r}")
        self._modules[name] = fn

    def get(self, name: str) -> ModuleFn:
        """The module function (raises if never preloaded)."""
        try:
            return self._modules[name]
        except KeyError:
            raise ModuleNotRegisteredError(
                f"module {name!r} was not preloaded into this McSD node"
            ) from None

    def names(self) -> list[str]:
        """Registered module names (registration order)."""
        return list(self._modules)

    def __contains__(self, name: str) -> bool:
        return name in self._modules


def mapreduce_module(spec_factory: _t.Callable[[dict], MapReduceSpec]) -> ModuleFn:
    """Wrap a MapReduceSpec factory as a smartFAM module.

    Parameters understood (all host-supplied through the log file):

    * ``input_path`` (required) — SD-local path of the data file,
    * ``input_size`` — declared bytes (defaults to the file's size),
    * ``mode`` — ``partitioned`` (default) | ``parallel`` | ``sequential``,
    * ``fragment_bytes`` — fragment size for partitioned mode (None = auto),
    * ``app`` — extra dict passed to the user callbacks as InputSpec params.
    """

    def _module(node: "Node", params: dict, cfg: PhoenixConfig) -> _t.Generator:
        spec = spec_factory(params)
        path = params.get("input_path")
        if not path:
            raise SmartFAMError(f"{spec.name}: missing input_path parameter")
        fs, rel = node.resolve_fs(path)
        size = params.get("input_size")
        if size is None:
            size = fs.size_of(rel)  # metadata peek
        # For SD-local data the module memory-maps the file: splitting needs
        # only the mapping, and the content streams during the map phase
        # (the runtime still charges the full read, overlapped with map).
        payload = None
        if fs is node.fs:
            payload = node.fs.vfs.read(rel) or None
        inp = InputSpec(
            path=path, size=int(size), payload=payload, params=params.get("app", {})
        )
        mode = params.get("mode", "partitioned")
        if mode == "partitioned":
            ext = ExtendedPhoenixRuntime(node, cfg)
            result = yield ext.run(
                spec, inp, fragment_bytes=params.get("fragment_bytes")
            )
            return result
        if mode in ("parallel", "sequential"):
            rt = PhoenixRuntime(node, cfg)
            result = yield rt.run(spec, inp, mode=mode)
            return result
        raise SmartFAMError(f"{spec.name}: unknown mode {mode!r}")

    return _module


def standard_registry() -> ModuleRegistry:
    """The paper's three benchmarks plus the distributed-plane modules."""
    from repro.apps.matmul import make_matmul_spec
    from repro.apps.stringmatch import make_stringmatch_spec
    from repro.apps.wordcount import make_wordcount_spec
    from repro.smartfam.distmod import dist_map, dist_merge

    reg = ModuleRegistry()
    reg.register("wordcount", mapreduce_module(lambda p: make_wordcount_spec()))
    reg.register("stringmatch", mapreduce_module(lambda p: make_stringmatch_spec()))
    reg.register(
        "matmul",
        mapreduce_module(
            lambda p: make_matmul_spec(int(p.get("app", {}).get("n", 1024)))
        ),
    )
    reg.register("dist_map", dist_map)
    reg.register("dist_merge", dist_merge)
    return reg
