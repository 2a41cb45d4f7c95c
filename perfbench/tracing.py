"""Span recording from outside the program: wrappers around layer entry points.

The program under test is not edited.  A :class:`Tracer` replaces a
layer's public entry point (a module function, a method or a static
method) with a wrapper that records one span per call, and puts the
original back on :meth:`Tracer.restore`.  Spans stay in memory until
:meth:`Tracer.dump` writes them out at the end of a run.

Host-clock spans (``time.perf_counter``) nest: the innermost host span
still open on the main thread is the parent of a new one, so a layer's
*self time* is its duration minus what its child spans cover.  Sim-clock
spans take ``sim.now`` at the call and when the returned event is
processed; the simulator interleaves many jobs, so they get a parent only
where a wrapper links one explicitly.
"""

from __future__ import annotations

import functools
import json
import threading
import time
import typing as _t


class Span:
    """One call into a layer."""

    __slots__ = ("layer", "clock", "t0", "t1", "parent", "job", "child_s")

    def __init__(self, layer: str, clock: str, t0: float, parent: "Span | None", job: object):
        self.layer = layer
        self.clock = clock
        self.t0 = t0
        self.t1 = t0
        self.parent = parent
        self.job = job
        #: duration covered by direct children (filled as they end)
        self.child_s = 0.0

    @property
    def dur(self) -> float:
        return self.t1 - self.t0

    @property
    def self_s(self) -> float:
        return self.dur - self.child_s


class Tracer:
    """Installs wrappers, keeps spans, and summarises them per layer."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        #: job id stamped on new spans (the benchmark sets it per job)
        self.job: object = None
        self._open: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []
        self._main = threading.get_ident()

    # -- installation --------------------------------------------------------

    def _patch(self, owner: object, attr: str, make: _t.Callable) -> None:
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        is_static = isinstance(raw, staticmethod)
        fn = raw.__func__ if is_static else raw
        wrapper = functools.wraps(fn)(make(fn))
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, staticmethod(wrapper) if is_static else wrapper)

    def restore(self) -> None:
        """Put every wrapped entry point back."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    def observe(
        self, owner: object, attr: str,
        before: _t.Callable[[tuple, dict], None] | None = None,
        after: _t.Callable[[tuple, dict], None] | None = None,
    ) -> None:
        """Call ``before(args, kwargs)`` ahead of each call and
        ``after(args, kwargs)`` once it returned (no span)."""

        def make(fn: _t.Callable) -> _t.Callable:
            def wrapper(*args: object, **kwargs: object) -> object:
                if before is not None:
                    before(args, kwargs)
                out = fn(*args, **kwargs)
                if after is not None:
                    after(args, kwargs)
                return out

            return wrapper

        self._patch(owner, attr, make)

    # -- host-clock spans ----------------------------------------------------

    def begin(self, layer: str) -> Span:
        on_main = threading.get_ident() == self._main
        parent = self._open[-1] if on_main and self._open else None
        sp = Span(layer, "host", time.perf_counter(), parent, self.job)
        if on_main:
            self._open.append(sp)
        return sp

    def end(self, sp: Span) -> None:
        sp.t1 = time.perf_counter()
        if sp in self._open:
            self._open.remove(sp)
        if sp.parent is not None:
            sp.parent.child_s += sp.dur
        self.spans.append(sp)

    def host(self, owner: object, attr: str, layer: str) -> None:
        """One host span per call."""

        def make(fn: _t.Callable) -> _t.Callable:
            def wrapper(*args: object, **kwargs: object) -> object:
                sp = self.begin(layer)
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.end(sp)

            return wrapper

        self._patch(owner, attr, make)

    def host_consumed(self, owner: object, attr: str, layer: str) -> None:
        """One host span from the call until the returned iterator is
        exhausted or closed (a lazy merge does its work while consumed)."""

        def make(fn: _t.Callable) -> _t.Callable:
            def wrapper(*args: object, **kwargs: object) -> _t.Iterator:
                sp = self.begin(layer)
                try:
                    inner = fn(*args, **kwargs)
                except BaseException:
                    self.end(sp)
                    raise

                def consume() -> _t.Iterator:
                    try:
                        yield from inner
                    finally:
                        self.end(sp)

                return consume()

            return wrapper

        self._patch(owner, attr, make)

    def host_blocking(
        self, owner: object, attr: str, layer: str,
        on_call: _t.Callable[[tuple, dict], None] | None = None,
    ) -> None:
        """One host span per ``next()`` on the returned iterator: the time
        the caller blocks waiting for the next item."""

        def make(fn: _t.Callable) -> _t.Callable:
            def wrapper(*args: object, **kwargs: object) -> _t.Iterator:
                if on_call is not None:
                    on_call(args, kwargs)
                it = iter(fn(*args, **kwargs))

                def blocking() -> _t.Iterator:
                    while True:
                        sp = self.begin(layer)
                        try:
                            item = next(it)
                        except StopIteration:
                            return
                        finally:
                            self.end(sp)
                        yield item

                return blocking()

            return wrapper

        self._patch(owner, attr, make)

    # -- sim-clock spans -----------------------------------------------------

    def sim_event(
        self, owner: object, attr: str, layer: str,
        on_start: _t.Callable[[object, Span, tuple, dict], None] | None = None,
        on_done: _t.Callable[[Span, object], None] | None = None,
    ) -> None:
        """One sim span per call of a method returning an event: from
        ``self.sim.now`` at the call to the event's processing."""

        def make(fn: _t.Callable) -> _t.Callable:
            def wrapper(obj: object, *args: object, **kwargs: object) -> object:
                sim = obj.sim  # type: ignore[attr-defined]
                sp = Span(layer, "sim", sim.now, None, self.job)
                if on_start is not None:
                    on_start(obj, sp, args, kwargs)
                event = fn(obj, *args, **kwargs)

                def finish(ev: object) -> None:
                    sp.t1 = sim.now
                    if sp.parent is not None:
                        sp.parent.child_s += sp.dur
                    self.spans.append(sp)
                    if on_done is not None:
                        on_done(sp, ev)

                event.add_callback(finish)
                return event

            return wrapper

        self._patch(owner, attr, make)

    # -- summaries -----------------------------------------------------------

    def spans_of(self, *layers: str) -> list[Span]:
        wanted = set(layers)
        return [sp for sp in self.spans if sp.layer in wanted]

    def self_s(self, *layers: str) -> float:
        """Summed self time of the named layers."""
        wanted = set(layers)
        return sum(sp.self_s for sp in self.spans if sp.layer in wanted)

    def entry_calls(self, *layers: str) -> int:
        """Calls into the named layers from outside them."""
        wanted = set(layers)
        return sum(
            1 for sp in self.spans
            if sp.layer in wanted and (sp.parent is None or sp.parent.layer not in wanted)
        )

    def dump(self, path: str, meta: dict) -> None:
        """Write the spans as JSON lines (first line: ``meta``)."""
        index = {id(sp): i for i, sp in enumerate(self.spans)}
        with open(path, "w") as f:
            f.write(json.dumps({"meta": meta}, sort_keys=True) + "\n")
            for i, sp in enumerate(self.spans):
                rec = {
                    "id": i,
                    "name": sp.layer,
                    "clock": sp.clock,
                    "start": sp.t0,
                    "end": sp.t1,
                    "parent": index.get(id(sp.parent)) if sp.parent is not None else None,
                    "job": sp.job,
                }
                f.write(json.dumps(rec, default=str) + "\n")
