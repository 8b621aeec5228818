"""Host-time spans around public entry points, recorded from outside.

The benchmark measures the package's layers without editing them: a
:class:`Tracer` replaces a fixed list of public functions and methods
with wrappers that record one span per call (name, layer, start, end,
parent) or, for entry points called too often to time, only a count.
Spans stay in memory; :func:`chrome_trace` turns them into a
Chrome-trace host-time track when the benchmark ends.

A span's *self time* is its duration minus the part its child spans
cover, so the self times of a root span's subtree sum to the root's
duration.  The process is single-threaded, so spans nest strictly and
one stack is enough.

Every target is resolved before any is patched, and a target that does
not resolve raises :class:`TraceTargetError` naming it: a rename in the
package must break the benchmark loudly, never record zeros.  A
function bound elsewhere by ``from x import f`` is patched in every
loaded module that holds it, and :meth:`Tracer.uninstall` puts back
every original object.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
import types
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple

# Span record layout (a list, mutated when the span closes).
NAME, LAYER, START, END, PARENT, CHILD_S, TAG, VALUE = range(8)


class TraceTargetError(LookupError):
    """A trace target named in the benchmark does not exist any more."""


@dataclass(frozen=True)
class Target:
    """One public entry point to wrap.

    ``path`` is ``"package.module:function"`` or
    ``"package.module:Class.method"``.  ``spans=False`` makes the
    wrapper count calls without timing them.  ``value`` maps a call's
    result to a number stored on its span (bytes moved, say), so that
    volumes are measured where the work happens.
    """

    path: str
    layer: str
    spans: bool = True
    value: Optional[Callable[[object], float]] = None


def _resolve(path: str) -> Tuple[object, str, object]:
    """``(owner, attribute, raw object)`` of a target, or raise."""
    module_name, _, qualname = path.partition(":")
    try:
        owner: object = importlib.import_module(module_name)
    except ImportError as err:
        raise TraceTargetError(
            f"trace target {path!r}: cannot import {module_name!r} ({err})"
        ) from err
    parts = qualname.split(".")
    if not qualname or len(parts) > 2:
        raise TraceTargetError(
            f"trace target {path!r}: want 'module:function' or "
            "'module:Class.method'"
        )
    for part in parts[:-1]:
        if part not in vars(owner):
            raise TraceTargetError(
                f"trace target {path!r}: {module_name} has no {part!r}"
            )
        owner = vars(owner)[part]
    attr = parts[-1]
    # vars(), not getattr(): an inherited method must be named on the
    # class that defines it, or restoring would shadow the base class.
    if attr not in vars(owner):
        raise TraceTargetError(
            f"trace target {path!r}: {attr!r} is not defined on "
            f"{getattr(owner, '__name__', owner)!r}"
        )
    return owner, attr, vars(owner)[attr]


class Tracer:
    """Records spans and counts for the installed targets."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[list] = []
        # Calls of the count-only targets (timed targets have spans).
        self.counts: Dict[str, int] = {}
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------
    @contextlib.contextmanager
    def span(self, name: str, layer: str, tag: Optional[str] = None) -> Iterator[None]:
        """An explicit span (the benchmark's root spans use this)."""
        index = self._open(name, layer, tag)
        try:
            yield
        finally:
            self._close(index)

    def _open(self, name: str, layer: str, tag: Optional[str]) -> int:
        stack = self._stack
        index = len(self.spans)
        self.spans.append(
            [name, layer, 0.0, 0.0, stack[-1] if stack else -1, 0.0, tag, 0.0]
        )
        stack.append(index)
        self.spans[index][START] = self.clock()
        return index

    def _close(self, index: int) -> None:
        end = self.clock()
        record = self.spans[index]
        record[END] = end
        self._stack.pop()
        if record[PARENT] >= 0:
            self.spans[record[PARENT]][CHILD_S] += end - record[START]

    def _wrap(self, target: Target, fn: Callable, tag_first_arg: bool) -> Callable:
        name = target.path.partition(":")[2]
        layer = target.layer
        value = target.value

        if not target.spans:
            counts = self.counts
            counts[name] = 0

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return counted

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tag = args[0].__name__ if tag_first_arg else None
            index = self._open(name, layer, tag)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if value is not None:
                self.spans[index][VALUE] = value(result)
            return result
        return traced

    # -- patching ------------------------------------------------------
    def install(self, targets: List[Target]) -> None:
        """Wrap every target; raises before patching if one is missing."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        resolved = [(t, *_resolve(t.path)) for t in targets]
        for target, owner, attr, raw in resolved:
            if isinstance(raw, classmethod):
                # Tag the span with the class the method was called on
                # (Function.apply: the op class).
                wrapper: object = classmethod(
                    self._wrap(target, raw.__func__, tag_first_arg=True)
                )
            elif isinstance(raw, staticmethod):
                wrapper = staticmethod(
                    self._wrap(target, raw.__func__, tag_first_arg=False)
                )
            else:
                wrapper = self._wrap(target, raw, tag_first_arg=False)
            self._patch(owner, attr, raw, wrapper)
            if isinstance(owner, types.ModuleType):
                # ``from x import f`` copies the binding; patch each copy.
                for module in list(sys.modules.values()):
                    if not isinstance(module, types.ModuleType) or module is owner:
                        continue
                    for other_attr, obj in list(vars(module).items()):
                        if obj is raw:
                            self._patch(module, other_attr, raw, wrapper)

    def _patch(self, owner: object, attr: str, raw: object, wrapper: object) -> None:
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Put every original object back (identity-preserving)."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    @contextlib.contextmanager
    def installed(self, targets: List[Target]) -> Iterator["Tracer"]:
        self.install(targets)
        try:
            yield self
        finally:
            self.uninstall()

    # -- reading -------------------------------------------------------
    @staticmethod
    def duration(record: list) -> float:
        return record[END] - record[START]

    @staticmethod
    def self_time(record: list) -> float:
        return record[END] - record[START] - record[CHILD_S]

    def roots(self, name: str) -> List[int]:
        """Indices of the top-level spans called ``name``."""
        return [
            i for i, r in enumerate(self.spans)
            if r[PARENT] < 0 and r[NAME] == name
        ]

    def root_of(self) -> List[int]:
        """For every span, the index of the top-level span above it."""
        out: List[int] = []
        for i, record in enumerate(self.spans):
            parent = record[PARENT]
            out.append(i if parent < 0 else out[parent])
        return out


def chrome_trace(*tracers: Tracer) -> dict:
    """The tracers' spans as one Chrome-trace (``chrome://tracing``) object."""
    records = [record for tracer in tracers for record in tracer.spans]
    origin = min((record[START] for record in records), default=0.0)
    events = []
    for record in records:
        args = {"self_us": Tracer.self_time(record) * 1e6}
        if record[TAG] is not None:
            args["op"] = record[TAG]
        events.append({
            "name": record[NAME],
            "cat": record[LAYER],
            "ph": "X",
            "pid": 0,
            "tid": 0,
            "ts": (record[START] - origin) * 1e6,
            "dur": Tracer.duration(record) * 1e6,
            "args": args,
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}
