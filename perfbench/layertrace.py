"""Outside-in layer trace: wrap each layer's public entry points.

The wrappers live here, not in the program: :func:`install` patches the
entry points named in :data:`TARGETS` with timing shims and returns a
function that restores the originals.  Each shim records *self time*
(its span minus the spans of wrapped calls nested inside it) and calls,
under a bucket name such as ``parser.iglr``.

The service is asyncio code.  A coroutine's wall span includes every
other task that ran while it was suspended, so coroutine entry points
(``AnalysisService.handle``, the session worker loop) are timed per
*step* instead: each resumption of the coroutine is one span.  Sync
entry points never yield, so spans nest on one stack.

Time is only recorded between :meth:`Tracer.begin` and
:meth:`Tracer.end`, which the client calls around each timed interval;
``end`` folds the interval's self times into the totals of a phase,
scaled by the interval's calibration factor.
"""

from __future__ import annotations

import time
from collections import defaultdict

# (module, attribute path, bucket, kind).  kind: "fn" (sync function or
# method), "cls" (classmethod), "coro" (coroutine function).
TARGETS = (
    ("repro.versioned.document", "relex", "lexing.relex", "fn"),
    ("repro.versioned.document", "choice_points", "dag.choice_points", "fn"),
    ("repro.versioned.document", "error_regions", "dag.error_regions", "fn"),
    ("repro.versioned.document", "Document.parse", "versioned.parse", "fn"),
    ("repro.versioned.document", "Document.edit", "versioned.edit", "fn"),
    ("repro.versioned.document", "Document.tree_node_count",
     "versioned.tree_node_count", "fn"),
    ("repro.versioned.document", "Document.restore_state",
     "persist.restore_state", "cls"),
    ("repro.parser.iglr", "IGLRParser.parse", "parser.iglr", "fn"),
    ("repro.parser.iglr", "IGLRParser.parse_tolerant",
     "parser.iglr_tolerant", "fn"),
    ("repro.parser.sequences", "attempt_sequence_repair",
     "parser.sequence_repair", "fn"),
    ("repro.parser.sequences", "collapse_sequences",
     "parser.collapse_sequences", "fn"),
    ("repro.service.session", "text_digest", "service.text_digest", "fn"),
    ("repro.service.session", "Session.make_snapshot",
     "persist.make_snapshot", "fn"),
    ("repro.service.session", "Session._flush", "service.handle", "fn"),
    ("repro.service.session", "Session._handle", "service.handle", "fn"),
    ("repro.service.session", "Session._run", "service.handle", "coro"),
    ("repro.service.server", "AnalysisService.handle", "service.handle",
     "coro"),
    ("repro.service.persist", "SnapshotStore.save", "persist.save", "fn"),
    ("repro.service.persist", "SnapshotStore.load", "persist.load", "fn"),
    ("repro.service.manager", "SessionManager.rehydrate",
     "service.rehydrate", "fn"),
    ("repro.semantics.analyzer", "TypedefAnalyzer.analyze",
     "semantics.analyze", "fn"),
    ("repro.semantics.analyzer", "TypedefAnalyzer.update",
     "semantics.update", "fn"),
    ("repro.semantics.analyzer", "TypedefAnalyzer.apply_external_delta",
     "semantics.external_delta", "fn"),
    ("repro.language", "build_table", "tables.build_table", "fn"),
)


class Tracer:
    """Self-time accounting on one stack, folded per timed interval."""

    def __init__(self) -> None:
        self._children: list[float] = []  # child time of each open span
        self._recording = False
        self._interval: dict[str, float] = defaultdict(float)
        self._calls: dict[str, int] = defaultdict(int)
        self.self_ms: dict[str, dict[str, float]] = defaultdict(
            lambda: defaultdict(float)
        )
        self.raw_ms: dict[str, dict[str, float]] = defaultdict(
            lambda: defaultdict(float)
        )
        self.calls: dict[str, dict[str, int]] = defaultdict(
            lambda: defaultdict(int)
        )

    # -- spans ----------------------------------------------------------------

    def enter(self) -> float:
        self._children.append(0.0)
        return time.perf_counter()

    def leave(self, bucket: str, start: float) -> None:
        span = time.perf_counter() - start
        child = self._children.pop()
        if self._children:
            self._children[-1] += span
        if self._recording:
            self._interval[bucket] += span - child
            self._calls[bucket] += 1

    def add(self, bucket: str, seconds: float) -> None:
        """Self time measured by the caller (the client's codec calls)."""
        if self._recording:
            self._interval[bucket] += seconds
            self._calls[bucket] += 1

    # -- intervals ------------------------------------------------------------

    def begin(self) -> None:
        self._interval.clear()
        self._calls.clear()
        self._recording = True

    def end(self, phase: str, factor: float) -> None:
        """Close an interval; ``factor`` converts seconds to ref-ms."""
        self._recording = False
        for bucket, seconds in self._interval.items():
            self.raw_ms[phase][bucket] += seconds * 1e3
            self.self_ms[phase][bucket] += seconds * factor
        for bucket, count in self._calls.items():
            self.calls[phase][bucket] += count

    # -- shims ----------------------------------------------------------------

    def shim(self, fn, bucket: str, kind: str):
        tracer = self
        if kind == "coro":
            async def coro_shim(*args, **kwargs):
                return await _StepTimed(tracer, bucket, fn(*args, **kwargs))
            return coro_shim
        def shim(*args, **kwargs):
            start = tracer.enter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.leave(bucket, start)
        return shim


class _StepTimed:
    """Await a coroutine, timing each of its steps as one span."""

    def __init__(self, tracer: Tracer, bucket: str, coro) -> None:
        self.tracer = tracer
        self.bucket = bucket
        self.coro = coro

    def __await__(self):
        tracer, bucket, coro = self.tracer, self.bucket, self.coro
        value, error = None, None
        while True:
            start = tracer.enter()
            try:
                if error is not None:
                    yielded = coro.throw(error)
                else:
                    yielded = coro.send(value)
            except StopIteration as stop:
                tracer.leave(bucket, start)
                return stop.value
            except BaseException:
                tracer.leave(bucket, start)
                raise
            tracer.leave(bucket, start)
            try:
                value, error = (yield yielded), None
            except GeneratorExit:
                coro.close()
                raise
            except BaseException as exc:  # forwarded into the coroutine
                value, error = None, exc


def install(tracer: Tracer):
    """Patch every target with a shim; returns the undo function."""
    import importlib

    undo = []
    for module_name, path, bucket, kind in TARGETS:
        owner = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        for parent in parents:
            owner = getattr(owner, parent)
        original = owner.__dict__[attr]
        if kind == "cls":
            patched = classmethod(tracer.shim(original.__func__, bucket, "fn"))
        else:
            patched = tracer.shim(original, bucket, kind)
        setattr(owner, attr, patched)
        undo.append((owner, attr, original))

    def uninstall() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall
