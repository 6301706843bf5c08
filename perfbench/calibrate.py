"""Reference kernel that turns wall-clock time into machine-speed units.

On a shared box the same pure-Python loop can take 20 ms one second and
34 ms the next; CPU time drifts the same way, so neither fixes the
drift.  What does: time a fixed kernel immediately before and after each
measured interval and express the interval in kernel units.  A figure
in *ref-ms* is the interval's wall time divided by the kernel time
around it (the client takes the median of the last few timings, which
include the two that bracket the interval), times
:data:`NOMINAL_KERNEL_MS` -- the wall time the interval would have
taken at the nominal kernel speed.

The kernel imports nothing from the program under test, so no change to
the program can move it.  It does the kind of work the program does --
allocate small objects, chase pointers through a tree, churn a dict --
so the box's speed moves it the way it moves the program.  It runs with
the garbage collector paused and takes the minimum of
:data:`REPEATS` runs.

The calibration is only sound when the kernel and the measured work
share one thread: work a second thread or process did after replying
would overlap the kernel and read as a gain.
"""

from __future__ import annotations

import gc
import time

REPEATS = 3
# Nominal kernel time: a kernel run at exactly this speed makes one
# ref-ms equal one wall millisecond.  Fixed forever; changing it
# rescales every normalised figure.
NOMINAL_KERNEL_MS = 1.0
_TREE_DEPTH = 9
_DICT_ROUNDS = 3000


class _Node:
    __slots__ = ("kind", "kids", "width")

    def __init__(self, kind: int, kids: tuple, width: int) -> None:
        self.kind = kind
        self.kids = kids
        self.width = width


def _build(depth: int, seed: int) -> _Node:
    if depth == 0:
        return _Node(seed % 7, (), 1 + seed % 3)
    kids = (_build(depth - 1, seed * 3 + 1), _build(depth - 1, seed * 3 + 2))
    return _Node(seed % 7, kids, kids[0].width + kids[1].width)


def kernel() -> int:
    """One run of the reference work; returns a checksum."""
    root = _build(_TREE_DEPTH, 1)
    widths: dict[int, int] = {}
    stack = [root]
    while stack:
        node = stack.pop()
        widths[node.kind] = widths.get(node.kind, 0) + node.width
        stack.extend(node.kids)
    # Integer keys: str hashes are salted per process, and the probe
    # pattern of a churned dict would then differ from run to run.
    table: dict[int, int] = {}
    for i in range(_DICT_ROUNDS):
        key = (i * 7919) % 1024
        table[key] = table.get(key, 0) + i
        if i % 3 == 0:
            del table[key]
    return sum(widths.values()) + len(table)


def kernel_seconds() -> float:
    """Wall seconds of one kernel run: min of :data:`REPEATS`, GC paused."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(REPEATS):
            start = time.perf_counter()
            kernel()
            best = min(best, time.perf_counter() - start)
        return best
    finally:
        if enabled:
            gc.enable()

