"""Closed-loop client: one gesture in flight, every byte through the codec.

Requests are encoded with ``repro.service.protocol.encode`` and decoded
with ``decode_line`` -- exactly what a transport does -- before
:meth:`AnalysisService.handle` sees them; replies are encoded and
parsed back as JSON before the client reads them.  Each timed interval
is bracketed by the reference kernel (``calibrate.py``), so every
latency exists both as raw milliseconds and as ref-ms.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import statistics
import time
from collections import deque

from calibrate import NOMINAL_KERNEL_MS, kernel_seconds
from repro.service.protocol import decode_line, encode


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Interval:
    """Raw and normalised length of one timed interval."""

    __slots__ = ("raw_s", "factor")

    def __init__(self, raw_s: float, factor: float) -> None:
        self.raw_s = raw_s
        self.factor = factor  # seconds -> ref-ms

    @property
    def ref_ms(self) -> float:
        return self.raw_s * self.factor


class Client:
    """Talks to one in-process service; counts requests and failures."""

    def __init__(self, service, tracer=None) -> None:
        self.service = service
        self.tracer = tracer
        self.sent = 0
        self.ok = 0
        self.failures: list[dict] = []
        self._ids = 0

    async def _one(self, request: dict) -> dict:
        self._ids += 1
        self.sent += 1
        start = time.perf_counter()
        decoded = decode_line(encode(dict(request, id=self._ids)))
        codec = time.perf_counter() - start
        reply = await self.service.handle(decoded)
        start = time.perf_counter()
        parsed = json.loads(encode(reply))
        if self.tracer is not None:
            self.tracer.add(
                "protocol.codec", codec + time.perf_counter() - start
            )
        return parsed

    async def send(self, requests: list[dict]) -> list[dict]:
        """Send requests together (pipelined) and await every reply."""
        if len(requests) == 1:
            return [await self._one(requests[0])]
        return list(await asyncio.gather(*(self._one(r) for r in requests)))

    async def send_each(self, requests: list[dict]) -> list[dict]:
        """Send requests one at a time, each after the previous reply."""
        return [await self._one(request) for request in requests]

    def judge(self, passed: bool, reply: dict) -> bool:
        """Count one request; keep the first few failing replies."""
        if passed:
            self.ok += 1
        elif len(self.failures) < 5:
            self.failures.append(
                {k: v for k, v in reply.items() if k != "text"}
            )
        return passed


class Timer:
    """Brackets intervals with the reference kernel.

    An interval is normalised by the median of the last
    :data:`KERNEL_WINDOW` kernel timings, which include the two that
    bracket it: one kernel timing is noisy on its own, while the box's
    drift moves over seconds, far slower than the window.
    """

    KERNEL_WINDOW = 8

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self._kernels: deque[float] = deque(maxlen=self.KERNEL_WINDOW)
        self._start = 0.0

    def start(self, *, after_stop: bool = False) -> None:
        """Open an interval.

        ``after_stop`` reuses the kernel timing the previous :meth:`stop`
        took, when no timed work has run since (only the client checking
        replies and building the next gesture).
        """
        if not after_stop:
            self._kernels.append(kernel_seconds())
        if self.tracer is not None:
            self.tracer.begin()
        self._start = time.perf_counter()

    def lap(self) -> float:
        return time.perf_counter() - self._start

    def stop(self, phase: str, laps: tuple[float, ...] = ()) -> list[Interval]:
        """End the interval; returns one Interval per lap plus the whole."""
        raw = time.perf_counter() - self._start
        self._kernels.append(kernel_seconds())
        factor = NOMINAL_KERNEL_MS / statistics.median(self._kernels)
        if self.tracer is not None:
            self.tracer.end(phase, factor)
        return [Interval(s, factor) for s in (*laps, raw)]
