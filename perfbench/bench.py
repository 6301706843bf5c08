"""The phases of one workload run: set-up, gestures, differential check,
crash-restart recovery.

:func:`measure` gives the end-to-end figures (no tracing); :func:`traced`
gives the per-layer figures from a traced run of the same seed plus an
untraced replay of the same gestures for the tracing overhead.
"""

from __future__ import annotations

import asyncio
import gc
import os
import resource
import shutil
import statistics
import time
from pathlib import Path

from client import Client, Timer, digest
from workloads import WORKLOADS, Gesture, Workload, apply_spec

from repro import obs
from repro.langs import calc_language, fullc_language, minic_language
from repro.service.server import AnalysisService
from repro.tables.cache import clear_cache

SETUP_REPEATS = 9  # cold starts per run; setup_s is their median
RECOVER_SAMPLES = 24  # crash-restarts after the edit phase; median of them
TRACE_SHARE = 0.5  # traced run: share of --seconds for the traced pass
MIN_GESTURES = 200  # p95 needs ten samples beyond it


class Run:
    """Scratch directories and failure accounting for one run."""

    def __init__(self, workload: str, seed: int, work_dir: Path) -> None:
        self.workload_name = workload
        self.seed = seed
        self.work_dir = work_dir
        self._dirs = 0
        self.attempted = 0
        self.failed = 0
        self.mismatches: list[str] = []
        self.failures: list[dict] = []

    def fresh_dir(self, kind: str) -> Path:
        self._dirs += 1
        path = self.work_dir / f"{kind}{self._dirs}"
        path.mkdir(parents=True)
        return path

    def count(self, client: Client) -> None:
        self.attempted += client.sent
        self.failed += client.sent - client.ok
        self.failures += client.failures[: 5 - len(self.failures)]
        client.sent = client.ok = 0
        client.failures = []

    def workload(self) -> Workload:
        return WORKLOADS[self.workload_name](self.seed)


def cold_caches(run: Run) -> None:
    """Forget every parse table: next language use builds from scratch."""
    os.environ["REPRO_TABLE_CACHE"] = str(run.fresh_dir("tables"))
    clear_cache()
    for constructor in (calc_language, fullc_language, minic_language):
        constructor.cache_clear()


async def crash(service: AnalysisService) -> None:
    """Drop a service without a clean shutdown: no final snapshots."""
    service.manager.close_all(snapshot=False)
    await asyncio.sleep(0)  # let the cancelled session workers finish


def _reply_ok(reply: dict, expect: set[str]) -> bool:
    return (
        reply.get("ok") is True
        and reply.get("sha256") in expect
        and reply.get("error_regions", 0) == 0
        and not reply.get("has_errors", False)
    )


async def cold_start(run: Run, workload: Workload, timer: Timer, tracer):
    """Construct a service and open every document (one timed interval).

    Returns the service, its client, the interval and its state dir
    (None for a workload served without one).
    """
    cold_caches(run)
    state = run.fresh_dir("state") if workload.state_dir else None
    gc.collect()
    timer.start()
    service = AnalysisService(state_dir=state)
    client = Client(service, tracer)
    replies = await client.send_each(workload.setup_requests())
    (interval,) = timer.stop("setup")
    for request, reply in zip(workload.setup_requests(), replies):
        expect = {digest(workload.texts[request["doc"]])}
        client.judge(_reply_ok(reply, expect), reply)
    return service, client, interval, state


async def gesture_phase(
    workload: Workload,
    client: Client,
    timer: Timer,
    *,
    seconds: float = 0.0,
    count: int = 0,
) -> dict:
    """Closed loop of gestures for ``seconds`` and at least ``count``.

    ``busy_ms`` sums each gesture's whole interval, its fan-out queries
    included (only ``project`` has any).
    """
    gestures, fanouts, recovered, edit_replies = [], [], 0, 0
    busy_ms = busy_raw_ms = 0.0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(gestures) < count:
        gesture = workload.next_gesture()
        requests, after = _requests(workload, gesture)
        queries = [{"op": "query", "doc": doc} for doc in gesture.fanout]
        timer.start(after_stop=bool(gestures))
        replies = await client.send(requests)
        if queries:
            edit_lap = timer.lap()
            replies += await client.send(queries)
            edit, whole = timer.stop("edit", (edit_lap,))
            fanouts.append(whole)
        else:
            (edit,) = timer.stop("edit")
            whole = edit
        gestures.append(edit)
        busy_ms += whole.ref_ms
        busy_raw_ms += whole.raw_s * 1e3
        for i, reply in enumerate(replies[: len(requests)]):
            client.judge(_reply_ok(reply, set(after[i:])), reply)
            recovered += bool(reply.get("recovered"))
            edit_replies += 1
        for query, reply in zip(queries, replies[len(requests):]):
            expect = {digest(workload.texts[query["doc"]])}
            client.judge(_reply_ok(reply, expect), reply)
    return {
        "gestures": gestures,
        "fanouts": fanouts,
        "busy_ms": busy_ms,
        "busy_raw_ms": busy_raw_ms,
        "recovered": recovered,
        "edit_replies": edit_replies,
    }


def _requests(workload: Workload, gesture: Gesture):
    """Edit requests of a gesture; advances the client's text."""
    text = workload.texts[gesture.doc]
    after = []
    requests = []
    for i, spec in enumerate(gesture.specs):
        text = apply_spec(text, spec)
        after.append(digest(text))
        requests.append({
            "op": "edit",
            "doc": gesture.doc,
            "edits": [spec],
            "defer": i < len(gesture.specs) - 1,
        })
    workload.texts[gesture.doc] = text
    return requests, after


async def differential_check(run: Run, workload: Workload, client: Client):
    """Final state of every document must equal a cold open of its text."""
    docs = [doc.name for doc in workload.docs]
    live = await client.send_each([{"op": "parse", "doc": d} for d in docs])
    cold_service = AnalysisService()
    cold = Client(cold_service)
    reopen = _reopen_requests(workload)
    opened = await cold.send_each(reopen)
    by_doc = {
        request["doc"]: reply
        for request, reply in zip(reopen, opened)
        if request["op"] == "open"
    }
    semantic_live, semantic_cold = {}, {}
    if workload.name == "project":
        dependents = workload.dependents()
        analyze = [{"op": "analyze", "doc": d} for d in dependents]
        semantic_live = dict(zip(dependents, await client.send_each(analyze)))
        semantic_cold = dict(zip(dependents, await cold.send_each(analyze)))
    for name, reply in zip(docs, live):
        expect = by_doc.get(name, {})
        same = client.judge(
            reply.get("sha256") == digest(workload.texts[name])
            and all(
                reply.get(f) == expect.get(f)
                for f in ("ok", "sha256", "ambiguous", "error_regions")
            ),
            reply,
        )
        if name in semantic_live:
            a, b = semantic_live[name], semantic_cold[name]
            same = client.judge(
                a.get("ok") is True
                and a.get("exports") == b.get("exports")
                and a.get("sem_state") == b.get("sem_state"),
                {"live": a, "cold": b},
            ) and same
        if not same:
            run.mismatches.append(name)
    await cold_service.aclose()
    run.count(client)


def _reopen_requests(workload: Workload) -> list[dict]:
    """The workload's set-up requests, opening the *current* texts."""
    requests = workload.setup_requests()
    for request in requests:
        if request["op"] == "open":
            request["text"] = workload.texts[request["doc"]]
    return requests


class Recovery:
    """Crash-restart samples over the state the run persisted.

    The source is the measured service's own state dir when it has one
    (``durable``): every batch it acknowledged during the edit phase is
    on disk there.  A workload served without one has its final texts
    opened by a probe service with a fresh state dir, which is then
    dropped without a clean shutdown.  Each :meth:`sample` copies the
    source (untimed), starts a fresh service on the copy, times its
    first reply -- a rehydration -- for the next document in turn, and
    drops it again.
    """

    def __init__(self, run: Run, workload: Workload, tracer) -> None:
        self.run = run
        self.tracer = tracer
        self.expect = {
            name: digest(text) for name, text in workload.texts.items()
        }
        self.names = list(workload.texts)
        self.source: Path | None = None

    async def persist(self, workload: Workload, state: Path | None) -> None:
        if state is None:
            state = self.run.fresh_dir("recover")
            probe = AnalysisService(state_dir=state)
            await Client(probe).send_each(_reopen_requests(workload))
            await crash(probe)
        self.source = state

    async def phase(self, timer: Timer) -> list:
        return [
            await self.sample(timer, self.names[i % len(self.names)])
            for i in range(RECOVER_SAMPLES)
        ]

    async def sample(self, timer: Timer, name: str):
        copy = self.run.fresh_dir("restart")
        shutil.copytree(self.source, copy, dirs_exist_ok=True)
        restarted = AnalysisService(state_dir=copy)
        client = Client(restarted, self.tracer)
        # Dropped services leave cyclic garbage (parent pointers);
        # collect it so no sample pays for an earlier one's.
        gc.collect()
        timer.start()
        (reply,) = await client.send([{"op": "query", "doc": name}])
        (interval,) = timer.stop("recover")
        client.judge(
            reply.get("rehydrated") is True
            and _reply_ok(reply, {self.expect[name]}),
            reply,
        )
        await crash(restarted)
        self.run.count(client)
        shutil.rmtree(copy)
        return interval


def _median_ms(intervals) -> tuple[float, float]:
    return (
        statistics.median(i.ref_ms for i in intervals),
        statistics.median(i.raw_s * 1e3 for i in intervals),
    )


def _p95_ms(intervals) -> tuple[float, float]:
    def p95(values):
        ordered = sorted(values)
        return ordered[min(len(ordered) - 1, int(0.95 * len(ordered)))]

    return (
        p95(i.ref_ms for i in intervals),
        p95(i.raw_s * 1e3 for i in intervals),
    )


async def measure(run: Run, seconds: float) -> dict:
    """End-to-end figures: each metric -> (value, unit, raw ms or None)."""
    timer = Timer()
    setups = []
    service = None
    for _ in range(SETUP_REPEATS):
        if service is not None:
            await crash(service)
        workload = run.workload()
        service, client, interval, state = await cold_start(
            run, workload, timer, None
        )
        setups.append(interval)
        run.count(client)
    edits = await gesture_phase(
        workload, client, timer, seconds=seconds, count=MIN_GESTURES
    )
    run.count(client)
    await differential_check(run, workload, client)
    await crash(service)
    recovery = Recovery(run, workload, None)
    await recovery.persist(workload, state)
    recover = await recovery.phase(timer)
    gestures, fanouts = edits["gestures"], edits["fanouts"]
    setup_ref, setup_raw = _median_ms(setups)
    p50 = _median_ms(gestures)
    p95 = _p95_ms(gestures)
    recover_ms = _median_ms(recover)
    raw_busy_s = edits["busy_raw_ms"] / 1e3
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        # Reference seconds, like every timing here; the result format
        # names set-up time's unit plain "s".
        "setup_s": (setup_ref / 1e3, "s", f"{setup_raw:.1f} ms"),
        "edit_p50_ms": (p50[0], "ref-ms", f"{p50[1]:.3f} ms"),
        "edit_p95_ms": (p95[0], "ref-ms", f"{p95[1]:.3f} ms"),
        "edits_per_s": (
            len(gestures) / (edits["busy_ms"] / 1e3),
            "1/ref-s",
            f"{len(gestures) / raw_busy_s:.3f} 1/s",
        ),
        "peak_rss_mb": (rss_mb, "MB", None),
        "ok_ratio": (
            (run.attempted - run.failed) / run.attempted, "share", None
        ),
        "recover_p50_ms": (
            recover_ms[0], "ref-ms", f"{recover_ms[1]:.3f} ms"),
    }
    if fanouts:  # project only
        fanout_ms = _median_ms(fanouts)
        metrics["fanout_p50_ms"] = (
            fanout_ms[0], "ref-ms", f"{fanout_ms[1]:.3f} ms")
    return {
        "samples": {
            "setups": len(setups),
            "gestures": len(gestures),
            "fanouts": len(fanouts),
            "recoveries": len(recover),
        },
        "metrics": metrics,
    }


# Per-layer figures.  Each entry: name -> (phase, bucket, statistic).
# "per_gesture": ref-ms of self time per gesture of the edit phase;
# "per_call": ref-ms per call, over every traced phase;
# "per_setup": ref-ms per cold start.
LAYER_TIMES = {
    "protocol.codec.self_ms": ("protocol.codec", "per_gesture"),
    "service.handle.self_ms": ("service.handle", "per_gesture"),
    "service.text_digest.self_ms": ("service.text_digest", "per_gesture"),
    "lexing.relex.self_ms": ("lexing.relex", "per_gesture"),
    "parser.iglr.self_ms": ("parser.iglr", "per_gesture"),
    "parser.iglr_tolerant.self_ms": ("parser.iglr_tolerant", "per_gesture"),
    "parser.sequence_repair.self_ms": (
        "parser.sequence_repair", "per_gesture"),
    "parser.collapse_sequences.self_ms": (
        "parser.collapse_sequences", "per_gesture"),
    "versioned.parse.self_ms": ("versioned.parse", "per_gesture"),
    "versioned.edit.self_ms": ("versioned.edit", "per_gesture"),
    "dag.choice_points.self_ms": ("dag.choice_points", "per_gesture"),
    "dag.error_regions.self_ms": ("dag.error_regions", "per_gesture"),
    "versioned.tree_node_count.self_ms": (
        "versioned.tree_node_count", "per_gesture"),
    "semantics.analyze.self_ms": ("semantics.analyze", "per_gesture"),
    "semantics.update.self_ms": ("semantics.update", "per_gesture"),
    "semantics.external_delta.self_ms": (
        "semantics.external_delta", "per_gesture"),
    "persist.make_snapshot.self_ms": ("persist.make_snapshot", "per_call"),
    "persist.save.self_ms": ("persist.save", "per_call"),
    "persist.load.self_ms": ("persist.load", "per_call"),
    "persist.restore_state.self_ms": ("persist.restore_state", "per_call"),
    "service.rehydrate.self_ms": ("service.rehydrate", "per_call"),
    "tables.build_table.self_ms": ("tables.build_table", "per_setup"),
}
LAYER_CALLS = {
    "parser.iglr.calls": "parser.iglr",
    "parser.iglr_tolerant.calls": "parser.iglr_tolerant",
    "dag.choice_points.calls": "dag.choice_points",
    "versioned.tree_node_count.calls": "versioned.tree_node_count",
}
# Layers that idle on every workload of BENCHMARK.json: their times read
# exactly 0 on every run there, so they are printed but not reported.
IDLE_IN_REGISTERED = {
    "dag.error_regions.self_ms",
    "parser.iglr_tolerant.self_ms",
    "semantics.analyze.self_ms",
    "semantics.update.self_ms",
    "semantics.external_delta.self_ms",
    "semantics.redecisions",
    "semantics.full_passes",
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


async def traced(run: Run, seconds: float) -> dict:
    """Per-layer figures: a traced run, then an untraced replay."""
    from layertrace import Tracer, install

    tracer = Tracer()
    timer = Timer(tracer)
    uninstall = install(tracer)
    try:
        workload = run.workload()
        service, client, setup, state = await cold_start(
            run, workload, timer, tracer
        )
        run.count(client)
        with obs.collecting() as counters:
            edits = await gesture_phase(
                workload, client, timer, seconds=seconds * TRACE_SHARE
            )
        counters = dict(counters)
        (stats,) = await client.send_each([{"op": "stats"}])
        client.judge(stats.get("ok") is True, stats)
        run.count(client)
        await differential_check(run, workload, client)
        await crash(service)
        recovery = Recovery(run, workload, tracer)
        await recovery.persist(workload, state)
        recoveries = await recovery.phase(timer)
    finally:
        uninstall()
    # The same gestures again without wrappers or counters.
    timer = Timer()
    replay = run.workload()
    service, client, _, _ = await cold_start(run, replay, timer, None)
    untraced = await gesture_phase(
        replay, client, timer, count=len(edits["gestures"])
    )
    run.count(client)
    await crash(service)

    n = len(edits["gestures"])
    covered = sum(tracer.self_ms["edit"].values())

    def layer_time(totals, bucket: str, stat: str) -> float:
        if stat == "per_gesture":
            return totals["edit"].get(bucket, 0.0) / n
        if stat == "per_setup":
            return totals["setup"].get(bucket, 0.0)
        calls = sum(p.get(bucket, 0) for p in tracer.calls.values())
        return _ratio(sum(p.get(bucket, 0.0) for p in totals.values()), calls)

    metrics = {}
    for name, (bucket, stat) in LAYER_TIMES.items():
        raw = layer_time(tracer.raw_ms, bucket, stat)
        metrics[name] = (
            layer_time(tracer.self_ms, bucket, stat), "ref-ms", f"{raw:.4f} ms"
        )
    for name, bucket in LAYER_CALLS.items():
        metrics[name] = (tracer.calls["edit"].get(bucket, 0) / n, "1/gesture")
    get = counters.get
    metrics.update({
        "service.coalesce_ratio": (
            _ratio(get("service.edits_received", 0),
                   get("service.edits_applied", 0)),
            "ratio",
        ),
        "dag.resident_nodes": (stats["stats"]["resident_nodes"], "count"),
        "lexing.tokens_rescanned": (
            get("lex.tokens_rescanned", 0) / n, "1/gesture"),
        "parser.sequence_repair.hit_ratio": (
            _ratio(get("seq.repairs", 0),
                   get("seq.repairs", 0) + get("seq.repair_fallbacks", 0)),
            "ratio",
        ),
        "parser.work": (
            (get("parse.shifts", 0) + get("parse.reductions", 0)
             + get("parse.subtrees_decomposed", 0)) / n,
            "1/gesture",
        ),
        "parser.nodes_reused_ratio": (
            _ratio(get("parse.nodes_reused", 0),
                   get("parse.nodes_reused", 0)
                   + get("parse.nodes_created", 0)),
            "ratio",
        ),
        "versioned.recovered_share": (
            _ratio(edits["recovered"], edits["edit_replies"]), "share"),
        "persist.save.bytes_per_ack": (
            _ratio(get("persist.save_bytes", 0), edits["edit_replies"]),
            "bytes",
        ),
        "semantics.redecisions": (
            (get("sem.redecisions", 0) + get("sem.external_redecisions", 0))
            / n,
            "1/gesture",
        ),
        "semantics.full_passes": (get("sem.full_passes", 0) / n, "1/gesture"),
        "trace.remainder_share": (
            _ratio(edits["busy_ms"] - covered, edits["busy_ms"]), "share"),
        "trace.overhead": (
            _ratio(edits["busy_ms"], untraced["busy_ms"]) - 1.0, "share"),
    })
    metrics = {
        name: figure if len(figure) == 3 else (*figure, None)
        for name, figure in metrics.items()
    }
    reported = {
        name: figure
        for name, figure in metrics.items()
        if name not in IDLE_IN_REGISTERED
    }
    detail = {name: metrics[name] for name in sorted(IDLE_IN_REGISTERED)}
    shares = {
        bucket: ms / edits["busy_ms"]
        for bucket, ms in sorted(
            tracer.self_ms["edit"].items(), key=lambda item: -item[1]
        )
    }
    return {
        "shares": shares,
        "samples": {
            "gestures": n,
            "recoveries": len(recoveries),
            "traced_setup_ms": setup.ref_ms,
        },
        "metrics": reported,
        "detail": detail,
    }
