"""The benchmark's workloads: set-up, untraced measurement, traced measurement.

Each workload is built only through the program's public entry points:
``ServeSpec`` + ``build_deployment`` for the serve workloads, ``EvalTask`` +
``run_eval_grid`` for offline eval.  Load comes from one asyncio loop in
this process.

An untraced run (``trace=False``) sets up ``SETUP_REPEATS`` times, keeps the
last deployment and measures the end-to-end metrics in windows (one eval
call is one window).  It reads the host's pace (:mod:`pace`) between
set-ups and between windows, and scales the set-ups and the windows to the
nominal host; the unscaled figures are printed too.  A traced run sets up
once with the construction probes installed, then measures with the layer
probes on.  Where the model runs in this process (serve-closed,
eval-faults), traced batches alternate with reference batches that time
only the whole batch (:class:`probes.Clock`); the references give
``trace.overhead_frac`` and the figure the layer times reconcile against.
The open loop measures half its time untraced and restarts traced for the
other half.
"""

from __future__ import annotations

import asyncio
import contextlib
import functools
import itertools
import os
import statistics
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Any, Callable, Dict, List, Optional
from unittest import mock

import numpy as np

import definitions as defs
import probes
from pace import CALLS, Pace

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 15
#: Largest relative gap allowed when the traced run reconciles model-layer
#: self times with ``pipeline.predict_ms_p50`` and that with
#: ``engine.run_ms_p50``.  The layer sums are per-batch means and the
#: targets are medians, so the gap is the skew of the batch-time distribution
#: plus the probes' own cost.
RECONCILE_TOLERANCE = 0.15
#: Real batches kept from a traced run to time the frame codec on.
CODEC_SAMPLE = 64
#: Real images the request fingerprint is timed on.
FINGERPRINT_SAMPLE = 256


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q)) if len(values) else 0.0


def _proc_kb(pid: str, field: str, name: str = "status") -> int:
    """One ``kB`` field of ``/proc/<pid>/status`` (or ``smaps_rollup``)."""
    with open(f"/proc/{pid}/{name}") as lines:
        for line in lines:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise KeyError(field)


class MemoryWatch:
    """Peak resident memory of the program, not of the benchmark's inputs.

    On entry the kernel's high-water mark of this process is reset, so the
    transient peak of building the image pool is forgotten; on exit the
    process's peak (``VmHWM``) less ``exclude_bytes`` (the image pool, still
    resident) is its share.  Worker processes forked from this one share its
    pages, so each counts only its private pages (``Private_Clean`` +
    ``Private_Dirty``), sampled every ``interval`` seconds while it lives;
    the largest sum over one sample is added.  Linux only (``/proc``).
    """

    def __init__(self, exclude_bytes: int, interval: float = 1.0) -> None:
        self.exclude_kb = exclude_bytes / 1024.0
        self.interval = interval
        self.pid = str(os.getpid())
        self.process_kb = 0.0
        self.workers_kb = 0.0
        self._stop = threading.Event()
        self._sampler = threading.Thread(target=self._sample, name="perfbench-memory", daemon=True)

    def _children(self) -> List[str]:
        children = []
        for entry in os.listdir("/proc"):
            if entry.isdigit():
                try:
                    with open(f"/proc/{entry}/stat") as stat:
                        parent = stat.read().rsplit(")", 1)[1].split()[1]
                except (OSError, IndexError):
                    continue
                if parent == self.pid:
                    children.append(entry)
        return children

    def _sample(self) -> None:
        while not self._stop.wait(self.interval):
            private = 0
            for child in self._children():
                try:
                    private += _proc_kb(child, "Private_Clean", "smaps_rollup")
                    private += _proc_kb(child, "Private_Dirty", "smaps_rollup")
                except (OSError, KeyError):  # the worker exited mid-read
                    continue
            self.workers_kb = max(self.workers_kb, private)

    def __enter__(self) -> "MemoryWatch":
        with open("/proc/self/clear_refs", "w") as clear_refs:
            clear_refs.write("5")  # reset VmHWM to the current RSS
        self._sampler.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._sampler.join()
        self.process_kb = _proc_kb("self", "VmHWM") - self.exclude_kb

    def peak_mb(self) -> float:
        return (self.process_kb + self.workers_kb) / 1024.0

    def breakdown(self) -> Dict[str, float]:
        return {"process_mb": self.process_kb / 1024.0, "workers_mb": self.workers_kb / 1024.0}


@dataclass
class Tally:
    """Requests (or images) attempted, their outcomes and their latencies."""

    golden: defs.Golden
    attempted: int = 0
    completed: int = 0
    mismatches: int = 0
    errors: Counter = field(default_factory=Counter)
    latencies_ms: List[float] = field(default_factory=list)
    lateness_ms: List[float] = field(default_factory=list)
    started: float = 0.0
    finished: float = 0.0

    @property
    def failed(self) -> int:
        return self.mismatches + sum(self.errors.values())

    def throughput(self) -> float:
        elapsed = self.finished - self.started
        return self.completed / elapsed if elapsed > 0 else 0.0

    def absorb(self, other: "Tally") -> None:
        """Fold a phase's outcomes into this run-level tally (not its timings)."""
        self.attempted += other.attempted
        self.completed += other.completed
        self.mismatches += other.mismatches
        self.errors.update(other.errors)


@dataclass
class Report:
    """What one run measured, before it is printed."""

    tally: Tally
    end_to_end: Dict[str, float] = field(default_factory=dict)
    per_layer: Dict[str, float] = field(default_factory=dict)
    info: Dict[str, Any] = field(default_factory=dict)


class ConstructionProbe:
    """Times calibration and replica builds; instruments new pipelines on demand.

    ``collect_softmax_inputs`` is replaced on its module (callers import it
    at call time), ``ReplicaFactory.__call__`` and
    ``ScViTEvalPipeline.evaluate`` on their classes, until :meth:`undo`.
    ``instrument``, when set, is applied to every pipeline built (serve) or
    evaluated (eval) in this process; worker processes forked while the
    probe is installed inherit the wraps but instrument nothing.
    """

    def __init__(self, clock: probes.Clock) -> None:
        self.clock = clock
        self.patches = contextlib.ExitStack()
        self.instrument: Optional[Callable[[Any], None]] = None
        self._pid = os.getpid()

    def _instrument(self, pipeline) -> None:
        if self.instrument is not None and os.getpid() == self._pid:
            self.instrument(pipeline)

    def install(self) -> None:
        from repro.eval_pipeline import ScViTEvalPipeline
        from repro.evaluation import vectors
        from repro.serve.engine import ReplicaFactory

        clock = self.clock
        build_replica = ReplicaFactory.__call__
        evaluate = ScViTEvalPipeline.evaluate

        def replica(factory):
            started = clock.enter()
            try:
                pipeline = build_replica(factory)
            finally:
                clock.leave("setup.replica", started)
            self._instrument(pipeline)
            return pipeline

        def evaluate_instrumented(pipeline, *args, **kwargs):
            self._instrument(pipeline)
            return evaluate(pipeline, *args, **kwargs)

        calibration = clock.wrap("setup.calibration", vectors.collect_softmax_inputs)
        for owner, name, value in (
            (vectors, "collect_softmax_inputs", calibration),
            (ReplicaFactory, "__call__", replica),
            (ScViTEvalPipeline, "evaluate", evaluate_instrumented),
        ):
            self.patches.enter_context(mock.patch.object(owner, name, value))

    def undo(self) -> None:
        self.patches.close()


def _kernel_metrics(batches: int) -> Dict[str, float]:
    """Per-forward-batch kernel counts from the telemetry profiler."""
    from repro import telemetry

    totals: Dict[str, List[float]] = {}
    for row in telemetry.get_profiler().table():
        entry = totals.setdefault(row["kernel"], [0.0, 0.0, 0.0])
        entry[0] += row["calls"]
        entry[1] += row["words"]
        entry[2] += row["seconds"]
    totals["all"] = [sum(v[i] for v in totals.values()) for i in range(3)]
    metrics = {}
    for kernel, (calls, words, seconds) in totals.items():
        metrics[f"kernel.{kernel}.calls"] = calls / batches if batches else 0.0
        metrics[f"kernel.{kernel}.us_per_call"] = 1e6 * seconds / calls if calls else 0.0
        metrics[f"kernel.{kernel}.bytes"] = 8.0 * words / batches if batches else 0.0
    return metrics


def _layer_metrics(clock: probes.Clock) -> Dict[str, float]:
    """Layer self times of the traced batches, reconciled against the
    reference batches interleaved with them, which timed only whole batches.
    The traced layers add up to the traced batch time by construction; the
    reference is what exposes probe cost and time the layers dropped."""
    breakdown = probes.layer_breakdown(clock)
    if breakdown is None:
        return {}
    metrics = {f"{name}_ms": breakdown[name] for name in probes.MODEL_LAYERS if name.startswith("model.")}
    metrics["model.other_ms"] = breakdown["model.other"]
    metrics["faults.perturb_ms"] = breakdown["faults.perturb"]
    metrics["faults.sites_per_image"] = breakdown["faults.sites"]
    metrics["pipeline.other_ms"] = breakdown["pipeline.other"]
    metrics["pipeline.predict_ms_p50"] = 1e3 * percentile(clock.samples["pipeline.predict"], 50)
    claimed = sum(breakdown[name] for name in probes.MODEL_LAYERS)
    layer_sum = claimed + breakdown["model.other"] + breakdown["pipeline.other"]
    reference_ms = probes.predict_ms_mean(clock, "reference.")
    metrics["reconcile.model_gap_frac"] = abs(layer_sum - reference_ms) / reference_ms if reference_ms else 1.0
    return metrics


def _overhead_frac(clock: probes.Clock, bucket: str) -> float:
    """Mean traced batch time over mean reference batch time, minus 1."""
    traced = clock.samples[bucket]
    reference = clock.samples["reference." + bucket]
    if not traced or not reference:
        return 0.0
    return statistics.fmean(traced) / statistics.fmean(reference) - 1.0


def _profile_traced_turns(traced: bool) -> None:
    """Kernel profiler on for traced batches only (backends are resolved
    per kernel call), so its cost counts as tracing overhead."""
    from repro.telemetry import profiling

    if traced:
        profiling.install()
    else:
        profiling.uninstall()


def _setup_metrics(clock: probes.Clock, start_s: float) -> Dict[str, float]:
    return {
        "setup.calibration_s": clock.inclusive.get("setup.calibration", 0.0),
        "setup.replica_s": clock.inclusive.get("setup.replica", 0.0),
        "setup.start_s": start_s,
    }


# ---------------------------------------------------------------------------
# Serve workloads
# ---------------------------------------------------------------------------


class ServeLoad:
    """One serve workload's inputs and its request bookkeeping."""

    def __init__(self, definition: Dict[str, Any], universe, golden: defs.Golden, seed: int) -> None:
        self.definition = definition
        self.spec = defs.serve_spec(definition)
        self.images = universe.images
        self.order = defs.permutation(seed, len(self.images))
        self.golden = golden
        self.seed = seed
        self.ordinals = itertools.count()
        self.submitted_at: Dict[int, float] = {}

    @property
    def probe_image(self) -> int:
        # The last image of the seed's order: outside every pool a run draws.
        return int(self.order[-1])

    async def request(self, service, image: int, tally: Tally, due: Optional[float] = None) -> None:
        ordinal = next(self.ordinals)
        sent = time.perf_counter()
        self.submitted_at[ordinal] = sent
        tally.attempted += 1
        try:
            result = await service.submit(self.images[image], index=ordinal)
        except Exception as exc:  # every failed request is counted, never dropped
            tally.errors[type(exc).__name__] += 1
            return
        done = time.perf_counter()
        tally.completed += 1
        tally.finished = max(tally.finished, done)
        tally.latencies_ms.append(1e3 * (done - (sent if due is None else due)))
        if due is not None:
            tally.lateness_ms.append(1e3 * (sent - due))
        if result.prediction != tally.golden.values[image]:
            tally.mismatches += 1

    async def setup(self, tally: Tally):
        """Build, start and serve one prediction; returns (deployment, total s, start s)."""
        from repro.serve import build_deployment

        started = time.perf_counter()
        deployment = build_deployment(self.spec)
        before_start = time.perf_counter()
        await deployment.service.start()
        start_s = time.perf_counter() - before_start
        await self.request(deployment.service, self.probe_image, tally)
        return deployment, time.perf_counter() - started, start_s

    async def closed_loop(self, service, seconds: float, tally: Tally, requests: Optional[int] = None) -> None:
        """``clients`` callers, each sending its next request when the last returns."""
        clients = int(self.definition["clients"])
        cursor = itertools.count()
        tally.started = time.perf_counter()
        tally.finished = tally.started
        stop_at = tally.started + seconds

        async def client() -> None:
            while True:
                position = next(cursor)
                if (requests is not None and position >= requests) or (
                    requests is None and time.perf_counter() >= stop_at
                ):
                    return
                await self.request(service, int(self.order[position % len(self.order)]), tally)

        await asyncio.gather(*(client() for _ in range(clients)))

    def schedule(self, seconds: float):
        from repro.scenarios import WorkloadSpec, generate_workload

        arrival = self.definition["arrival"]
        requests = max(1, int(round(float(arrival["rate"]) * seconds)))
        return generate_workload(
            WorkloadSpec(
                arrival=arrival["arrival"],
                rate=float(arrival["rate"]),
                requests=requests,
                image_pool=requests,
                seed=self.seed,
            )
        )

    async def open_loop(self, service, workload, tally: Tally) -> None:
        """Send each request at its scheduled time, whatever the backlog."""
        base = time.perf_counter() + 0.005
        tally.started = tally.finished = base
        arrivals = base + workload.arrivals_s
        pool = workload.image_indices
        tasks = []
        sent = 0
        while sent < len(arrivals):
            now = time.perf_counter()
            if arrivals[sent] > now:
                await asyncio.sleep(arrivals[sent] - now)
                continue
            while sent < len(arrivals) and arrivals[sent] <= now:
                image = int(self.order[pool[sent] % len(self.order)])
                tasks.append(asyncio.ensure_future(self.request(service, image, tally, due=arrivals[sent])))
                sent += 1
        await asyncio.gather(*tasks)

    async def warm_up(self, service, tally: Tally) -> None:
        """Closed loops settle the batcher first; the set-up probe warms an open loop."""
        if self.definition["loop"] == "closed":
            warm = Tally(golden=self.golden)
            await self.closed_loop(service, 0.0, warm, requests=int(self.definition["warmup_requests"]))
            tally.absorb(warm)

    async def measure(self, service, seconds: float, tally: Tally) -> None:
        if self.definition["loop"] == "closed":
            await self.closed_loop(service, seconds, tally)
        else:
            await self.open_loop(service, self.schedule(seconds), tally)

    async def measure_windows(self, service, seconds: float, pace: Pace) -> List[Tally]:
        """Measure ``seconds`` as windows of about ``window_seconds``, one
        tally each, reading the host's pace before and after every window.
        The open loop's one schedule is cut into windows of equal request
        counts (a Poisson schedule may end before ``seconds``, so cutting by
        due time could leave the last window empty); each window's backlog
        drains before the reading."""
        count = max(1, int(seconds // float(self.definition["window_seconds"])))
        width = seconds / count
        schedule = None if self.definition["loop"] == "closed" else self.schedule(seconds)
        windows = []
        pace.read()
        for index in range(count):
            tally = Tally(golden=self.golden)
            if schedule is None:
                await self.closed_loop(service, width, tally)
            else:
                chosen = np.array_split(np.arange(len(schedule.arrivals_s)), count)[index]
                window = SimpleNamespace(
                    arrivals_s=schedule.arrivals_s[chosen] - schedule.arrivals_s[chosen[0]],
                    image_indices=schedule.image_indices[chosen],
                )
                await self.open_loop(service, window, tally)
            pace.read()
            windows.append(tally)
        return windows


class EngineProbe:
    """Instance wrap of ``engine.run``: batch time, queue wait, real frames."""

    def __init__(self, clock: probes.Clock, load: ServeLoad) -> None:
        self.clock = clock
        self.load = load
        self.reset()

    def reset(self) -> None:
        self.waits_ms: List[float] = []
        self.batches: List[tuple] = []  # (batch span id, seconds)
        self.frames: List[tuple] = []  # (images, indices) of the first batches

    def wrap(self, engine) -> Callable:
        from repro.telemetry import current_context

        run = engine.run

        def timed_run(images, indices):
            context = current_context()
            bucket = "engine.run" if self.clock.turn() else "reference.engine.run"
            started = self.clock.enter()
            try:
                return run(images, indices)
            finally:
                elapsed = self.clock.leave(bucket, started, keep_sample=True)
                submitted = self.load.submitted_at
                self.waits_ms.extend(1e3 * (started - submitted[int(i)]) for i in indices)
                self.batches.append(((context or {}).get("span_id"), elapsed))
                if len(self.frames) < CODEC_SAMPLE:
                    self.frames.append((np.array(images), np.array(indices)))

        return timed_run


def _ipc_ms(batches: List[tuple]):
    """Per batch: ``engine.run`` minus the worker's ``shard.predict`` span,
    and that span itself (both in ms)."""
    from repro import telemetry

    dispatch_parent: Dict[str, str] = {}
    predict_us: Dict[str, float] = {}
    for event in telemetry.get_tracer().events():
        args = event.get("args", {})
        if event.get("name") == "shard.dispatch" and args.get("outcome") == "ok":
            dispatch_parent[args.get("span_id")] = args.get("parent_id")
        elif event.get("name") == "shard.predict":
            predict_us[args.get("parent_id")] = float(event.get("dur", 0.0))
    by_batch = {
        parent: predict_us[dispatch] for dispatch, parent in dispatch_parent.items() if dispatch in predict_us
    }
    return [
        1e3 * seconds - by_batch[span] / 1e3 for span, seconds in batches if span in by_batch
    ], [value / 1e3 for value in by_batch.values()]


def _codec_metrics(frames: List[tuple]) -> Dict[str, float]:
    """Time the NPZ frame codec on the run's real request and reply frames."""
    from repro.serve.sharded import pack_frame, unpack_frame

    if not frames:
        return {}
    pack_s = unpack_s = 0.0
    sizes = []
    for images, indices in frames:
        predictions = np.zeros(len(indices), dtype=np.int64)
        started = time.perf_counter()
        request = pack_frame("predict", {"images": np.asarray(images, dtype=float), "indices": indices}, job=1)
        reply = pack_frame("result", {"predictions": predictions}, job=1)
        packed = time.perf_counter()
        unpack_frame(request)
        unpack_frame(reply)
        pack_s += packed - started
        unpack_s += time.perf_counter() - packed
        sizes.append(len(request))
    count = len(frames)
    return {
        "sharded.frame_bytes": float(np.mean(sizes)),
        "sharded.pack_us": 1e6 * pack_s / count,
        "sharded.unpack_us": 1e6 * unpack_s / count,
    }


def _fingerprint_us(load: ServeLoad, version: str) -> float:
    from repro.runner.cache import default_code_version
    from repro.serve import request_fingerprint

    code_version = default_code_version()
    images = [load.images[int(u)] for u in load.order[:FINGERPRINT_SAMPLE]]
    started = time.perf_counter()
    for image in images:
        request_fingerprint(image, version, code_version=code_version)
    return 1e6 * (time.perf_counter() - started) / len(images)


def paced_summary(windows: List[tuple], scale: float) -> Dict[str, float]:
    """End-to-end figures of the measured windows, each ``(images, seconds,
    latencies_ms)``: scaled to the nominal host by ``scale`` (see
    :mod:`pace`), and as measured under ``unscaled.``.  Throughput is the
    median over windows, so a stall confined to one window moves it by one
    rank; the latency percentiles are taken over every request (or eval
    call) of the run."""
    metrics = {}
    for prefix, factor in (("", scale), ("unscaled.", 1.0)):
        # A window in which nothing completed has no rate; its failures
        # still fail the run.
        rates = [images / (seconds * factor) for images, seconds, _ in windows if images]
        latencies = [ms * factor for _, _, window_ms in windows for ms in window_ms]
        metrics[prefix + "throughput_img_per_s"] = float(np.median(rates)) if rates else 0.0
        metrics[prefix + "latency_p50_ms"] = percentile(latencies, 50)
        metrics[prefix + "latency_p99_ms"] = percentile(latencies, 99)
    return metrics


def setup_summary(setups: List[float], scale: float) -> Dict[str, float]:
    """The median set-up, scaled by the set-up phase's pace, and as measured."""
    median = statistics.median(setups)
    return {"setup_s": median * scale, "unscaled.setup_s": median}


async def _serve_untraced(load: ServeLoad, seconds: float, report: Report) -> None:
    run_tally = report.tally
    setups = []
    setup_pace = Pace()
    setup_pace.read()
    deployment = None
    for _ in range(SETUP_REPEATS):
        if deployment is not None:
            await deployment.service.stop()
        deployment, setup_s, _ = await load.setup(run_tally)
        setup_pace.read()
        setups.append(setup_s)
    window_pace = Pace()
    try:
        await load.warm_up(deployment.service, run_tally)
        windows = await load.measure_windows(deployment.service, seconds, window_pace)
    finally:
        await deployment.service.stop()
    for window in windows:
        run_tally.absorb(window)
    rows = [(window.completed, window.finished - window.started, window.latencies_ms) for window in windows]
    report.end_to_end.update(setup_summary(setups, setup_pace.scale()))
    report.end_to_end.update(paced_summary(rows, window_pace.scale()))
    if load.definition["loop"] == "open":
        # The open loop's throughput is the share of the offered rate that
        # completes, not the host's speed: scaling would only add noise.
        report.end_to_end["throughput_img_per_s"] = report.end_to_end["unscaled.throughput_img_per_s"]
    report.info["samples"] = {
        "latency": sum(len(window.latencies_ms) for window in windows),
        "windows": len(windows),
        "setup": len(setups),
    }
    # A p50 that climbs window after window marks a growing backlog.
    report.info["window_p50_ms"] = [round(percentile(row[2], 50), 3) for row in rows]
    report.info["setup_s_all"] = setups
    report.info["pace_ms"] = {"setup": _ms(setup_pace.readings), "windows": _ms(window_pace.readings)}


def _ms(readings: List[float]) -> List[float]:
    return [round(1e3 * reading, 3) for reading in readings]


async def _serve_traced(load: ServeLoad, seconds: float, report: Report) -> None:
    """Closed loop: reference and traced batches alternate on one replica.
    Open loop: the model runs in the shard, where batches cannot take turns,
    and request spans are switched on per service; so the first half is the
    untraced reference and the service restarts traced for the second."""
    from repro import telemetry

    run_tally = report.tally
    clock = probes.Clock()
    sharded = load.spec.engine == "process"
    construction = ConstructionProbe(clock)
    construction.install()
    try:
        if not sharded:
            construction.instrument = functools.partial(probes.instrument_pipeline, clock)
        deployment, _, start_s = await load.setup(run_tally)
        report.per_layer.update(_setup_metrics(clock, start_s))
        service = deployment.service
        engine_probe = EngineProbe(clock, load)
        try:
            if sharded:
                seconds /= 2.0
                reference = Tally(golden=load.golden)
                await load.measure(service, seconds, reference)
                run_tally.absorb(reference)
                await service.stop()
                # Spans are needed only to read the shard's ``shard.predict``
                # boundary.
                telemetry.enable()
                deployment.engine.run = engine_probe.wrap(deployment.engine)
                cache_hits = Counter()
                get = deployment.cache.get

                def counted_get(key):
                    hit = get(key)
                    cache_hits["hit" if hit is not None else "miss"] += 1
                    return hit

                deployment.cache.get = clock.wrap("cache.get", counted_get)
                await service.start()
                # The restart spawns a fresh shard; the probe request pays for
                # it before anything is recorded.
                await load.request(service, load.probe_image, run_tally)
                # The reference phase sent the same schedule: start cold again.
                deployment.cache.clear()
            else:
                deployment.engine.run = engine_probe.wrap(deployment.engine)
                clock.alternate = True
                clock.on_turn = _profile_traced_turns
                await load.warm_up(service, run_tally)
            clock.reset()
            engine_probe.reset()
            telemetry.get_tracer().clear()
            telemetry.get_profiler().clear()
            before = service.stats_snapshot()
            traced = Tally(golden=load.golden)
            traced_started = time.perf_counter()
            await load.measure(service, seconds, traced)
            traced_wall = time.perf_counter() - traced_started
            run_tally.absorb(traced)
            after = service.stats_snapshot()
        finally:
            await service.stop()
    finally:
        construction.undo()

    metrics = report.per_layer
    batches = after["batching"]["batches"] - before["batching"]["batches"]
    images = after["batching"]["batched_images"] - before["batching"]["batched_images"]
    metrics["service.wait_ms_p50"] = percentile(engine_probe.waits_ms, 50)
    metrics["service.batch_size_mean"] = images / batches if batches else 0.0
    metrics["service.coalesced"] = float(after["cache"]["coalesced"] - before["cache"]["coalesced"])
    run_samples = clock.samples["engine.run"]
    metrics["engine.run_ms_p50"] = 1e3 * percentile(run_samples, 50)
    metrics["engine.busy_frac"] = (sum(run_samples) + sum(clock.samples["reference.engine.run"])) / traced_wall
    if sharded:
        gets = cache_hits["hit"] + cache_hits["miss"]
        metrics["cache.hit_ratio"] = cache_hits["hit"] / gets
        metrics["cache.get_us"] = 1e6 * clock.inclusive["cache.get"] / gets
        metrics["cache.fingerprint_us"] = _fingerprint_us(load, deployment.engine.version)
        ipc, predict = _ipc_ms(engine_probe.batches)
        metrics["sharded.ipc_ms_p50"] = percentile(ipc, 50)
        metrics["pipeline.predict_ms_p50"] = percentile(predict, 50)
        metrics["sharded.redispatches"] = float(after["engine"]["lifecycle"]["redispatches"])
        metrics.update(_codec_metrics(engine_probe.frames))
        metrics["loadgen.late_p99_ms"] = percentile(traced.lateness_ms, 99)
        metrics["trace.overhead_frac"] = (
            percentile(traced.latencies_ms, 50) / percentile(reference.latencies_ms, 50) - 1.0
        )
    else:
        metrics.update(_layer_metrics(clock))
        engine_p50 = metrics["engine.run_ms_p50"]
        predict_p50 = metrics.get("pipeline.predict_ms_p50", 0.0)
        metrics["reconcile.engine_gap_frac"] = abs(engine_p50 - predict_p50) / engine_p50 if engine_p50 else 0.0
        metrics.update(_kernel_metrics(len(run_samples)))
        metrics["trace.overhead_frac"] = _overhead_frac(clock, "engine.run")


def run_serve(definition, universe, golden, seed: int, seconds: float, trace: bool) -> Report:
    from repro import telemetry

    load = ServeLoad(definition, universe, golden, seed)
    report = Report(tally=Tally(golden=golden))
    runner = _serve_traced if trace else _serve_untraced
    try:
        asyncio.run(runner(load, seconds, report))
    finally:
        telemetry.reset()
    report.info["spec"] = load.spec.to_dict()
    return report


# ---------------------------------------------------------------------------
# Offline eval with fault injection
# ---------------------------------------------------------------------------


class EvalLoad:
    """The eval-faults split, its golden window and its grid config."""

    def __init__(self, definition: Dict[str, Any], universe, golden: defs.Golden, seed: int) -> None:
        from repro.eval_pipeline import eval_grid

        self.definition = definition
        self.spec = defs.serve_spec(definition)
        size = int(definition["images"])
        self.window = int(seed) % int(definition["windows"])
        self.positions = np.arange(self.window * size, (self.window + 1) * size)
        self.images = universe.images[self.positions]
        self.labels = universe.labels[self.positions]
        self.golden = golden
        spec = self.spec
        self.configs = {
            split: eval_grid(
                by_grid=(spec.by,),
                s1=spec.s1,
                s2=spec.s2,
                k=spec.k,
                gelu_bsl=spec.gelu_bsl,
                flip_probs=(spec.flip_prob,),
                splits=(split,),
                fault_seed=spec.fault_seed,
            )[0]
            for split in ("probe", "test")
        }

    def evaluate(self, task, split: str, tally: Tally) -> None:
        from repro.eval_pipeline import run_eval_grid

        count = 1 if split == "probe" else len(self.positions)
        tally.attempted += count
        started = time.perf_counter()
        try:
            [result] = run_eval_grid(task, [self.configs[split]], workers=int(self.definition["workers"]))
        except Exception as exc:  # a failed evaluation fails every image in it
            tally.errors[type(exc).__name__] += count
            return
        done = time.perf_counter()
        tally.latencies_ms.append(1e3 * (done - started))
        tally.finished = done
        predictions = np.asarray(result.predictions)
        tally.completed += int(predictions.size)
        if predictions.size != count:
            tally.errors["ShortResult"] += count - int(predictions.size)
            predictions = predictions[:count]
        tally.mismatches += self.golden.mismatches(self.positions[: predictions.size], predictions)

    def setup(self, tally: Tally):
        """Build the model and ``EvalTask`` and evaluate one image; returns (task, s)."""
        from repro.eval_pipeline import EvalTask
        from repro.serve.deploy import build_model

        started = time.perf_counter()
        model, train, _ = build_model(self.spec)
        task = EvalTask(
            model=model,
            splits={"test": (self.images, self.labels), "probe": (self.images[:1], self.labels[:1])},
            calibration_images=train.images[: self.spec.calibration_images],
            batch_size=int(self.definition["batch_size"]),
        )
        self.evaluate(task, "probe", tally)
        return task, time.perf_counter() - started

    def measure(self, task, seconds: float, tally: Tally, pace: Optional[Pace] = None) -> None:
        """Evaluate the split until ``seconds`` have passed; with ``pace``,
        read the host's pace before and after every call."""
        tally.started = time.perf_counter()
        if pace is not None:
            pace.read()
        while True:
            self.evaluate(task, "test", tally)
            if pace is not None:
                pace.read()
            if time.perf_counter() - tally.started >= seconds:
                return


def run_eval(definition, universe, golden, seed: int, seconds: float, trace: bool) -> Report:
    from repro import telemetry

    load = EvalLoad(definition, universe, golden, seed)
    report = Report(tally=Tally(golden=golden))
    run_tally = report.tally
    report.info["window"] = load.window
    report.info["spec"] = load.spec.to_dict()
    if not trace:
        setups = []
        setup_pace = Pace()
        setup_pace.read()
        for _ in range(SETUP_REPEATS):
            task, setup_s = load.setup(run_tally)
            setup_pace.read()
            setups.append(setup_s)
        measured = Tally(golden=golden)
        # Calls last seconds, so there are few gaps: read longer in each.
        call_pace = Pace(calls=8 * CALLS)
        load.measure(task, seconds, measured, call_pace)
        run_tally.absorb(measured)
        # One evaluation call is one window: 1024 images over its wall time.
        rows = [(len(load.positions), ms / 1e3, [ms]) for ms in measured.latencies_ms]
        report.end_to_end.update(setup_summary(setups, setup_pace.scale()))
        report.end_to_end.update(paced_summary(rows, call_pace.scale()))
        report.info["samples"] = {"latency": len(measured.latencies_ms), "setup": len(setups)}
        report.info["setup_s_all"] = setups
        report.info["pace_ms"] = {"setup": _ms(setup_pace.readings), "calls": _ms(call_pace.readings)}
        return report

    clock = probes.Clock()
    construction = ConstructionProbe(clock)
    construction.install()
    try:
        task, _ = load.setup(run_tally)
        report.per_layer.update(_setup_metrics(clock, 0.0))
        # The model is shared by every pipeline a call builds: wrap it once.
        probes.instrument_model(clock, task.model)
        construction.instrument = functools.partial(probes.instrument_pipeline, clock, with_model=False)
        clock.alternate = True
        clock.on_turn = _profile_traced_turns
        clock.reset()
        telemetry.get_profiler().clear()
        traced = Tally(golden=golden)
        load.measure(task, seconds, traced)
        run_tally.absorb(traced)
        kernels = _kernel_metrics(len(clock.samples["pipeline.predict"]))
    finally:
        construction.undo()
        telemetry.reset()
    metrics = report.per_layer
    metrics.update(_layer_metrics(clock))
    metrics.update(kernels)
    metrics["trace.overhead_frac"] = _overhead_frac(clock, "pipeline.predict")
    return report


RUNNERS = {"serve-closed": run_serve, "serve-open-sharded": run_serve, "eval-faults": run_eval}
