"""Tests of the sharded multi-process serving tier (:mod:`repro.serve.sharded`).

The load-bearing property extends PR 5's batching invariant across the
process boundary: for *any* arrival pattern — and any interleaving of
worker deaths — predictions served by a :class:`ShardedProcessEngine` are
bit-identical to offline per-image evaluation.  Around it: the NPZ frame
wire format, consistent-hash routing (ring + sharded cache), cross-shard
stats merging, the :class:`EngineProtocol` seam, queue-depth autoscaling
and the no-retry contract for deterministic worker errors.
"""

import asyncio
import multiprocessing as mp
import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.blocks.specs import SoftmaxCircuitConfig
from repro.eval_pipeline import ScViTEvalPipeline
from repro.evaluation.vectors import collect_softmax_inputs
from repro.nn.vit import CompactVisionTransformer, ViTConfig
from repro.serve import (
    EngineProtocol,
    HashRing,
    InferenceService,
    PipelineEngine,
    ReplicaFactory,
    ServiceStats,
    ShardedPredictionCache,
    ShardedProcessEngine,
)
from repro.serve.sharded import pack_frame, unpack_frame
from repro.training.datasets import SyntheticImageDataset

SOFTMAX = SoftmaxCircuitConfig(m=64, iterations=2, bx=4, alpha_x=1.0, by=8, alpha_y=0.03, s1=16, s2=4)
GELU_BSL = 4
FAULT_SEED = 11
NUM_IMAGES = 10


@pytest.fixture(scope="module")
def stack():
    """Tiny model + images + calibration logits (same fixture as test_serve)."""
    config = ViTConfig(
        image_size=8, patch_size=4, num_classes=4, embed_dim=16,
        num_layers=2, num_heads=2, norm="bn", seed=3,
    )
    model = CompactVisionTransformer(config)
    dataset = SyntheticImageDataset(num_classes=4, image_size=8, seed=5)
    train, test = dataset.splits(train_size=16, test_size=NUM_IMAGES)
    calibration = collect_softmax_inputs(model, train.images[:4], max_rows=512)
    return model, test, calibration


@pytest.fixture(scope="module")
def offline_predictions(stack):
    model, test, calibration = stack
    predictions = {}
    for flip_prob in (0.0, 0.05):
        pipeline = ScViTEvalPipeline(
            model, SOFTMAX, gelu_output_bsl=GELU_BSL, flip_prob=flip_prob,
            fault_seed=FAULT_SEED, calibration_logits=calibration,
        )
        predictions[flip_prob] = pipeline.evaluate(test, batch_size=1).predictions
    return predictions


def _factory(stack, flip_prob=0.0):
    model, _, calibration = stack
    return ReplicaFactory(
        model, SOFTMAX, gelu_output_bsl=GELU_BSL, flip_prob=flip_prob,
        fault_seed=FAULT_SEED, calibration_logits=calibration,
    )


def _sharded_engine(stack, flip_prob=0.0, shards=2, **kwargs):
    return ShardedProcessEngine(_factory(stack, flip_prob), shards=shards, **kwargs)


# ---------------------------------------------------------------------------
# Cheap picklable stand-ins for mechanics tests (no model build per worker)
# ---------------------------------------------------------------------------


class _StubPipeline:
    def predict_batch(self, images, indices):
        return np.asarray(indices, dtype=np.int64) % 7


class _StubFactory:
    """Picklable factory of a model-free pipeline; prediction = index % 7."""

    flip_prob = 0.0

    def image_shape(self):
        return (2, 2)

    def __call__(self):
        return _StubPipeline()


class _ExplodingPipeline:
    def predict_batch(self, images, indices):
        raise ValueError("deterministic boom")


class _ExplodingFactory(_StubFactory):
    def __call__(self):
        return _ExplodingPipeline()


def _stub_engine(**kwargs):
    kwargs.setdefault("version", "stub-sharded-v1")
    return ShardedProcessEngine(_StubFactory(), **kwargs)


# ---------------------------------------------------------------------------
# NPZ frames
# ---------------------------------------------------------------------------


class TestFrames:
    def test_round_trip_arrays_and_meta(self):
        images = np.arange(24, dtype=float).reshape(2, 3, 4)
        indices = np.array([5, 9], dtype=np.int64)
        blob = pack_frame("predict", {"images": images, "indices": indices}, job=7)
        assert isinstance(blob, bytes)
        op, arrays, meta = unpack_frame(blob)
        assert op == "predict"
        assert meta == {"job": 7}
        np.testing.assert_array_equal(arrays["images"], images)
        np.testing.assert_array_equal(arrays["indices"], indices)
        assert arrays["indices"].dtype == np.int64

    def test_metadata_only_frame(self):
        op, arrays, meta = unpack_frame(pack_frame("stop"))
        assert op == "stop"
        assert arrays == {}
        assert meta == {}

    def test_non_contiguous_input_survives(self):
        images = np.arange(16, dtype=float).reshape(4, 4).T  # F-contiguous view
        _, arrays, _ = unpack_frame(pack_frame("predict", {"images": images}))
        np.testing.assert_array_equal(arrays["images"], images)


# ---------------------------------------------------------------------------
# Consistent hashing
# ---------------------------------------------------------------------------


class TestHashRing:
    def test_deterministic_across_instances_and_insertion_order(self):
        keys = [f"key-{i}" for i in range(200)]
        a = HashRing(nodes=[0, 1, 2])
        b = HashRing(nodes=[2, 0, 1])
        assert [a.node_for(k) for k in keys] == [b.node_for(k) for k in keys]

    def test_adding_a_node_remaps_a_minority_of_keys(self):
        keys = [f"key-{i}" for i in range(1000)]
        ring = HashRing(nodes=[0, 1, 2, 3])
        before = {k: ring.node_for(k) for k in keys}
        ring.add_node(4)
        moved = sum(1 for k in keys if ring.node_for(k) != before[k])
        # Ideal remap fraction is 1/5; anything under half shows the ring
        # is consistent rather than mod-N (which would move ~4/5).
        assert 0 < moved < len(keys) // 2
        # Every moved key lands on the new node, never reshuffles old ones.
        assert all(ring.node_for(k) == 4 for k in keys if ring.node_for(k) != before[k])

    def test_remove_restores_previous_placement(self):
        keys = [f"key-{i}" for i in range(300)]
        ring = HashRing(nodes=[0, 1])
        before = {k: ring.node_for(k) for k in keys}
        ring.add_node(2)
        ring.remove_node(2)
        assert {k: ring.node_for(k) for k in keys} == before

    def test_empty_ring_raises(self):
        with pytest.raises(ValueError, match="no nodes"):
            HashRing().node_for("anything")


class TestShardedPredictionCache:
    def test_routing_is_stable_and_roundtrips(self):
        cache = ShardedPredictionCache(shards=3)
        keys = [f"request-{i}" for i in range(50)]
        for i, key in enumerate(keys):
            cache.put(key, i)
        assert len(cache) == len(keys)
        for i, key in enumerate(keys):
            assert key in cache
            assert cache.get(key) == i
            assert cache.shard_for(key) == cache.shard_for(key)
        assert sum(cache.partition_sizes().values()) == len(keys)

    def test_add_shard_keeps_majority_of_keys_routed(self):
        cache = ShardedPredictionCache(shards=2)
        keys = [f"request-{i}" for i in range(200)]
        for i, key in enumerate(keys):
            cache.put(key, i)
        cache.add_shard()
        hits = sum(1 for i, key in enumerate(keys) if cache.get(key) == i)
        assert hits > len(keys) // 2  # ~(n-1)/n stay on their old partition

    def test_shared_backing_repromotes_remapped_keys(self, tmp_path):
        from repro.runner.cache import ResultCache

        backing = ResultCache(tmp_path / "cache")
        cache = ShardedPredictionCache(shards=2, backing=backing)
        keys = [f"request-{i}" for i in range(100)]
        for i, key in enumerate(keys):
            cache.put(key, i)
        cache.add_shard()
        # Remapped keys miss in memory but re-promote from the shared disk
        # backing, so the cache never forgets a content-addressed answer.
        assert all(cache.get(key) == i for i, key in enumerate(keys))


# ---------------------------------------------------------------------------
# Cross-shard stats
# ---------------------------------------------------------------------------


class TestServiceStatsMerge:
    def test_counters_sum_and_percentiles_cover_the_union(self):
        a, b = ServiceStats(), ServiceStats()
        for stats, latencies in ((a, [1.0, 2.0, 3.0]), (b, [100.0, 200.0])):
            for latency in latencies:
                stats.record_submitted()
                stats.record_completed(latency)
        a.record_batch(3)
        b.record_batch(2)
        b.record_error()
        merged = ServiceStats.merge([a, b]).snapshot()
        assert merged["requests"]["submitted"] == 5
        assert merged["requests"]["completed"] == 5
        assert merged["requests"]["errors"] == 1
        assert merged["batching"]["batches"] == 2
        assert merged["batching"]["histogram"] == {"2": 1, "3": 1}
        # p99 over the union must see b's slow tail, not a's fast average.
        assert merged["latency"]["p99_ms"] > 50.0

    def test_merge_of_nothing_is_empty(self):
        snapshot = ServiceStats.merge([]).snapshot()
        assert snapshot["requests"]["submitted"] == 0


# ---------------------------------------------------------------------------
# The engine seam
# ---------------------------------------------------------------------------


class TestEngineProtocol:
    def test_both_engine_families_satisfy_the_protocol(self, stack):
        thread = PipelineEngine(_factory(stack), workers=1)
        process = _stub_engine(shards=1)
        assert isinstance(thread, EngineProtocol)
        assert isinstance(process, EngineProtocol)
        assert isinstance(thread, PipelineEngine)
        assert isinstance(process, ShardedProcessEngine)

    def test_equal_factories_produce_equal_versions(self, stack):
        first = _sharded_engine(stack, shards=1)
        second = _sharded_engine(stack, shards=1)
        # Same weights + circuit + fault settings => same fingerprint: the
        # cross-shard (and cross-restart) cache-validity contract.
        assert first.version == second.version


# ---------------------------------------------------------------------------
# Bit-identity across the process boundary
# ---------------------------------------------------------------------------


@pytest.mark.slow
class TestShardedBitIdentity:
    @pytest.mark.parametrize("flip_prob", [0.0, 0.05])
    @settings(max_examples=3, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_any_arrival_pattern_matches_offline(
        self, stack, offline_predictions, flip_prob, data
    ):
        """Random order/stagger across 2 shards never changes a prediction."""
        _, test, _ = stack
        order = data.draw(st.permutations(list(range(NUM_IMAGES))))
        stagger = data.draw(
            st.lists(st.integers(0, 3), min_size=NUM_IMAGES, max_size=NUM_IMAGES)
        )
        engine = _sharded_engine(stack, flip_prob=flip_prob, shards=2)
        service = InferenceService(
            engine, max_batch=4, max_wait_ms=2.0,
            cache=ShardedPredictionCache(shards=2),
        )

        async def session():
            async with service:
                async def submit(position, image_index):
                    await asyncio.sleep(0.0005 * stagger[position])
                    result = await service.submit(test.images[image_index], index=image_index)
                    return image_index, result.prediction

                pairs = await asyncio.gather(
                    *[submit(position, image_index) for position, image_index in enumerate(order)]
                )
                return dict(pairs)

        served = asyncio.run(session())
        expected = offline_predictions[flip_prob]
        for image_index in range(NUM_IMAGES):
            assert served[image_index] == expected[image_index]


@pytest.mark.slow
class TestWorkerDeathRecovery:
    @settings(max_examples=3, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_kill_mid_stream_completes_every_request_bit_identically(
        self, stack, offline_predictions, data
    ):
        """SIGKILL a shard under a random arrival pattern: no request is
        lost, every answer still matches offline eval, and the death is
        accounted for (buried + respawned + re-dispatched)."""
        _, test, _ = stack
        order = data.draw(st.permutations(list(range(NUM_IMAGES))))
        kill_after = data.draw(st.integers(0, 4))
        engine = _sharded_engine(stack, flip_prob=0.05, shards=2)
        service = InferenceService(engine, max_batch=4, max_wait_ms=2.0, cache=None)

        async def session():
            async with service:
                tasks = [
                    asyncio.ensure_future(service.submit(test.images[i], index=i))
                    for i in order
                ]
                await asyncio.sleep(0.0005 * kill_after)
                engine.kill_shard()
                results = await asyncio.gather(*tasks)
                return {
                    image_index: result.prediction
                    for image_index, result in zip(order, results)
                }, engine.stats_snapshot()

        served, snapshot = asyncio.run(session())
        expected = offline_predictions[0.05]
        for image_index in range(NUM_IMAGES):
            assert served[image_index] == expected[image_index]
        assert snapshot["lifecycle"]["deaths"] >= 1
        assert snapshot["lifecycle"]["live"] >= 2  # the slot was respawned

    def test_idle_death_is_reaped_on_next_dispatch(self):
        engine = _stub_engine(shards=2)
        engine.start()
        try:
            killed = engine.kill_shard()
            assert killed is not None
            # No request was in flight when the worker died; the next
            # dispatch must sweep the corpse, respawn, and still answer.
            predictions = engine.run(np.zeros((3, 2, 2)), np.array([1, 2, 3]))
            np.testing.assert_array_equal(predictions, np.array([1, 2, 3]) % 7)
            lifecycle = engine.stats_snapshot()["lifecycle"]
            assert lifecycle["deaths"] >= 1
            assert lifecycle["live"] == 2
        finally:
            engine.close()


# ---------------------------------------------------------------------------
# Deterministic worker errors are not retried
# ---------------------------------------------------------------------------


class TestWorkerErrors:
    def test_compute_error_propagates_without_redispatch(self):
        engine = ShardedProcessEngine(_ExplodingFactory(), shards=1, version="exploding-v1")
        engine.start()
        try:
            with pytest.raises(RuntimeError, match="deterministic boom"):
                engine.run(np.zeros((2, 2, 2)), np.array([0, 1]))
            lifecycle = engine.stats_snapshot()["lifecycle"]
            # The worker reported the error and kept serving: no death, no
            # re-dispatch loop (the same batch would raise on every shard).
            assert lifecycle["deaths"] == 0
            assert lifecycle["redispatches"] == 0
            assert engine.workers == 1
        finally:
            engine.close()


# ---------------------------------------------------------------------------
# Queue-depth autoscaling
# ---------------------------------------------------------------------------


class TestAutoscaling:
    def test_scale_up_on_depth_and_retire_on_idle(self):
        engine = _stub_engine(shards=1, max_shards=2, scale_up_queue_depth=4,
                              scale_cooldown_s=0.0)
        engine.start()
        try:
            assert engine.workers == 1
            engine.observe_load(queue_depth=8)  # sustained backlog -> spawn
            deadline = 50
            while engine.workers < 2 and deadline:
                engine.run(np.zeros((1, 2, 2)), np.array([0]))  # promotes ready shards
                deadline -= 1
            assert engine.workers == 2
            # Retiring needs the spare *ready* (it only counts as routable
            # after its handshake is promoted on a dispatch), so keep
            # dispatching until the idle retire lands.
            deadline = 50
            while engine.workers > 1 and deadline:
                engine.run(np.zeros((1, 2, 2)), np.array([0]))
                engine.observe_load(queue_depth=0)  # idle -> retire the spare
                deadline -= 1
            assert engine.workers == 1
            lifecycle = engine.stats_snapshot()["lifecycle"]
            assert lifecycle["retired"] == 1
            assert lifecycle["min_shards"] == 1
        finally:
            engine.close()

    def test_never_scales_without_headroom(self):
        engine = _stub_engine(shards=1)  # max_shards defaults to shards
        engine.start()
        try:
            engine.observe_load(queue_depth=10_000)
            assert engine.stats_snapshot()["lifecycle"]["spawned"] == 1
        finally:
            engine.close()

    def test_service_grows_slots_with_the_engine(self, stack):
        """The service re-syncs worker slots as the engine scales, so a
        spawned shard takes traffic without a restart."""
        engine = _stub_engine(shards=1, max_shards=2, scale_up_queue_depth=2,
                              scale_cooldown_s=0.0)
        service = InferenceService(engine, max_batch=1, max_wait_ms=0.5, cache=None)

        async def session():
            async with service:
                images = np.zeros((12, 2, 2))
                results = await asyncio.gather(
                    *[service.submit(images[i], index=i) for i in range(12)]
                )
                return [r.prediction for r in results], service.stats_snapshot()

        predictions, snapshot = asyncio.run(session())
        assert predictions == [i % 7 for i in range(12)]
        assert snapshot["engine"]["lifecycle"]["spawned"] >= 1


# ---------------------------------------------------------------------------
# Shards die with their server
# ---------------------------------------------------------------------------


def _running(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie awaiting its reaper."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    try:
        status = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return False
    return "State:\tZ" not in status


_SERVER_SCRIPT = textwrap.dedent(
    """
    import time
    from repro.serve import ServeSpec, ShardedProcessEngine, build_replica_factory

    spec = ServeSpec(train_size=8, layers=1, embed_dim=16, heads=2, calibration_images=4)
    engine = ShardedProcessEngine(build_replica_factory(spec), shards=2)
    engine.start()
    print(" ".join(str(shard.process.pid) for shard in engine._shards.values()), flush=True)
    time.sleep(120)
    """
)


@pytest.mark.skipif(
    not os.path.isdir("/proc") or "fork" not in mp.get_all_start_methods(),
    reason="needs fork-started shards and /proc",
)
class TestShardLifetime:
    def test_sigkilled_server_takes_its_shards_with_it(self, tmp_path):
        """A forked shard inherits the parent ends of its own pipe and of
        every shard forked before it.  Unless it closes them, its
        ``recv_bytes`` never sees EOF and it outlives a killed server."""
        env = dict(os.environ)
        src = Path(__file__).resolve().parent.parent / "src"
        env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
        stderr_path = tmp_path / "server.stderr"
        with open(stderr_path, "w") as stderr:
            server = subprocess.Popen(
                [sys.executable, "-c", _SERVER_SCRIPT],
                stdout=subprocess.PIPE, stderr=stderr, text=True, env=env,
            )
        try:
            line = server.stdout.readline()
        finally:
            server.kill()
            server.wait(timeout=10)
            server.stdout.close()
        pids = [int(pid) for pid in line.split()]
        assert len(pids) == 2, stderr_path.read_text()
        deadline = time.monotonic() + 5.0
        while any(_running(pid) for pid in pids) and time.monotonic() < deadline:
            time.sleep(0.05)
        leftover = [pid for pid in pids if _running(pid)]
        for pid in leftover:  # never leak a worker, even when failing
            os.kill(pid, signal.SIGKILL)
        assert not leftover, f"shards {leftover} outlived their SIGKILLed server"
