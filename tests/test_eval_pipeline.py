"""Tests for the batched end-to-end evaluation subsystem (repro.eval_pipeline).

The load-bearing property is *chunk invariance*: evaluating a split in
batches of any size — including 1, the serial per-image path — must
produce bit-identical predictions, with and without fault injection.  On top of that: the fault model's determinism
contract, the ``EvalTask`` cache round-trip/resume behaviour, and the CLI.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.softmax_circuit import SoftmaxCircuitConfig
from repro.eval_pipeline import (
    BitFlipFaultModel,
    EvalTask,
    ScViTEvalPipeline,
    eval_grid,
    run_eval_grid,
)
from repro.nn.autograd import Tensor, batch_invariant_matmul, no_grad
from repro.runner.cache import ResultCache


def make_softmax_config(by=8, s1=16, s2=4, k=2):
    return SoftmaxCircuitConfig(m=64, iterations=k, bx=4, alpha_x=1.0, by=by, alpha_y=0.03, s1=s1, s2=s2)


@pytest.fixture(scope="module")
def eval_setup():
    """One model + splits + shared calibration, reused across this module.

    The calibration logits are collected once up front: a calibration
    forward updates the model's BatchNorm running statistics (the seed
    evaluator's protocol), so sharing the collected logits keeps every test
    in this module evaluating the exact same model state.
    """
    from repro.evaluation.vectors import collect_softmax_inputs
    from repro.nn.vit import CompactVisionTransformer, ViTConfig
    from repro.training.datasets import SyntheticImageDataset

    config = ViTConfig(
        image_size=8, patch_size=4, in_channels=3, num_classes=4,
        embed_dim=16, num_layers=2, num_heads=2, norm="bn", seed=3,
    )
    model = CompactVisionTransformer(config)
    dataset = SyntheticImageDataset(num_classes=4, image_size=8, seed=5)
    train, test = dataset.splits(train_size=24, test_size=16)
    calibration_logits = collect_softmax_inputs(model, train.images[:4], max_rows=512)
    model.eval()
    return {"model": model, "train": train, "test": test, "calibration": calibration_logits}


class TestChunkInvariance:
    def test_batched_equals_per_image_clean(self, eval_setup):
        pipeline = ScViTEvalPipeline(
            eval_setup["model"], make_softmax_config(),
            calibration_logits=eval_setup["calibration"],
        )
        batched = pipeline.evaluate(eval_setup["test"], max_images=10, batch_size=10)
        per_image = pipeline.evaluate(eval_setup["test"], max_images=10, batch_size=1)
        assert np.array_equal(batched.predictions, per_image.predictions)
        assert batched.accuracy == per_image.accuracy
        assert batched.correct == per_image.correct

    @given(
        batch_size=st.integers(1, 7),
        flip_prob=st.sampled_from([0.0, 0.08]),
        gelu_bsl=st.sampled_from([None, 4]),
    )
    @settings(max_examples=8, deadline=None)
    def test_any_chunking_is_bit_identical(self, eval_setup, batch_size, flip_prob, gelu_bsl):
        pipeline = ScViTEvalPipeline(
            eval_setup["model"], make_softmax_config(),
            gelu_output_bsl=gelu_bsl, flip_prob=flip_prob, fault_seed=13,
            calibration_logits=eval_setup["calibration"],
        )
        reference = pipeline.evaluate(eval_setup["test"], max_images=8, batch_size=1)
        chunked = pipeline.evaluate(eval_setup["test"], max_images=8, batch_size=batch_size)
        assert np.array_equal(reference.predictions, chunked.predictions)
        assert reference.accuracy == chunked.accuracy

    def test_streaming_batches_cover_the_split_in_order(self, eval_setup):
        pipeline = ScViTEvalPipeline(
            eval_setup["model"], make_softmax_config(),
            calibration_logits=eval_setup["calibration"],
        )
        batches = list(pipeline.iter_batches(eval_setup["test"], max_images=10, batch_size=4))
        assert [len(b) for b in batches] == [4, 4, 2]
        indices = np.concatenate([b.indices for b in batches])
        assert np.array_equal(indices, np.arange(10))

    def test_model_state_restored_after_evaluation(self, eval_setup):
        model = eval_setup["model"]
        images = eval_setup["test"].images[:2]
        with no_grad(), batch_invariant_matmul():
            before = model(Tensor(images)).data
        pipeline = ScViTEvalPipeline(
            model, make_softmax_config(), gelu_output_bsl=4,
            calibration_logits=eval_setup["calibration"],
        )
        pipeline.evaluate(eval_setup["test"], max_images=6)
        with no_grad(), batch_invariant_matmul():
            after = model(Tensor(images)).data
        assert np.array_equal(before, after)


class IdentityCircuit:
    """Stands in for the softmax circuit so the output rescale sees chosen rows."""

    def forward(self, x, stream_hook=None):
        return np.array(x, dtype=float)


class TestBatchedSoftmaxRescale:
    @pytest.fixture
    def pipeline(self, eval_setup):
        pipeline = ScViTEvalPipeline(
            eval_setup["model"], make_softmax_config(),
            calibration_logits=eval_setup["calibration"],
        )
        pipeline.softmax_circuit = IdentityCircuit()
        return pipeline

    def test_all_zero_rows_fall_back_to_uniform(self, pipeline):
        circuit_out = np.array([[
            [0.0, 0.0, 0.0, 0.0],
            [-0.5, -1.0, 0.0, -0.25],  # clamps to an all-zero row
            [0.25, -0.5, 0.75, 0.0],
        ]])
        out = pipeline._batched_softmax(Tensor(circuit_out)).data
        assert np.array_equal(out[0, 0], np.full(4, 0.25))
        assert np.array_equal(out[0, 1], np.full(4, 0.25))
        assert np.array_equal(out[0, 2], [0.25, 0.0, 0.75, 0.0])

    def test_matches_clamp_where_reference_bit_for_bit(self, pipeline):
        circuit_out = np.random.default_rng(0).integers(-3, 6, size=(4, 2, 5, 5)) * 0.0625
        circuit_out[0, 1, 2] = 0.0
        circuit_out[3, 0, 4] = -0.0625
        clamped = np.clip(circuit_out, 0.0, None)
        row_sum = clamped.sum(axis=-1, keepdims=True)
        expected = np.where(
            row_sum > 0, clamped / np.maximum(row_sum, 1e-9), np.full_like(clamped, 0.2)
        )
        out = pipeline._batched_softmax(Tensor(circuit_out)).data
        assert out.tobytes() == expected.tobytes()


class TestBatchInvariantMatmul:
    def test_forward_is_chunk_invariant_under_the_context(self, eval_setup):
        model = eval_setup["model"]
        images = eval_setup["test"].images[:9]
        with no_grad(), batch_invariant_matmul():
            full = model(Tensor(images)).data
            rows = np.concatenate([model(Tensor(images[i : i + 1])).data for i in range(9)])
            chunks = np.concatenate(
                [model(Tensor(images[i : i + 2])).data for i in range(0, 9, 2)]
            )
        assert np.array_equal(full, rows)
        assert np.array_equal(full, chunks)

    def test_faulted_forward_is_chunk_invariant(self, eval_setup):
        """Under fault injection (per-image seeded masks at every SC site)
        the patched forward's logits are bit-identical for any chunking."""
        pipeline = ScViTEvalPipeline(
            eval_setup["model"], make_softmax_config(), gelu_output_bsl=4,
            flip_prob=0.08, fault_seed=13, calibration_logits=eval_setup["calibration"],
        )
        images = eval_setup["test"].images[:9]

        def logits(start, stop):
            with pipeline._patched_model() as model, no_grad(), batch_invariant_matmul():
                pipeline.fault_model.begin_batch(np.arange(start, stop))
                return model(Tensor(images[start:stop])).data

        full = logits(0, 9)
        for size in (1, 2, 4):
            chunked = np.concatenate([logits(i, min(i + size, 9)) for i in range(0, 9, size)])
            assert chunked.tobytes() == full.tobytes()

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_matmul_data_is_chunk_invariant_for_every_model_layout(self, data):
        """Every operand layout the ViT forward feeds ``matmul_data``, cut
        into chunks at any offset, reproduces the full batch bit for bit and
        stays within rounding of an einsum oracle."""
        from repro.nn.autograd import matmul_data

        layout = data.draw(st.sampled_from(["linear", "scores", "context", "head", "head_view"]))
        total = data.draw(st.integers(1, 40), label="rows in the backing array")
        offset = data.draw(st.integers(0, total - 1), label="batch offset")
        batch = data.draw(st.integers(1, total - offset), label="batch size")
        tokens = data.draw(st.integers(1, 18), label="tokens")
        heads = data.draw(st.integers(1, 4), label="heads")
        head_dim = data.draw(st.integers(1, 12), label="head_dim")
        dim = heads * head_dim
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16), label="seed"))
        weight = rng.standard_normal((data.draw(st.integers(1, 40), label="out"), dim))
        if layout == "linear":  # x @ weight.T on (B, tokens, dim)
            a, b = rng.standard_normal((total, tokens, dim)), weight.swapaxes(-1, -2)
        elif layout in ("scores", "context"):  # q/k/v views of the qkv transpose
            qkv = rng.standard_normal((total, tokens, 3, heads, head_dim)).transpose(2, 0, 3, 1, 4)
            query, key, value = qkv[0], qkv[1], qkv[2]
            if layout == "scores":
                a, b = query, key.swapaxes(-1, -2)
            else:
                a, b = rng.random((total, heads, tokens, tokens)), value
        elif layout == "head":  # (B, embed) @ weight.T
            a, b = rng.standard_normal((total, dim)), weight.swapaxes(-1, -2)
        else:  # the class token sliced out of (B, tokens, embed)
            a, b = rng.standard_normal((total, tokens, dim))[:, 0, :], weight.swapaxes(-1, -2)

        def operands(start, stop):  # a stacked b is cut with the batch; a 2-D one is shared
            return a[start:stop], (b[start:stop] if b.ndim > 2 else b)

        stop = offset + batch
        chunk = data.draw(st.integers(1, batch), label="chunk size")
        with batch_invariant_matmul():
            full = matmul_data(*operands(offset, stop))
            chunked = np.concatenate(
                [matmul_data(*operands(i, min(i + chunk, stop))) for i in range(offset, stop, chunk)]
            )
        assert chunked.tobytes() == full.tobytes()
        oracle = np.einsum("...ij,...jk->...ik", *operands(offset, stop))
        assert full.shape == oracle.shape
        assert np.max(np.abs(full - oracle)) <= 1e-12 * np.max(np.abs(full))

    def test_mode_is_scoped_to_the_context(self):
        from repro.nn import autograd

        assert autograd._BATCH_INVARIANT_MATMUL is False
        with batch_invariant_matmul():
            assert autograd._BATCH_INVARIANT_MATMUL is True
        assert autograd._BATCH_INVARIANT_MATMUL is False


class TestBitFlipFaultModel:
    def test_zero_probability_is_identity_but_advances_sites(self):
        model = BitFlipFaultModel(0.0, seed=1)
        model.begin_batch([0, 1])
        counts = np.array([[3, 5], [1, 7]])
        out = model.perturb_counts(counts, 8)
        assert out is counts
        assert model._site == 1

    def test_same_seed_same_faults(self):
        counts = np.arange(12).reshape(2, 6) % 9
        outs = []
        for _ in range(2):
            model = BitFlipFaultModel(0.3, seed=5)
            model.begin_batch([10, 11])
            outs.append(model.perturb_counts(counts, 8))
        assert np.array_equal(outs[0], outs[1])

    def test_faults_depend_on_image_index_not_batch_position(self):
        counts = np.full((3, 4), 6)
        together = BitFlipFaultModel(0.3, seed=5)
        together.begin_batch([7, 8, 9])
        joint = together.perturb_counts(counts, 8)
        split = []
        for index in (7, 8, 9):
            model = BitFlipFaultModel(0.3, seed=5)
            model.begin_batch([index])
            split.append(model.perturb_counts(counts[:1], 8))
        assert np.array_equal(joint, np.concatenate(split))

    def test_sites_draw_independent_masks(self):
        counts = np.full((1, 64), 8)
        model = BitFlipFaultModel(0.5, seed=3)
        model.begin_batch([0])
        first = model.perturb_counts(counts, 16)
        second = model.perturb_counts(counts, 16)
        assert not np.array_equal(first, second)

    def test_flip_rate_moves_the_popcount(self):
        model = BitFlipFaultModel(1.0, seed=0)
        model.begin_batch([0])
        counts = np.array([[0, 16, 5]])
        out = model.perturb_counts(counts, 16)
        # p=1 flips every bit: count c becomes 16 - c.
        assert np.array_equal(out, 16 - counts)

    def test_masks_are_pinned_on_production_site_shapes(self):
        """The fault masks' bits (and so their RNG consumption) never move.

        Covers the SC-ViT's four site shapes: softmax ``x``/``y`` streams
        ``(B, heads, tokens, tokens)`` at L=4 and L=8, GELU input/output
        streams ``(B, tokens, hidden)`` at L=128 and L=4.  The digest was
        recorded on the per-image mask loop this kernel path replaced.
        """
        import hashlib

        sites = (((4, 17, 17), 4), ((4, 17, 17), 8), ((17, 64), 128), ((17, 64), 4))
        indices = [0, 1, 513, 1023]
        model = BitFlipFaultModel(0.05, seed=0)
        model.begin_batch(indices)
        digest = hashlib.sha256()
        gen = np.random.default_rng(2024)
        for shape, length in sites:
            counts = gen.integers(0, length + 1, size=(len(indices),) + shape)
            out = model.perturb_counts(counts, length)
            digest.update(np.ascontiguousarray(out, dtype=np.int64).tobytes())
        assert digest.hexdigest() == (
            "993927881927f7e5fa6edc6da98506b30afbdd7fc0d64cc90f238ba43dab62b0"
        )

    def test_requires_begin_batch(self):
        model = BitFlipFaultModel(0.5, seed=0)
        with pytest.raises(RuntimeError):
            model.perturb_counts(np.array([[1]]), 4)

    def test_rejects_invalid_probability(self):
        with pytest.raises(ValueError):
            BitFlipFaultModel(1.5)


class TestEvalTask:
    def make_task(self, eval_setup, **overrides):
        train, test = eval_setup["train"], eval_setup["test"]
        kwargs = dict(
            model=eval_setup["model"],
            splits={
                "test": (test.images, test.labels),
                "train": (train.images, train.labels),
            },
            calibration_images=train.images[:4],
            max_images=8,
            batch_size=4,
        )
        kwargs.update(overrides)
        task = EvalTask(**kwargs)
        # Pin the shared module calibration so task evaluations see the same
        # model state as the direct-pipeline tests.
        task._calibration_logits = eval_setup["calibration"]
        return task

    def test_grid_runs_and_round_trips(self, eval_setup):
        task = self.make_task(eval_setup)
        configs = eval_grid(by_grid=(8,), flip_probs=(0.0, 0.1), splits=("test", "train"))
        results = run_eval_grid(task, configs, workers=1)
        assert len(results) == 4
        for config, result in zip(configs, results):
            assert result.split == config["split"]
            assert result.flip_prob == config["flip_prob"]
            assert result.num_images == 8
            assert len(result.predictions) == 8
            # encode/decode must be lossless through JSON (the cache path)
            import json

            payload = json.loads(json.dumps(task.encode(result)))
            arrays = task.result_arrays(result)
            restored = task.decode(payload, arrays)
            assert restored.accuracy == result.accuracy
            assert restored.softmax_config == result.softmax_config
            assert np.array_equal(restored.predictions, result.predictions)

    def test_task_results_match_direct_pipeline(self, eval_setup):
        task = self.make_task(eval_setup)
        config = eval_grid(by_grid=(8,), splits=("test",))[0]
        [result] = run_eval_grid(task, [config], workers=1)
        pipeline = ScViTEvalPipeline(
            eval_setup["model"],
            task.softmax_config(config),
            calibration_logits=eval_setup["calibration"],
        )
        direct = pipeline.evaluate(eval_setup["test"], max_images=8, batch_size=1)
        assert np.array_equal(result.predictions, direct.predictions)
        assert result.accuracy == direct.accuracy

    def test_warm_cache_serves_everything(self, eval_setup, tmp_path):
        task = self.make_task(eval_setup)
        configs = eval_grid(by_grid=(4, 8), splits=("test",))
        cache = ResultCache(tmp_path)
        cold = run_eval_grid(task, configs, workers=1, cache=cache)
        cold_stats = run_eval_grid.last_run_stats
        warm = run_eval_grid(task, configs, workers=1, cache=cache)
        warm_stats = run_eval_grid.last_run_stats
        assert cold_stats.evaluated == 2 and cold_stats.cache_hits == 0
        assert warm_stats.evaluated == 0 and warm_stats.cache_hits == 2
        for a, b in zip(cold, warm):
            assert a.accuracy == b.accuracy
            assert np.array_equal(a.predictions, b.predictions)

    def test_interrupted_grid_resumes_only_missing_configs(self, eval_setup, tmp_path):
        task = self.make_task(eval_setup)
        configs = eval_grid(by_grid=(4, 8, 16), splits=("test",))
        cache = ResultCache(tmp_path)
        run_eval_grid(task, configs, workers=1, cache=cache)
        # Simulate a crash that lost one stored result.
        version = task.version()
        lost = cache.key(task.name, task.config_key(configs[1]), version)
        cache._json_path(lost).unlink()
        resumed = run_eval_grid(task, configs, workers=1, cache=cache)
        stats = run_eval_grid.last_run_stats
        assert stats.evaluated == 1 and stats.cache_hits == 2
        assert [r.softmax_config.by for r in resumed] == [4, 8, 16]

    def test_cache_key_separates_splits_and_fault_rates(self, eval_setup, tmp_path):
        task = self.make_task(eval_setup)
        cache = ResultCache(tmp_path)
        version = task.version()
        keys = {
            cache.key(task.name, task.config_key(config), version)
            for config in eval_grid(by_grid=(8,), flip_probs=(0.0, 0.1), splits=("test", "train"))
        }
        assert len(keys) == 4

    def test_version_changes_with_weights(self, eval_setup):
        task = self.make_task(eval_setup)
        retrained = self.make_task(eval_setup, _weights_digest="deadbeef")
        assert task.version() != retrained.version()

    def test_unknown_split_raises(self, eval_setup):
        task = self.make_task(eval_setup)
        config = eval_grid(by_grid=(8,), splits=("validation",))[0]
        with pytest.raises(KeyError):
            task.evaluate(config, seed=0)


class TestEvalCli:
    def run_cli(self, argv):
        from repro.cli import main

        return main(argv)

    def test_eval_smoke_warm_cache_and_bit_identity(self, tmp_path, capsys):
        base = [
            "eval",
            "--max-images", "12",
            "--train-size", "32",
            "--test-size", "16",
            "--layers", "1",
            "--embed-dim", "16",
            "--heads", "2",
            "--by-grid", "4", "8",
            "--cache-dir", str(tmp_path / "cache"),
            "--out", str(tmp_path / "eval.json"),
            "--verify-batched",
            "--quiet",
        ]
        assert self.run_cli(base) == 0
        out = capsys.readouterr().out
        assert "PASS batched == per-image" in out

        import json

        first = json.loads((tmp_path / "eval.json").read_text())
        assert first["stats"]["evaluated"] == 2

        assert self.run_cli(base) == 0
        second = json.loads((tmp_path / "eval.json").read_text())
        assert second["stats"]["evaluated"] == 0
        assert second["stats"]["cache_hits"] == 2
        assert second["rows"] == first["rows"]
