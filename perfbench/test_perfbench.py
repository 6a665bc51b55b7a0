"""Self-tests of the benchmark's own code.

Run from the repository root with ``python3 -m pytest perfbench -q``
(about a minute: every workload runs once untraced and once traced, each
for a second or two).
"""

from __future__ import annotations

import json
import multiprocessing
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

import definitions as defs

defs.import_program()

import pace  # noqa: E402
import probes  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = list(defs.workload_table()["workloads"])
SEED = 3
SECONDS = 1.5


@pytest.fixture(scope="module")
def reduced_runs():
    """One short untraced and one short traced run of every workload."""
    results = {}
    for name in WORKLOADS:
        for trace in (False, True):
            result, info = run.run_workload(name, SEED, SECONDS, trace)
            results[name, trace] = (result, info)
    return results


@pytest.mark.parametrize("name", WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_reduced_run_emits_every_metric_and_no_error(reduced_runs, name, trace):
    result, info = reduced_runs[name, trace]
    units = defs.metric_table()["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {m: e["unit"] for m, e in result["metrics"].items()} == units
    assert result["correct"] and result["failed"] == 0 and info["error_frac"] == 0.0
    assert result["attempted"] >= 1
    if not trace:
        assert all(e["value"] > 0 for e in result["metrics"].values())


def _layers(reduced_runs, name):
    return {m: e["value"] for m, e in reduced_runs[name, True][0]["metrics"].items()}


def test_traced_runs_leave_no_listed_probe_silent(reduced_runs):
    for name in WORKLOADS:
        layers = _layers(reduced_runs, name)
        nonzero = defs.workload_table()["workloads"][name]["nonzero_when_traced"]
        assert nonzero and all(layers[m] != 0 for m in nonzero), name


def test_traced_runs_reconcile_layers_with_pipeline_and_engine(reduced_runs):
    for name in ("serve-closed", "eval-faults"):
        assert reduced_runs[name, True][1]["reconciled"], name
        layers = _layers(reduced_runs, name)
        assert layers["pipeline.predict_ms_p50"] > 0 and layers["model.sc_softmax_ms"] > 0
    closed = _layers(reduced_runs, "serve-closed")
    assert closed["engine.run_ms_p50"] > 0
    assert closed["reconcile.engine_gap_frac"] <= workloads.RECONCILE_TOLERANCE


def test_kernels_and_faults_run_only_on_eval_faults(reduced_runs):
    for name in WORKLOADS:
        layers = _layers(reduced_runs, name)
        touched = [m for m in layers if m.startswith(("kernel.", "faults.")) and layers[m] != 0]
        if name == "eval-faults":
            assert layers["kernel.all.calls"] > 0 and layers["faults.perturb_ms"] > 0
            assert layers["kernel.bernoulli_plane.calls"] > 0 and layers["faults.sites_per_image"] > 0
        else:
            assert touched == [], name


def test_sharded_and_cache_layers_read_zero_on_serve_closed(reduced_runs):
    closed = _layers(reduced_runs, "serve-closed")
    assert all(v == 0 for m, v in closed.items() if m.startswith(("sharded.", "cache.")))
    sharded = _layers(reduced_runs, "serve-open-sharded")
    for metric in ("sharded.frame_bytes", "sharded.pack_us", "sharded.unpack_us", "sharded.ipc_ms_p50"):
        assert sharded[metric] > 0, metric
    assert 0 < sharded["cache.hit_ratio"] < 1 and sharded["cache.fingerprint_us"] > 0


def _perturbed(golden: defs.Golden, position: int) -> defs.Golden:
    text = list(golden.predictions)
    text[position] = str((int(text[position]) + 1) % 10)
    text = "".join(text)
    return defs.Golden(predictions=text, sha256=defs.digest(text))


@pytest.mark.parametrize("name", ["serve-closed", "eval-faults"])
def test_perturbed_golden_prediction_fails_the_run(name):
    definition = defs.workload_table()["workloads"][name]
    golden = defs.load_golden(definition["golden"])
    if name == "eval-faults":  # the first image of the seed's window
        position = (SEED % definition["windows"]) * definition["images"]
    else:
        position = int(defs.permutation(SEED, len(golden))[-1])  # the set-up probe image
    result, info = run.run_workload(name, SEED, 0.5, False, golden=_perturbed(golden, position))
    assert not result["correct"] and result["failed"] >= 1 and info["mismatches"] >= 1


def test_perturbed_golden_digest_is_refused(monkeypatch, capsys):
    golden = defs.load_golden("fault-free")
    with pytest.raises(defs.GoldenError):
        defs.Golden(predictions=golden.predictions, sha256="0" * 64)

    load_json = defs.load_json

    def corrupted(path):
        document = load_json(path)
        if path == defs.GOLDEN_FILE:
            document["goldens"]["fault-free"]["sha256"] = "0" * 64
        return document

    monkeypatch.setattr(defs, "load_json", corrupted)
    assert run.main(["--workload", "serve-closed", "--seed", "1", "--seconds", "0.5"]) == 1
    assert not any(line.startswith("{") for line in capsys.readouterr().out.splitlines())


def test_golden_made_over_another_universe_is_refused(monkeypatch):
    load_json = defs.load_json

    def other_universe(path):
        document = load_json(path)
        if path == defs.GOLDEN_FILE:
            document["universe"]["test_size"] += 1
        return document

    monkeypatch.setattr(defs, "load_json", other_universe)
    with pytest.raises(defs.GoldenError):
        defs.load_golden("fault-free")


def test_traced_run_with_a_silent_probe_fails(monkeypatch, capsys):
    # As if the model's layers were no longer reachable where the probes look.
    monkeypatch.setattr(probes, "instrument_model", lambda clock, model: None)
    assert run.main(["--workload", "serve-closed", "--seed", "1", "--seconds", "0.5", "--trace", "1"]) == 1
    captured = capsys.readouterr()
    assert "model.embed_ms" in captured.err
    assert not any(line.startswith("{") for line in captured.out.splitlines())


def _hold_private_memory(megabytes, ready, release):
    block = np.ones(megabytes << 17)  # float64: 8 bytes each
    ready.set()
    release.wait(30)
    block.sum()


def test_memory_watch_counts_worker_private_memory_and_excludes_inputs():
    inputs = np.ones(40 << 17)  # 40 MB, resident before the watch starts
    resident_mb = workloads._proc_kb("self", "VmRSS") / 1024.0
    context = multiprocessing.get_context("fork")
    ready, release = context.Event(), context.Event()
    with workloads.MemoryWatch(inputs.nbytes, interval=0.05) as memory:
        worker = context.Process(target=_hold_private_memory, args=(64, ready, release))
        worker.start()
        assert ready.wait(30)
        deadline = time.monotonic() + 10
        while memory.workers_kb < 60 * 1024 and time.monotonic() < deadline:
            time.sleep(0.05)
        release.set()
        worker.join(30)
    # The fork's shared pages (``inputs`` among them) are not counted again.
    assert 60 <= memory.breakdown()["workers_mb"] < 80
    assert memory.breakdown()["process_mb"] == pytest.approx(resident_mb - 40, abs=15)


def test_checkout_without_source_exits_nonzero_without_result(tmp_path):
    shutil.copy(defs.BENCHMARK_FILE, tmp_path / "BENCHMARK.json")
    shutil.copytree(defs.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve-closed", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode != 0
    assert not any(line.startswith("{") for line in completed.stdout.splitlines())


def test_goldens_cover_every_workload():
    table = defs.workload_table()
    size = table["universe"]["test_size"]
    for definition in table["workloads"].values():
        golden = defs.load_golden(definition["golden"])
        expected = definition["images"] * definition["windows"] if "windows" in definition else size
        assert len(golden) == expected


def test_clock_self_times_partition_the_outer_call():
    clock = probes.Clock()
    inner = clock.wrap("inner", lambda: sum(range(20000)))
    outer = clock.wrap("outer", lambda: [inner() for _ in range(3)], keep_sample=True)
    outer()
    assert clock.calls["inner"] == 3 and len(clock.samples["outer"]) == 1
    total = clock.exclusive["inner"] + clock.exclusive["outer"]
    assert total == pytest.approx(clock.inclusive["outer"], rel=1e-9)
    assert clock.exclusive["inner"] == pytest.approx(clock.inclusive["inner"], rel=1e-9)


def test_alternating_clock_times_reference_batches_whole_and_traced_ones_in_full():
    clock = probes.Clock()
    clock.alternate = True
    turns = []
    clock.on_turn = turns.append
    inner = clock.wrap("inner", lambda: sum(range(2000)))
    batch = clock.wrap("batch", lambda: [inner() for _ in range(3)], keep_sample=True, reference=True)
    for _ in range(4):
        batch()
    assert turns == [False, True, False, True]
    assert len(clock.samples["batch"]) == 2 and len(clock.samples["reference.batch"]) == 2
    assert clock.calls["inner"] == 6  # traced batches only
    assert clock.exclusive["reference.batch"] == pytest.approx(clock.inclusive["reference.batch"], rel=1e-9)


def test_paced_summary_scales_every_window_by_the_mean_pace():
    host = pace.Pace(calls=1)
    # Half the readings nominal, half twice as slow: 1.5x slow on average.
    host.readings = [pace.NOMINAL_S, 2 * pace.NOMINAL_S]
    assert host.scale() == pytest.approx(2 / 3)
    # The last window completed nothing: it has no rate and no latencies.
    windows = [(100, 1.0, [10.0, 10.0]), (100, 2.0, [20.0, 20.0, 20.0]), (0, 0.0, [])]
    metrics = workloads.paced_summary(windows, host.scale())
    assert metrics["unscaled.throughput_img_per_s"] == pytest.approx(75.0)
    assert metrics["throughput_img_per_s"] == pytest.approx(112.5)
    assert metrics["unscaled.latency_p50_ms"] == pytest.approx(20.0)
    assert metrics["latency_p50_ms"] == pytest.approx(20.0 * 2 / 3)
    setup = workloads.setup_summary([1.0, 1.5, 3.0], host.scale())
    assert setup == {"setup_s": pytest.approx(1.0), "unscaled.setup_s": 1.5}


def test_pace_reading_times_the_fixed_kernel():
    host = pace.Pace(calls=2)
    host.read()
    assert len(host.readings) == 2 and all(0 < reading < 1.0 for reading in host.readings)
    assert pace.reference_kernel() == pace.reference_kernel()


def test_benchmark_json_matches_the_contract():
    bench = json.loads(defs.BENCHMARK_FILE.read_text())
    assert set(bench) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in bench["workloads"]] == WORKLOADS
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in bench["end_to_end"])
    assert max(m["bound"] for m in bench["end_to_end"]) == next(
        m["bound"] for m in bench["end_to_end"] if m["name"] == "setup_s"
    )
