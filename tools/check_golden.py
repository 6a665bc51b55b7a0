#!/usr/bin/env python
"""Full-universe golden check: every committed perfbench golden prediction.

Run from the repo root (``make golden-check`` wraps it):

    python3 tools/check_golden.py

A perfbench run only compares the images its seed happens to send.  This
check evaluates every image the goldens cover: the whole fault-free
universe named by ``perfbench/workloads.json`` (16384 images) and all eight
1024-image ``eval-faults`` windows, on the same recipe ``make_golden.py``
used (``ScViTEvalPipeline.evaluate`` on ``build_replica_factory(spec)()``).
Because evaluation is batch invariant, a large batch must reproduce the
per-image goldens bit for bit, so the check runs at ``BATCH_SIZE`` rather
than one image at a time.

It only reads ``perfbench/workloads.json`` and ``perfbench/golden.json``,
and exits 1 on any mismatch (or on a golden that fails its own digest).
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import numpy as np  # noqa: E402

import definitions as defs  # noqa: E402  (perfbench's loader, found via the path above)

BATCH_SIZE = 256


def golden_predictions(pipeline, universe, table, golden_name: str):
    """Predictions for every image the golden covers, in golden order.

    Same rule as ``perfbench/make_golden.py``: the ``eval-faults`` golden
    evaluates each ``images``-sized window of the universe as its own split
    (split indices restart at 0, which seeds the faults); any other covers
    the whole universe as one split.
    """
    from repro.training.datasets import DatasetSplit

    if golden_name != "eval-faults":
        return pipeline.evaluate(universe, batch_size=BATCH_SIZE).predictions
    definition = table["workloads"]["eval-faults"]
    size = int(definition["images"])
    parts = []
    for window in range(int(definition["windows"])):
        rows = slice(window * size, (window + 1) * size)
        split = DatasetSplit(universe.images[rows], universe.labels[rows])
        parts.append(pipeline.evaluate(split, batch_size=BATCH_SIZE).predictions)
    return np.concatenate(parts)


def main() -> int:
    defs.import_program()
    from repro.serve import build_replica_factory

    table = defs.workload_table()
    universe = defs.universe(table)
    total_images = total_mismatches = 0
    seen = set()
    for name, definition in table["workloads"].items():
        golden_name = definition["golden"]
        if golden_name in seen:
            continue
        seen.add(golden_name)
        try:
            golden = defs.load_golden(golden_name)
        except defs.GoldenError as exc:
            print(f"golden-check: {golden_name}: golden refused: {exc}", file=sys.stderr)
            return 1
        started = time.perf_counter()
        pipeline = build_replica_factory(defs.serve_spec(definition))()
        predictions = golden_predictions(pipeline, universe, table, golden_name)
        if predictions.size != len(golden):
            print(
                f"golden-check: {golden_name}: {predictions.size} predictions for {len(golden)} golden images",
                file=sys.stderr,
            )
            return 1
        wrong = np.flatnonzero(golden.values != predictions)
        mismatches = int(wrong.size)
        print(
            f"{golden_name} (via {name}): {mismatches} of {len(golden)} mismatches"
            f" at batch {BATCH_SIZE} in {time.perf_counter() - started:.1f} s"
            + (f"; first at {wrong[:10].tolist()}" if mismatches else "")
        )
        total_images += len(golden)
        total_mismatches += mismatches
    print(f"golden-check: {total_mismatches} of {total_images} predictions mismatch across {len(seen)} goldens")
    return 1 if total_mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
