"""Recompute the committed golden predictions in ``golden.json``.

Usage, from the repository root::

    python3 perfbench/make_golden.py

Each golden is computed once on the offline per-image path:
``ScViTEvalPipeline.evaluate(batch_size=1)`` on a replica built by
``build_replica_factory`` from the workload's ``ServeSpec`` — the same
recipe the serving tier and ``EvalTask`` build from.  Runs compare every
prediction they receive against these files, so regenerate them only when
a change is meant to alter predictions, and say so where the change is
recorded.
"""

from __future__ import annotations

import json
import sys
import time

import definitions as defs


def _predictions_text(predictions) -> str:
    text = "".join(str(int(p)) for p in predictions)
    if len(text) != len(predictions):
        raise ValueError("golden predictions must be single-digit classes")
    return text


def main() -> int:
    defs.import_program()
    from repro.serve import build_replica_factory, pipeline_fingerprint
    from repro.training.datasets import DatasetSplit

    table = defs.workload_table()
    universe = defs.universe(table)
    recipes = {}
    for name, definition in table["workloads"].items():
        spec = defs.serve_spec(definition)
        fingerprint = pipeline_fingerprint(build_replica_factory(spec)())
        known = recipes.setdefault(definition["golden"], (spec, fingerprint))
        if known[1] != fingerprint:
            raise SystemExit(f"{name}: workloads sharing golden {definition['golden']!r} differ in recipe")

    goldens = {}
    for golden_name, (spec, _) in sorted(recipes.items()):
        started = time.perf_counter()
        pipeline = build_replica_factory(spec)()
        if golden_name == "eval-faults":
            definition = table["workloads"]["eval-faults"]
            size = definition["images"]
            parts = []
            for window in range(definition["windows"]):
                rows = slice(window * size, (window + 1) * size)
                split = DatasetSplit(universe.images[rows], universe.labels[rows])
                parts.append(_predictions_text(pipeline.evaluate(split, batch_size=1).predictions))
            text = "".join(parts)
        else:
            text = _predictions_text(pipeline.evaluate(universe, batch_size=1).predictions)
        goldens[golden_name] = {
            "images": len(text),
            "sha256": defs.digest(text),
            "predictions": text,
        }
        print(f"{golden_name}: {len(text)} predictions in {time.perf_counter() - started:.1f} s", file=sys.stderr)

    document = {
        "method": "ScViTEvalPipeline.evaluate(batch_size=1) on build_replica_factory(spec)()",
        "universe": table["universe"],
        "goldens": goldens,
    }
    defs.GOLDEN_FILE.write_text(json.dumps(document, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
