"""Run a benchmark workload against the checkout's ``src/repro`` and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload serve-closed --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` reports its per-layer metrics.  Each metric is printed by
name with its unit, then host metadata as one ``info`` JSON line, and the
last line of standard output is the result object::

    {"correct": true, "attempted": 9731, "failed": 0, "metrics": {...}}

Every served or evaluated prediction is compared with the committed golden
predictions (``golden.json``).  Any mismatch or failed request makes the run
exit with code 1.  A golden that fails its own checks, or a traced run that
leaves a probe silent (a per-layer metric its workload lists under
``nonzero_when_traced`` in ``workloads.json`` reads 0), exits with code 1
before printing a result; a checkout without the program source exits with
code 2.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Any, Dict, List, Optional

import definitions as defs
import workloads


class SilentProbe(RuntimeError):
    """A traced run left a per-layer metric at 0 that its workload must move."""


def run_workload(name: str, seed: int, seconds: float, trace: bool, golden: Optional[defs.Golden] = None):
    """Run one workload; returns ``(result object, info dict)``."""
    table = defs.workload_table()
    definition = table["workloads"][name]
    if golden is None:
        golden = defs.load_golden(definition["golden"])
    universe = defs.universe(table)
    started = time.perf_counter()
    with workloads.MemoryWatch(universe.images.nbytes + universe.labels.nbytes) as memory:
        report = workloads.RUNNERS[name](definition, universe, golden, seed, seconds, trace)
    wall_s = time.perf_counter() - started
    if not trace:
        report.end_to_end["peak_rss_mb"] = memory.peak_mb()
    report.info["memory"] = memory.breakdown()

    kind = "per_layer" if trace else "end_to_end"
    units = defs.metric_table()[kind]
    produced = report.per_layer if trace else report.end_to_end
    missing = sorted(set(units) - set(produced))
    if not trace and missing:
        raise RuntimeError(f"{name} did not measure {missing}")
    metrics = {
        metric: {"value": float(produced.get(metric, 0.0)), "unit": unit} for metric, unit in units.items()
    }
    if trace:
        silent = [metric for metric in definition["nonzero_when_traced"] if metrics[metric]["value"] == 0]
        if silent:
            raise SilentProbe(f"no probe recorded {silent}")
    tally = report.tally
    result = {
        "correct": tally.failed == 0,
        "attempted": int(tally.attempted),
        "failed": int(tally.failed),
        "metrics": metrics,
    }
    info = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "wall_s": wall_s,
        "error_frac": tally.failed / tally.attempted if tally.attempted else 1.0,
        "mismatches": tally.mismatches,
        "errors": dict(tally.errors),
        "host": defs.host_metadata(),
        "unlisted_metrics": {k: v for k, v in produced.items() if k not in units},
        **report.info,
    }
    if trace:
        gaps = {k: v for k, v in produced.items() if k.startswith("reconcile.")}
        info["reconcile_tolerance"] = workloads.RECONCILE_TOLERANCE
        info["reconciled"] = all(abs(v) <= workloads.RECONCILE_TOLERANCE for v in gaps.values())
    return result, info


def _print_run(result: Dict[str, Any], info: Dict[str, Any]) -> None:
    print(f"# {info['workload']}  seed={info['seed']}  trace={info['trace']}  ({info['wall_s']:.1f} s)")
    for metric, entry in result["metrics"].items():
        print(f"  {metric} = {entry['value']:.6g} {entry['unit']}")
    for metric, value in info["unlisted_metrics"].items():
        print(f"  {metric} = {value:.6g} (measured, not bounded)")
    print(
        f"  error_frac = {info['error_frac']:.6g} frac"
        f"  ({result['failed']} of {result['attempted']} failed, {info['mismatches']} golden mismatches)"
    )
    if "reconciled" in info:
        print(f"  reconciled within {info['reconcile_tolerance']:.0%}: {info['reconciled']}")
    print("info " + json.dumps(info, sort_keys=True, default=str))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None, help="measured seconds (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        defs.import_program()
        names = list(defs.workload_table()["workloads"])
        seconds = args.seconds if args.seconds is not None else float(defs.load_json(defs.BENCHMARK_FILE)["run_seconds"])
    except (defs.SourceMissing, OSError, ValueError, ImportError) as exc:
        print(f"perfbench: cannot run here: {exc}", file=sys.stderr)
        return 2
    if args.workload != "all" and args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; expected one of {names + ['all']}")

    ok = True
    for name in names if args.workload == "all" else [args.workload]:
        try:
            result, info = run_workload(name, args.seed, seconds, bool(args.trace))
        except defs.GoldenError as exc:
            print(f"perfbench: {name}: golden predictions refused: {exc}", file=sys.stderr)
            return 1
        except SilentProbe as exc:
            print(f"perfbench: {name}: {exc}", file=sys.stderr)
            return 1
        _print_run(result, info)
        print(json.dumps(result))
        ok = ok and result["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
