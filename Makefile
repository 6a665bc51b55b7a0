# Developer entry points.  The repo is pure python; `src` goes on PYTHONPATH.

PYTEST = PYTHONPATH=src python -m pytest
REPRO = PYTHONPATH=src python -m repro

.PHONY: test test-fast test-cov bench bench-check bench-serve serve-smoke scenario-smoke fabric-smoke lint smoke eval-smoke api-check api-snapshot

## Tier-1 verification: the full suite, fail-fast.
test:
	$(PYTEST) -x -q

## Fast dev loop: skip the slow integration/training tests.
test-fast:
	$(PYTEST) -x -q -m "not slow"

## Tier-1 suite under coverage (needs pytest-cov; the CI coverage gate).
## The floor lives in pyproject.toml ([tool.coverage.report] fail-under).
test-cov:
	$(PYTEST) -x -q --cov=repro --cov-report=term --cov-report=xml:coverage.xml

## Packed-engine perf regression harness (writes benchmarks/results/BENCH_sc_engine.json).
bench:
	PYTHONPATH=src python benchmarks/bench_perf_sc_engine.py

## Perf gate: re-run the harness and fail if packed-engine speedups fall
## below the floors recorded in the JSON baseline (the CI perf job).
bench-check:
	$(REPRO) bench --check-floor

## Serve load generator (writes benchmarks/results/BENCH_serve.json) and
## its floor gate: sustained throughput >= 50 img/s + p99 ceilings.
bench-serve:
	$(REPRO) bench --suite serve --check-floor

## Serve acceptance gate: 64 concurrent requests bit-identical to offline
## eval (fault-free and under fault injection) + warm pass 100% cache hits,
## run through both engine families (thread + 2-shard process).
serve-smoke:
	PYTHONPATH=src python benchmarks/bench_serve_latency.py --smoke --engine both

## Scenario gate: the CI smoke scenarios on both engine families (every
## assertion — bit-identity, SLOs, recovery — must pass).
scenario-smoke:
	$(REPRO) scenario examples/specs/scenario_poisson_slo.json examples/specs/scenario_flashcrowd_kill.json examples/specs/scenario_burst_cacheloss.json --engine thread --cache-dir .repro-cache
	$(REPRO) scenario examples/specs/scenario_poisson_slo.json examples/specs/scenario_flashcrowd_kill.json examples/specs/scenario_burst_cacheloss.json --engine process --cache-dir .repro-cache

## Fabric gate: place-and-route + execute the example fabric specs with
## every slot bit-identical to the golden blocks path, plus the verify
## section (partial-reconfig write counts, Table VI reconciliation).
fabric-smoke:
	$(REPRO) fabric examples/specs/fabric_design_4x4.json examples/specs/fabric_run_smoke.json --cache-dir .repro-cache
	$(REPRO) fabric examples/specs/fabric_run_smoke.json --cache-dir .repro-cache
	$(REPRO) scenario examples/specs/scenario_fabric_deadtile.json --cache-dir .repro-cache

## Lint (ruff config lives in pyproject.toml).  Falls back to a syntax
## check when ruff is not installed locally; CI always installs ruff.
lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests benchmarks examples; \
	else \
		echo "ruff not installed; running syntax check only"; \
		python -m compileall -q src tests benchmarks examples && echo "syntax ok"; \
	fi

## API-surface guard: every registry family builds + spec-round-trips, and
## the public repro.* export list matches tools/api_surface.txt (CI job).
api-check:
	PYTHONPATH=src python tools/check_api_surface.py

## Refresh the export snapshot after an intentional API change.
api-snapshot:
	PYTHONPATH=src python tools/check_api_surface.py --update

## Orchestrator smoke: a reduced parallel DSE sweep + self-checks (CI).
smoke:
	$(REPRO) verify
	$(REPRO) dse --max-designs 32 --workers 2 --rows 16 --cache-dir .repro-cache
	$(REPRO) dse --max-designs 32 --workers 2 --rows 16 --cache-dir .repro-cache

## Eval-pipeline smoke: the acceptance loop — cold run, then a warm run that
## must be served entirely from cache, with the per-image bit-identity check
## at every fault rate (fault-free and flip_prob 0.05).
eval-smoke:
	$(REPRO) eval --max-images 64 --workers 2 --cache-dir .repro-cache --flip-probs 0.0 0.05 --verify-batched
	$(REPRO) eval --max-images 64 --workers 2 --cache-dir .repro-cache --flip-probs 0.0 0.05 --verify-batched
