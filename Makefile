PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test sloc lint lint-smoke bench bench-kernel bench-quick bench-seed bench-cosim bench-cosim-seed bench-cosim-quick bench-cosim-check conformance conformance-quick conformance-differential conformance-coverage dse dse-quick sweep sweep-quick server server-smoke obs-smoke quickstart

test:
	$(PYTHON) -m pytest -x -q

# Python line count of src/ (first line) and of each package under it: the
# code size tracked next to the bench numbers.
sloc:
	@for dir in src $$(dirname src/repro/*/__init__.py); do \
		printf '%6d %s\n' "$$(find $$dir -name '*.py' -print0 | xargs -0 cat | wc -l)" "$$dir"; \
	done

# Static analysis of the shipped applications; any finding (warning or
# error) fails.  See docs/lint.md for the rule catalog.
lint:
	$(PYTHON) -m repro.lint --fail-on warning

# CI gate: analyzer selfcheck (mutants must trip their rules, dynamic race
# cross-check, corpus clean) plus a strict lint of apps + 10 generated
# systems.
lint-smoke:
	$(PYTHON) -m repro.lint --selfcheck
	$(PYTHON) -m repro.lint --app motor --app two-axis \
		--seed 0 --seed 1 --seed 2 --seed 3 --seed 4 \
		--seed 5 --seed 6 --seed 7 --seed 8 --seed 9 --fail-on warning

# Both perf suites: kernel scheduling (BENCH_kernel.json) and end-to-end
# co-simulation (BENCH_cosim.json), each merging a "current" run.
bench: bench-kernel bench-cosim

# Full kernel perf sweep; merges a "current" run into BENCH_kernel.json.
bench-kernel:
	$(PYTHON) -m benchmarks.perf --label current --repeats 2

# ~1 s smoke run of the same harness (also exercised by the test suite).
bench-quick:
	$(PYTHON) -m benchmarks.perf --quick --label quick --no-write

# Record a baseline before touching the kernel (same repeats as
# bench-kernel so seed-vs-current ratios are comparably noise-filtered).
bench-seed:
	$(PYTHON) -m benchmarks.perf --label seed --repeats 2

# Full cosim perf sweep on the fused tier (controllers and hardware FSMs
# inside the whole-system program); merges "current" into BENCH_cosim.json
# (acceptance: >= 5x vs the interpreted seed on the largest
# transition-rate AND mixed-system points, plus >= 1.5x batched-vs-
# sequential amortization on the recorded batch section).
bench-cosim:
	$(PYTHON) -m benchmarks.perf.cosim --label current --repeats 2

# Record the interpreted-tier baseline the cosim speedups compare against.
bench-cosim-seed:
	$(PYTHON) -m benchmarks.perf.cosim --label seed --tier interpreted --repeats 2

# Smoke run of the cosim harness (no file writes).
bench-cosim-quick:
	$(PYTHON) -m benchmarks.perf.cosim --quick --label quick --no-write

# CI regression gate: quick cosim tier must stay within 2x of the recorded
# quick-baseline label in BENCH_cosim.json (refused if the baseline was
# recorded on a different tier), every fast path must actually
# be taken, the batched amortization must hold its threshold, and the
# file's recorded acceptance verdict must be passing.
bench-cosim-check:
	$(PYTHON) -m benchmarks.perf.cosim --quick --check

# Differential conformance sweep: 270+ generated scenarios run on both the
# production and reference kernels plus the cosim/cosyn oracles.
conformance:
	$(PYTHON) -m repro.testkit

# < 30 s smoke tier of the same kit (also exercised by the test suite).
conformance-quick:
	$(PYTHON) -m repro.testkit --quick

# Tier oracle: every quick scenario byte-identical across the fused and
# interpreted tiers on both kernels.
conformance-differential:
	$(PYTHON) -m repro.testkit --quick --tier differential

# Coverage-directed campaign: 24 novelty-weighted scenarios (plain, fault
# injection, platform-timed real-time) sharing one coverage map; fails
# below the recorded state-visit coverage floor.
conformance-coverage:
	$(PYTHON) -m repro.testkit --coverage --budget 24 --coverage-floor 0.9

# Partition-explorer sweep: heuristic search over a 20+-module testkit
# workload on 4 workers, cosim-validated front, full JSON report.
dse:
	$(PYTHON) -m repro.dse --seed 0 --networks 9 --mode heuristic --workers 4 --validate --out dse_report.json

# < 30 s exhaustive smoke sweep (also exercised by the test suite and CI).
dse-quick:
	$(PYTHON) -m repro.dse --quick

# Batched scenario-sweep service: ≥100 generated jobs (kernel scenarios,
# cosim runs, cosyn flows) on 4 workers with a warm artefact cache.
sweep:
	$(PYTHON) -m repro.sweep --cache-dir .sweep-cache --out sweep_report.json

# < 30 s smoke batch asserting serial/parallel report parity and a
# warm-cache re-run with zero re-synthesis (also run by CI).
sweep-quick:
	$(PYTHON) -m repro.sweep --quick --selfcheck --workers 2

# Long-lived co-design job service: POST sweep job specs over HTTP, jobs
# run on the shared worker pool with the warm artefact cache in front.
server:
	$(PYTHON) -m repro.server --port 8080 --cache-dir .sweep-cache

# End-to-end service check: concurrent clients submit every job kind,
# poll to done, fetch artifacts, verify a warm cacheable resubmission is
# served from cache and scrape /metrics (also run by CI).
server-smoke:
	$(PYTHON) -m repro.server --selfcheck

# Telemetry smoke: instrumented sweep, then validate the Chrome
# trace-event export and the Prometheus exposition plus the disabled
# no-op path (also run by CI).
obs-smoke:
	$(PYTHON) -m repro.obs selfcheck --quick

quickstart:
	$(PYTHON) examples/quickstart.py
