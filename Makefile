PYTHON ?= python
export PYTHONPATH := src

.PHONY: test lint check paper-claims smoke-cache smoke-surrogate bench \
	profile results clean-cache

test:
	$(PYTHON) -m pytest -x -q

# Lint gate (ruff, configured in pyproject.toml).  Skips gracefully when
# ruff is not installed locally; CI always installs and enforces it.
lint:
	@if $(PYTHON) -m ruff --version >/dev/null 2>&1; then \
		$(PYTHON) -m ruff check src tests scripts benchmarks examples; \
	else \
		echo "ruff not installed (pip install -e '.[lint]'); skipping"; \
	fi

# The tier-1 suite, lint, the fast paper-claim tests and the two smoke
# tests too slow for tier-1.  CI runs all of these (lint in its own job);
# its check job adds re-renders of figure16-large and the full-scale
# figures, the profile sha256 and a saved-trace read-back.  Transparency
# of every attachment (telemetry, trace, faults, resilience, policy) is
# a recorded-fingerprint table in tests/test_engine_regressions.py.
check: test lint paper-claims smoke-cache smoke-surrogate

# The paper-claim tests under benchmarks/ in fast mode, timing off.
paper-claims:
	$(PYTHON) -m pytest benchmarks/ --benchmark-disable -q

# Cache smoke test: figure16 twice; the second run must hit the persistent
# sweep cache (zero simulations), be much faster, and render identically.
smoke-cache:
	$(PYTHON) scripts/smoke_cache.py

# Surrogate smoke test: triage simulates only a bounded subset, the
# predicted frontier contains a near-best design (full grid simulated as
# ground truth) with every pick above the grid median, and the audit
# slice's relative error stays under the bench-gated bound.
smoke-surrogate:
	$(PYTHON) scripts/smoke_surrogate.py

# Capture a bench trajectory point (results/BENCH_0003.json) and
# validate it against the schema.
bench:
	$(PYTHON) scripts/bench.py
	$(PYTHON) scripts/bench.py --check results/BENCH_0003.json

# Overlap profile of the sweep cases (CASE filters by label substring,
# e.g. `make profile CASE=fc2`); writes profile-report.json.
CASE ?=
profile:
	$(PYTHON) -m repro.experiments.runner profile figure16 \
		$(if $(CASE),--config $(CASE)) --profile profile-report.json

# Regenerate results/ (fast mode).  JOBS workers for cache misses.
JOBS ?= 1
results:
	$(PYTHON) scripts/capture_results.py --jobs $(JOBS)

clean-cache:
	$(PYTHON) -c "from repro.experiments.sublayer_sweep import \
clear_disk_cache; print(f'{clear_disk_cache()} entries removed')"
