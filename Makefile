# Convenience targets for the repro library.

PYTHON ?= python
# run from a checkout: the package lives under src/ and need not be
# pip-installed
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: install test bench soak chaos serve service-smoke \
	service-abuse experiments experiments-full docs clean

install:
	pip install -e . --no-build-isolation

test:
	$(PYTHON) -m pytest tests/

test-fast:
	$(PYTHON) -m pytest tests/unit -q

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# long fault-injection burn-ins (excluded from the default pytest run)
soak:
	$(PYTHON) -m pytest tests/integration/test_soak.py -m soak -q

# point the runner's failure handling at itself: crashed workers,
# hangs, timeouts, retry accounting and run-dir resume
chaos:
	$(PYTHON) tools/chaos_sweep.py

# the buffer-provisioning HTTP service (docs/robustness.md)
serve:
	$(PYTHON) -m repro serve

# concurrent soak of the service with a chaos-killed shard mid-run
service-smoke:
	$(PYTHON) tools/service_smoke.py

# adversarial HTTP abuse harness: hostile clients + legit traffic +
# chaos shard kill + graceful drain, against a live service
service-abuse:
	$(PYTHON) tools/hostile_client.py

experiments:
	$(PYTHON) -m repro run all --preset quick

experiments-full:
	$(PYTHON) -m repro run all --preset full --out results/full
	$(PYTHON) tools/generate_experiments_md.py results/full > EXPERIMENTS.md

clean:
	rm -rf build dist *.egg-info .pytest_cache .hypothesis
	find . -name __pycache__ -type d -exec rm -rf {} +
