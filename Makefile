# Convenience targets for the reproduction.

PYTHON ?= python
# Process-pool size for experiment runs (see docs/PERFORMANCE.md).
WORKERS ?= 2

.PHONY: install dev test bench experiments lint typecheck verify live snapshot snapshot-check examples ledger clean

install:
	pip install -e .

dev:
	pip install -e '.[dev]'

test:
	$(PYTHON) -m pytest tests/

# The benchmark (bench/README.md, BENCHMARK.json): seven workloads,
# noise-normalised end-to-end metrics and per-layer metrics; the last
# stdout line of each run is its JSON result.
bench:
	python3 bench/run.py

experiments:
	$(PYTHON) -m repro.experiments all

# Static invariant analysis (RPR001-RPR007, see docs/DEVELOPING.md):
# determinism, unit discipline (propagated through locals and calls),
# protocol registration, oracle and metric-name alphabets, hygiene,
# async/lock discipline.  Exit 1 on any finding not silenced by a
# '# repro: noqa[CODE]' comment.  '--format github' for CI annotations.
lint:
	$(PYTHON) -m repro.lint src examples

# Strict typing gate over the simulation core, the fast path, the
# sweep engine, the differential oracle, the fault layer, the
# observability layer, and the live origin/proxy mode (config in
# pyproject.toml).
# Skips with a notice
# when mypy is not installed (it ships in the '.[dev]' extra; CI always
# runs it).
typecheck:
	@if $(PYTHON) -c "import mypy" 2>/dev/null; then \
	  $(PYTHON) -m mypy src/repro/core src/repro/fastpath src/repro/runtime src/repro/verify src/repro/faults src/repro/obs src/repro/live; \
	else \
	  echo "typecheck: mypy not installed (pip install -e '.[dev]'); skipped"; \
	fi

# Live gate (docs/LIVE.md): synthesize one reduced trace, then replay
# it through the real asyncio origin+proxy pair on loopback sockets
# under every option of the one replay path — the one-connection
# default, a keep-alive pool, socket-level fault injection on both
# hops, injected invalidation-message faults (alone, and under the pool
# with socket chaos on top), a traced chaotic replay, and last the
# hardest leg: all of it at once — fault plan, pool, socket chaos,
# trace — across a SIGKILLed proxy restarting from its journal.  Every
# leg must match a simulation of the same trace cell-for-cell and
# event-for-event.  Each traced leg's three per-role repro.trace/1
# files must merge into a violation-free repro.trace/2 timeline (`trace
# merge` exits 1 on any happens-before violation: send <= recv, commit
# <= reply, kill <= restore); the chaotic one's summary must carry the
# schema id with its retry count equal to its own retry-mark count, the
# crashed one's timeline exactly one live.trace.restore
# (docs/OBSERVABILITY.md).
LIVE_SCRATCH = .live.log .live-journal.jsonl .live-trace.jsonl \
  .live-trace.proxy.jsonl .live-trace.origin.jsonl
REPLAY = $(PYTHON) -m repro.cli replay .live.log --verify
live:
	rm -f $(LIVE_SCRATCH)
	$(PYTHON) -m repro.cli synthesize hcs .live.log --seed 7 --scale 0.02
	$(REPLAY) --protocol alex --parameter 10
	$(REPLAY) --protocol invalidation
	$(REPLAY) --protocol alex --parameter 10 --connections 4 --keepalive
	$(REPLAY) --protocol selftuning --parameter 4 --connections 4 \
	  --keepalive
	$(REPLAY) --protocol invalidation --connections 2 --keepalive \
	  --chaos "loss=0.25,seed=7"
	$(REPLAY) --protocol leased --parameter 1 --connections 2 --keepalive \
	  --chaos "delay=0.002,truncate=0.3,seed=11"
	$(REPLAY) --protocol invalidation --connections 2 --keepalive \
	  --chaos "reset=0.3,dribble=0.3,seed=3"
	$(REPLAY) --protocol invalidation \
	  --faults "downtime=2h@50h,delay=30s,seed=3"
	$(REPLAY) --protocol invalidation \
	  --faults "downtime=2h@50h,delay=30s,seed=3" --connections 2 \
	  --keepalive --chaos "loss=0.25,seed=7"
	$(REPLAY) --protocol alex --parameter 10 --connections 2 --keepalive \
	  --chaos "loss=0.25,truncate=0.2,seed=7" --trace .live-trace.jsonl
	$(PYTHON) -m repro.cli trace merge .live-trace.jsonl > /dev/null
	$(PYTHON) -m repro.cli trace summarize .live-trace.jsonl \
	  --format json | $(PYTHON) -c "import json, sys; \
	  summary = json.load(sys.stdin); \
	  assert summary['schema'] == 'repro.trace.summary/1', summary['schema']; \
	  assert summary['retries'] == summary['marks'].get('live.trace.retry', 0); \
	  assert summary['exchanges'] > 0 and summary['chaos_injected'] > 0"
	$(PYTHON) -m repro.cli trace critical-path .live-trace.jsonl \
	  --format json > /dev/null
	$(REPLAY) --protocol invalidation \
	  --faults "downtime=2h@50h,delay=30s,seed=3" \
	  --chaos "loss=0.25,seed=7" --connections 2 --keepalive \
	  --journal .live-journal.jsonl --crash-after 200 \
	  --trace .live-trace.jsonl
	$(PYTHON) -m repro.cli trace merge .live-trace.jsonl > /dev/null
	test "$$($(PYTHON) -m repro.cli trace grep .live-trace.jsonl \
	  --kind live.trace.restore | wc -l)" -eq 1
	rm -f $(LIVE_SCRATCH)
	@echo "live: serial, pooled, chaotic, faulted, crash-restart and" \
	  "traced replays matched simulation exactly"

# Consistency-oracle gate (see docs/PROTOCOLS.md, "Invariants &
# verification"): static analysis + typing first, then the request
# step's transition table (a transition bug fails here, where it is
# written) and the differential/metamorphic property suite.  The
# oracle-checked replay of every experiment at reduced scale (each
# simulation checked event-for-event against the brute-force spec
# model) is `snapshot-check`'s run — a prerequisite, not repeated here.
verify: lint typecheck snapshot-check
	$(PYTHON) -m pytest tests/core/test_step.py tests/verify/ -q
	@echo "verify: lint + typecheck + property suite + oracle-checked replay passed"

# Regenerate the committed full-scale results snapshot and SVG figures.
snapshot:
	$(PYTHON) -m repro.experiments all --svg docs/figures > docs/RESULTS.txt.tmp 2>&1
	{ printf 'RESULTS SNAPSHOT — full-scale run of every experiment\n'; \
	  printf '======================================================\n\n'; \
	  printf 'Generated by:  python -m repro.experiments all   (scale 1.0, seed 0)\n'; \
	  printf 'Regenerate with the same command; output is deterministic.\n\n'; \
	  printf 'This file is a committed convenience snapshot of the ASCII figures,\n'; \
	  printf 'data tables, and shape-check verdicts.  EXPERIMENTS.md narrates the\n'; \
	  printf 'paper-vs-measured comparison; DESIGN.md maps experiments to modules.\n\n'; \
	  cat docs/RESULTS.txt.tmp; } > docs/RESULTS.txt
	rm docs/RESULTS.txt.tmp

# CI-friendly regression gate: rerun every experiment at reduced scale
# with the parallel engine and diff the verdict lines against the
# committed expectation.  Catches rewired runners silently changing or
# breaking a shape check.  (~10 s; engine output is byte-identical for
# any WORKERS value, see docs/PERFORMANCE.md.)  --verify additionally
# replays every simulation through the repro.verify oracle: any counter
# or ledger divergence aborts the run before the diff.
snapshot-check:
	$(PYTHON) -m repro.experiments all --scale 0.25 --workers $(WORKERS) \
	  --verify | grep -E '^(== |  -> )' > .snapshot-check.out
	diff docs/snapshot-check.expected .snapshot-check.out \
	  && rm .snapshot-check.out \
	  && echo "snapshot-check: verdicts match docs/snapshot-check.expected"

examples:
	for f in examples/*.py; do echo "== $$f =="; $(PYTHON) "$$f"; done

# Source-line ledger: `wc -l` of every module under src/, rolled up by
# package (top-level modules listed by name) — the numbers
# docs/DEVELOPING.md and the ROADMAP re-anchor quote.  Per-module
# detail: `wc -l src/repro/<package>/*.py`.
ledger:
	@find src -name '*.py' | xargs wc -l | awk '$$2 != "total" { \
	    n = split($$2, part, "/"); \
	    key = (n > 3) ? part[3] "/" : part[3]; \
	    lines[key] += $$1; total += $$1 } \
	  END { for (key in lines) printf "%7d  %s\n", lines[key], key | "sort -rn"; \
	    close("sort -rn"); printf "%7d  total\n", total }'

clean:
	rm -rf build dist src/*.egg-info .pytest_cache .hypothesis
	find . -name __pycache__ -type d -exec rm -rf {} +
