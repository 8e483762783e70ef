.PHONY: all build check test faultcheck-smoke fuzz-smoke serve-smoke enum-smoke datapath-smoke largevol-smoke snap-smoke tab2-smoke crashcheck bench bench-json bench-json-quick serve-json serve-json-quick clean

all: build

# Tier-1 gate: full build plus the complete test suite, then the fuzzer
# smoke matrix, a quick states/sec trajectory point (BENCH_fuzz.json),
# and the two smoke targets that drive Crashcheck.Harness.
check:
	dune build && dune runtest
	$(MAKE) fuzz-smoke
	$(MAKE) enum-smoke
	$(MAKE) serve-smoke
	$(MAKE) datapath-smoke
	$(MAKE) largevol-smoke
	$(MAKE) tab2-smoke
	$(MAKE) bench-json-quick
	$(MAKE) snap-smoke
	$(MAKE) serve-json-quick
	$(MAKE) crashcheck
	$(MAKE) faultcheck-smoke

build:
	dune build

test: check

# Small seed-matrix fuzzing run: a few clean seeds (any violation is an
# SSU bug) plus one mutant-rediscovery run that must re-find every
# Buggy_* variant with a <= 6-op shrunk reproducer.
fuzz-smoke: build
	@for s in 1 2 3; do \
	  echo "== fuzz --seed $$s (clean) =="; \
	  dune exec bin/fuzz.exe -- --seed $$s --iters 12 --op-budget 6 \
	    --buggy-rate 0 || exit 2; \
	done
	@echo "== fuzz --expect-buggy =="
	dune exec bin/fuzz.exe -- --seed 1 --iters 40 --op-budget 6 --expect-buggy

# Bounded-enumeration smoke: the complete clean seq-2 sweep over the
# canonical universe (must be quiet through both the crash oracle and
# the SSU trace checker, with exactly-reconciling coverage accounting;
# writes the machine-readable coverage record for CI), then the mutant
# leg: with the Buggy_* alphabet extension every mutant kind must be
# flagged by BOTH checkers with a <= 3-op shrunk reproducer.
enum-smoke: build
	@echo "== fuzz --enum (clean seq-2 sweep) =="
	dune exec bin/fuzz.exe -- --enum --coverage-out ENUM_coverage.json
	@echo "== fuzz --enum --expect-buggy =="
	dune exec bin/fuzz.exe -- --enum --expect-buggy

# Concurrent-path smoke: a short Zipf client load through the request
# frontend (multi-domain, exercising the sharded lock table and the
# whole-FS fallback), then an interleaved 2-op fuzz batch — every
# lock-respecting schedule crash-checked clean, and all three Buggy_*
# mutants flagged by both the oracle and the SSU trace checker.
# Nonzero exit on any violation.
serve-smoke: build
	@echo "== serve: 200 clients x 20 ops, -j 2 =="
	dune exec bin/serve.exe -- --clients 200 --ops 20 -j 2 --seed 7 --quiet
	@echo "== fuzz --interleaved (clean) =="
	dune exec bin/fuzz.exe -- --interleaved --seed 1 --pairs 25
	@echo "== fuzz --interleaved --expect-buggy =="
	dune exec bin/fuzz.exe -- --interleaved --expect-buggy

# Split-data-path smoke: exact fence counts for the coalesced write
# schedule (in-place = 1 sfence, extending append = 2, against the
# legacy 2/3 ablation) and open-handle vs path-resolving throughput.
# Exits non-zero on any regression (see the `datapath` bench section).
datapath-smoke: build
	@echo "== bench datapath (fence schedule + handle throughput) =="
	dune exec bench/main.exe -- datapath

# Table 2 shape gate (about 1.3 s): the mount-time table on a 64 MiB
# volume, exit 2 unless a full normal mount takes longer than an empty
# one and recovery mount is at least as slow as normal mount at both
# utilizations.
tab2-smoke: build
	@echo "== bench tab2 (mount-time shape) =="
	dune exec bench/main.exe -- tab2

# Large-sparse-volume smoke: mkfs + mount + a 100k-file create/stat
# sweep on a 4 GiB lazily-backed volume, gated on near-constant mkfs
# and empty-mount wall time and on resident memory staying a small
# fraction of the volume (exit 2 if the dense scalability wall is
# back). A sparse fuzz leg cross-checks that forcing the sparse
# representation on the fuzzing volume stays violation-free.
# `bench largevol-full` is the 18 GiB / 1M-file version (EXPERIMENTS.md).
largevol-smoke: build
	@echo "== bench largevol (4 GiB sparse volume, 100k files) =="
	dune exec bench/main.exe -- largevol
	@echo "== fuzz --sparse (clean) =="
	dune exec bin/fuzz.exe -- --seed 1 --iters 12 --op-budget 6 \
	  --buggy-rate 0 --sparse
	@echo "== fuzz --enum --sparse =="
	dune exec bin/fuzz.exe -- --enum --sparse

# Snapshot smoke: three clean snapshot/rollback workloads crash-checked
# through the full delta-view probe (every enumerated image must pass
# both the crash oracle and the SSU trace checker), the torn-commit
# snapshot mutant flagged by both checkers, then the snapshot latency
# gauges written into BENCH_fuzz.json — exit 2 if snapshot creation on
# the 4 GiB sparse volume exceeds 10 ms or scales with volume size
# instead of the dirty set, or if the scrubber misreads an intact pin.
snap-smoke: build
	@echo "== fuzz --snap-smoke =="
	dune exec bin/fuzz.exe -- --snap-smoke
	@echo "== bench snap-json (snapshot latency gates) =="
	dune exec bench/main.exe -- snap-json

# Fast end-to-end exercise of the media-fault pipeline: checksummed
# volume, seeded bit flips, scrub, degraded remount, EIO checks.
faultcheck-smoke: build
	dune exec bin/faultcheck.exe -- --smoke --flips 2 --torn 0.2

# The reinjected mutants (every one must be caught, the snapshot mutant
# at 64 images per fence), then the full 625-workload seq-2 sweep, which
# must be clean. Exit 0 only if both legs pass.
crashcheck: build
	dune exec bin/crashcheck_cli.exe -- --systematic --buggy

bench: build
	dune exec bench/main.exe

# States/sec perf trajectory, machine-readable: crash states explored on
# a 32 MB volume plus the -j scaling section (work-stealing scheduler; iteration
# count scales with the job count; reports speedup, parallel_efficiency =
# speedup/jobs, host_cores, and per-shard iter/chunk/wall stats), written
# to BENCH_fuzz.json. Both variants warn loudly when -j N is slower than
# -j 1 on the same work; the full variant additionally exits non-zero —
# but only on hosts with >1 core, where a speedup is physically possible.
# The quick variant is part of `make check`.
bench-json: build
	dune exec bench/main.exe -- fuzz-json

bench-json-quick: build
	dune exec bench/main.exe -- fuzz-json-quick

# Multi-client serving trajectory, machine-readable: ops/sec, per-op
# latency quantiles, fairness, lock retries/fallbacks, and the -j 1
# determinism cross-check (exit 2 on mismatch), written to
# BENCH_serve.json. Same host_cores > 1 gating as bench-json.
serve-json: build
	dune exec bench/main.exe -- serve-json

serve-json-quick: build
	dune exec bench/main.exe -- serve-json-quick

clean:
	dune clean
