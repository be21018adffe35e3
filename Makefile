# Offline equivalent of .github/workflows/ci.yml: `make check` is the
# gate a change must pass before merging.

FUZZ_SEEDS ?= 1-25

.PHONY: all build test fuzz micro cmp-smoke profile-smoke cache-smoke interp-smoke chain-smoke alloc-smoke fleet-smoke timeline-smoke migrate-smoke check clean

all: build

build:
	dune build @all

test:
	dune runtest

fuzz:
	HIPSTR_FUZZ_SEEDS=$(FUZZ_SEEDS) dune exec test/test_fuzz.exe

micro:
	dune exec bench/main.exe -- --micro-only

# The CMP scheduler end-to-end: two workloads with suspicious
# code-cache activity time-sliced across the mixed-ISA pair under the
# security policy (forcing cross-ISA migrations), --verify demanding
# byte-equality with their standalone runs; then a parallel experiment
# sweep that must be bit-identical to serial.
cmp-smoke:
	dune exec bin/hipstr_cli.exe -- cmp-run gobmk httpd --policy security --quantum 2000 --verify
	dune exec bin/hipstr_cli.exe -- experiment table1,fig3,ablation-pad -j 2

# The observability exporters end-to-end: a CMP run on -j 2 emitting
# all four artifacts (Chrome trace, folded profile, metrics, audit
# log), each validated by the same JSON parser the exporters
# round-trip against, plus the bench phase-breakdown JSON.
profile-smoke:
	dune exec bin/hipstr_cli.exe -- cmp-run mcf libquantum hmmer \
	  --policy load-balance --migrate-prob 0.3 -j 2 \
	  --trace-out /tmp/hipstr-smoke-trace.json \
	  --profile-out /tmp/hipstr-smoke-profile.folded \
	  --metrics-out /tmp/hipstr-smoke-metrics.json \
	  --audit-out /tmp/hipstr-smoke-audit.jsonl
	dune exec bench/main.exe -- --obs-only
	dune exec tools/json_check.exe -- /tmp/hipstr-smoke-trace.json \
	  /tmp/hipstr-smoke-metrics.json /tmp/hipstr-smoke-audit.jsonl BENCH_obs.json

# Block-granular code-cache eviction end-to-end: a CMP run under an
# 8 KiB cache with the fifo policy (forcing real evictions and memo
# re-installs), --verify demanding byte-equality with the standalone
# runs; then a gobmk run under a 4 KiB flush-policy cache, which
# serves thousands of re-translations from the translation memo,
# checkpointing mid-flight: restoring that snapshot starts with an
# empty memo, and its full state dump must be byte-identical to the
# live run's, so the memo is invisible to the guest. Last, the
# cache-churn policy sweep, regenerated beside the committed
# BENCH_cache.json and gated against it at 0% and by cmp: every
# number in it (cycles, flushes, translations, misses) is
# guest-deterministic. The committed file is put back afterwards, so
# a failed gate fails again on a re-run; refresh it on purpose with
# `dune exec bench/main.exe -- --cache-only`.
cache-smoke:
	dune exec bin/hipstr_cli.exe -- cmp-run gobmk bzip2 \
	  --cc-capacity 8192 --cc-policy fifo --quantum 2000 --verify \
	  --metrics-out /tmp/hipstr-cache-metrics.json
	dune exec bin/hipstr_cli.exe -- run gobmk --mode psr \
	  --cc-capacity 4096 --cc-policy flush \
	  --checkpoint-every 100000 --checkpoint-out /tmp/hipstr-cache-churn \
	  --state-out /tmp/hipstr-cache-churn-straight.dump
	dune exec bin/hipstr_cli.exe -- restore /tmp/hipstr-cache-churn.100000.snap \
	  --state-out /tmp/hipstr-cache-churn-resumed.dump
	cmp /tmp/hipstr-cache-churn-straight.dump /tmp/hipstr-cache-churn-resumed.dump
	cp BENCH_cache.json /tmp/hipstr-cache-committed.json
	dune exec bench/main.exe -- --cache-only
	mv BENCH_cache.json /tmp/hipstr-cache-bench.json
	cp /tmp/hipstr-cache-committed.json BENCH_cache.json
	dune exec tools/json_check.exe -- /tmp/hipstr-cache-metrics.json /tmp/hipstr-cache-bench.json
	dune exec tools/bench_gate.exe -- --selftest /tmp/hipstr-cache-bench.json
	dune exec tools/bench_gate.exe -- --max-drop 0 --max-rise 0 \
	  BENCH_cache.json /tmp/hipstr-cache-bench.json
	cmp BENCH_cache.json /tmp/hipstr-cache-bench.json

# The predecoded-block interpreter end-to-end: the guest-number sweep
# (BENCH_interp.json: instructions and cycles per workload x mode,
# each run also asserted bit-identical to the per-instruction decode
# oracle), then a CMP run on the oracle (--no-decode-cache) whose
# --verify re-runs every process standalone on the default engine —
# an end-to-end fast-path/oracle differential — with -j 1 and -j 4
# metrics exports demanded byte-identical. Host throughput is
# hostbench's job, so nothing here needs a release build.
interp-smoke:
	dune exec bench/main.exe -- --interp-only
	dune exec bin/hipstr_cli.exe -- cmp-run gobmk bzip2 mcf --no-decode-cache \
	  --quantum 2000 --verify -j 1 --metrics-out /tmp/hipstr-interp-j1.json
	dune exec bin/hipstr_cli.exe -- cmp-run gobmk bzip2 mcf --no-decode-cache \
	  --quantum 2000 --verify -j 4 --metrics-out /tmp/hipstr-interp-j4.json
	cmp /tmp/hipstr-interp-j1.json /tmp/hipstr-interp-j4.json
	dune exec tools/json_check.exe -- BENCH_interp.json /tmp/hipstr-interp-j1.json

# Block chaining + indirect-branch ICs end-to-end: the chaining unit
# and differential suite, then CMP runs with chaining disabled whose
# --verify re-runs every process standalone with chaining *on* — an
# end-to-end chained/unchained differential — at -j 1 and -j 4 with
# metrics exports demanded byte-identical, plus one fuzz batch with
# chaining flipped off for the whole config matrix. Last, an
# unchained gobmk run checkpointing mid-flight, restored with
# --no-chain: an image does not record the engine, so the restore
# names it, and its full state dump must be byte-identical to the
# live run's.
chain-smoke:
	dune exec test/test_chain.exe
	dune exec bin/hipstr_cli.exe -- cmp-run gobmk bzip2 mcf --no-chain \
	  --quantum 2000 --verify -j 1 --metrics-out /tmp/hipstr-chain-j1.json
	dune exec bin/hipstr_cli.exe -- cmp-run gobmk bzip2 mcf --no-chain \
	  --quantum 2000 --verify -j 4 --metrics-out /tmp/hipstr-chain-j4.json
	cmp /tmp/hipstr-chain-j1.json /tmp/hipstr-chain-j4.json
	HIPSTR_FUZZ_CHAIN=off HIPSTR_FUZZ_SEEDS=1-10 dune exec test/test_fuzz.exe
	dune exec bin/hipstr_cli.exe -- run gobmk --mode hipstr --no-chain \
	  --checkpoint-every 200000 --checkpoint-out /tmp/hipstr-chain \
	  --state-out /tmp/hipstr-chain-straight.dump
	dune exec bin/hipstr_cli.exe -- restore /tmp/hipstr-chain.200000.snap --no-chain \
	  --state-out /tmp/hipstr-chain-resumed.dump
	cmp /tmp/hipstr-chain-straight.dump /tmp/hipstr-chain-resumed.dump

# The fleet serving subsystem end-to-end: the fleet determinism
# suite, then one seeded open-loop trace served at -j 1 and -j 4 with
# metrics and audit exports demanded byte-identical (the fleet
# determinism contract). Last, the reduced fleet sweep, regenerated
# beside the committed BENCH_fleet.json and gated against it at 0% and
# by cmp: every number in it (waves, makespan, latency percentiles) is
# guest-deterministic and identical at any -j. The committed file is
# put back afterwards, so a failed gate fails again on a re-run;
# refresh it on purpose with
# `dune exec bench/main.exe -- --fleet-only --fleet-procs 24 -j 2`.
fleet-smoke:
	dune exec test/test_fleet.exe
	dune exec bin/hipstr_cli.exe -- fleet-run --procs 48 --arrival poisson:50 \
	  --mix 60,20,10,10 --policy security-first --mode psr --shards 4 -j 1 \
	  --metrics-out /tmp/hipstr-fleet-j1.json --audit-out /tmp/hipstr-fleet-j1.jsonl
	dune exec bin/hipstr_cli.exe -- fleet-run --procs 48 --arrival poisson:50 \
	  --mix 60,20,10,10 --policy security-first --mode psr --shards 4 -j 4 \
	  --metrics-out /tmp/hipstr-fleet-j4.json --audit-out /tmp/hipstr-fleet-j4.jsonl
	cmp /tmp/hipstr-fleet-j1.json /tmp/hipstr-fleet-j4.json
	cmp /tmp/hipstr-fleet-j1.jsonl /tmp/hipstr-fleet-j4.jsonl
	cp BENCH_fleet.json /tmp/hipstr-fleet-committed.json
	dune exec bench/main.exe -- --fleet-only --fleet-procs 24 -j 2
	mv BENCH_fleet.json /tmp/hipstr-fleet-bench.json
	cp /tmp/hipstr-fleet-committed.json BENCH_fleet.json
	dune exec tools/json_check.exe -- /tmp/hipstr-fleet-bench.json /tmp/hipstr-fleet-j1.json \
	  /tmp/hipstr-fleet-j1.jsonl
	dune exec tools/bench_gate.exe -- --selftest /tmp/hipstr-fleet-bench.json
	dune exec tools/bench_gate.exe -- --max-drop 0 --max-rise 0 \
	  BENCH_fleet.json /tmp/hipstr-fleet-bench.json
	cmp BENCH_fleet.json /tmp/hipstr-fleet-bench.json

# The time-resolved telemetry layer end-to-end: an attack-heavy
# bursty fleet run emitting the windowed timeline (JSON + CSV, with
# an SLO section) at -j 1 and -j 4, both artifacts demanded
# byte-identical (the deterministic-timeline contract; --hostprof is
# deliberately absent here because host allocation is not
# deterministic), json_check validating the hipstr-timeline/1 schema,
# then the bench_gate regression checker: --selftest must catch a
# synthetic 10% degradation of the committed fleet benchmark
# (fleet-smoke gates BENCH_fleet.json against a fresh sweep).
timeline-smoke:
	dune exec bin/hipstr_cli.exe -- fleet-run --procs 96 --arrival bursty:40:24 \
	  --mix 55,15,5,25 --policy security-first --mode hipstr --shards 4 -j 1 \
	  --timeline-window 50000 --slo-target 200000 --slo-budget 0.1 \
	  --timeline-out /tmp/hipstr-timeline-j1.json --timeline-csv /tmp/hipstr-timeline-j1.csv
	dune exec bin/hipstr_cli.exe -- fleet-run --procs 96 --arrival bursty:40:24 \
	  --mix 55,15,5,25 --policy security-first --mode hipstr --shards 4 -j 4 \
	  --timeline-window 50000 --slo-target 200000 --slo-budget 0.1 \
	  --timeline-out /tmp/hipstr-timeline-j4.json --timeline-csv /tmp/hipstr-timeline-j4.csv
	cmp /tmp/hipstr-timeline-j1.json /tmp/hipstr-timeline-j4.json
	cmp /tmp/hipstr-timeline-j1.csv /tmp/hipstr-timeline-j4.csv
	dune exec tools/json_check.exe -- /tmp/hipstr-timeline-j1.json
	dune exec tools/bench_gate.exe -- --selftest BENCH_fleet.json

# Checkpoint/restore + live migration end-to-end: the snapshot suite,
# then a gobmk run that checkpoints once mid-flight whose full state
# dump (outcome, output, cycle bits, every counter and histogram) is
# demanded byte-identical to restoring that snapshot and running to
# completion; a fleet run rebalancing every wave at -j 1 and -j 4
# with metrics and audit exports demanded byte-identical (live
# migration rides the same post-barrier determinism contract); then
# the migration-cost decomposition, regenerated beside the committed
# BENCH_migrate.json and gated against it at 0% and by cmp: every
# metric in it (image bytes, simulated cycles) is guest-deterministic,
# so any change — a shrink included, which the lower-is-better 0%
# gate alone lets through — is a real one. The committed file is put
# back afterwards, so a failed gate fails again on a re-run; refresh
# it on purpose with `dune exec bench/main.exe -- --migrate-only`.
migrate-smoke:
	dune exec test/test_snapshot.exe
	dune exec bin/hipstr_cli.exe -- run gobmk --mode hipstr \
	  --checkpoint-every 200000 --checkpoint-out /tmp/hipstr-migrate \
	  --state-out /tmp/hipstr-migrate-straight.dump
	dune exec bin/hipstr_cli.exe -- restore /tmp/hipstr-migrate.200000.snap \
	  --state-out /tmp/hipstr-migrate-resumed.dump
	cmp /tmp/hipstr-migrate-straight.dump /tmp/hipstr-migrate-resumed.dump
	dune exec bin/hipstr_cli.exe -- fleet-run --procs 40 --arrival poisson:500 \
	  --mix 60,20,10,10 --mode psr --shards 4 --migrate-every 1 -j 1 \
	  --metrics-out /tmp/hipstr-migrate-j1.json --audit-out /tmp/hipstr-migrate-j1.jsonl
	dune exec bin/hipstr_cli.exe -- fleet-run --procs 40 --arrival poisson:500 \
	  --mix 60,20,10,10 --mode psr --shards 4 --migrate-every 1 -j 4 \
	  --metrics-out /tmp/hipstr-migrate-j4.json --audit-out /tmp/hipstr-migrate-j4.jsonl
	cmp /tmp/hipstr-migrate-j1.json /tmp/hipstr-migrate-j4.json
	cmp /tmp/hipstr-migrate-j1.jsonl /tmp/hipstr-migrate-j4.jsonl
	cp BENCH_migrate.json /tmp/hipstr-migrate-committed.json
	dune exec bench/main.exe -- --migrate-only
	mv BENCH_migrate.json /tmp/hipstr-migrate-bench.json
	cp /tmp/hipstr-migrate-committed.json BENCH_migrate.json
	dune exec tools/json_check.exe -- /tmp/hipstr-migrate-bench.json /tmp/hipstr-migrate-j1.json
	dune exec tools/bench_gate.exe -- --selftest /tmp/hipstr-migrate-bench.json
	dune exec tools/bench_gate.exe -- --max-drop 0 --max-rise 0 \
	  BENCH_migrate.json /tmp/hipstr-migrate-bench.json
	cmp BENCH_migrate.json /tmp/hipstr-migrate-bench.json

# The allocation-free hot loop end-to-end: a gobmk/hipstr run with
# host allocation profiling on, then a 200-connection hipstr fleet at
# -j 1, each asserting minor GC words per retired instruction stays
# within its budget. Both counts repeat exactly in a dev build (0.844
# and 66.838; the hot loop itself is allocation-free, the residue is
# boot, block decode, translation, migration edges and the
# profiler's own bookkeeping), and each budget is its measured value
# plus under 5%, so a few percent of allocation creep fails.
alloc-smoke:
	dune exec bin/hipstr_cli.exe -- run gobmk --mode hipstr \
	  --hostprof --assert-alloc 0.88
	dune exec bin/hipstr_cli.exe -- fleet-run --procs 200 --arrival poisson:100 \
	  --mode hipstr --shards 4 -j 1 --hostprof --assert-alloc 70.0

check: build test fuzz micro cmp-smoke profile-smoke cache-smoke interp-smoke chain-smoke alloc-smoke fleet-smoke timeline-smoke migrate-smoke

clean:
	dune clean
