# Offline equivalent of .github/workflows/ci.yml: `make check` is the
# gate a change must pass before merging.

FUZZ_SEEDS ?= 1-25

.PHONY: all build test goldens fuzz wire-gate inline-gate cmp-smoke profile-smoke cache-smoke interp-smoke alloc-smoke fleet-smoke timeline-smoke migrate-smoke check clean

all: build

build:
	dune build @all

# `dune runtest` also diffs every committed golden (BENCH_tables.tsv
# and the BENCH_*.json files) against a fresh run of bench/main.exe;
# see the root dune file.
test:
	dune runtest

# Rewrite every golden from the current code, on purpose (built first,
# so a build error truncates no file). A change that moves one says so
# in CHANGES.md and gives the reason.
goldens:
	dune build bench/main.exe
	dune exec bench/main.exe -- tables -j 2 > BENCH_tables.tsv
	dune exec bench/main.exe -- cache > BENCH_cache.json
	dune exec bench/main.exe -- fleet -j 2 > BENCH_fleet.json
	dune exec bench/main.exe -- migrate > BENCH_migrate.json
	dune exec bench/main.exe -- interp > BENCH_interp.json
	dune exec bench/main.exe -- obs > BENCH_obs.json

fuzz:
	HIPSTR_FUZZ_SEEDS=$(FUZZ_SEEDS) dune exec test/test_fuzz.exe

# Each image record is declared once, through Wire's codecs, which
# write and read it from one declaration: no program code outside
# lib/util/wire.ml calls a reader primitive. Tests may, to forge
# records by hand.
WIRE_READERS = Wire[.](r_[a-z0-9_]*|expect_tag|expect_end)

wire-gate:
	@bad=$$(grep -rnE --include='*.ml' --include='*.mli' '$(WIRE_READERS)' \
	  lib bin bench tools examples | grep -v '^lib/util/wire[.]ml:'); \
	if [ -n "$$bad" ]; then \
	  echo "wire-gate: reader primitives outside lib/util/wire.ml:"; echo "$$bad"; exit 1; fi; \
	echo "wire-gate: no reader primitive outside lib/util/wire.ml"

# The dispatch loop retires loads, stores and ALU ops with no call on
# their common path: the memory and ALU flag helpers are [@inline] and
# inlined across modules. The dev build is -opaque, so that shows only
# in a release build, made here in its own build directory. The gate
# fails naming each helper Exec.packed_loop still references, which
# catches an [@inline] the compiler dropped without a warning because
# its function stopped qualifying; it also fails when it finds no
# packed_loop at all.
RELEASE_BUILD = _build-release
EXEC_OBJ = $(RELEASE_BUILD)/default/lib/machine/.hipstr_machine.objs/native/hipstr_machine__Exec.o
HOT_HELPERS = ^caml(Hipstr_machine__Exec[.](read_mem32|write_mem32|dcache_access|apply_binop|set_zs)|Hipstr_machine__Mem[.](read32|write32|get32|set32|touch|touch_range)|Hipstr_util__Wrap32[.](wrap|add|sub|carry_add|borrow_sub|overflow_add|overflow_sub|logand|logor|logxor|shl|shr|sar|mul))_[0-9]+$$

inline-gate:
	dune build --root . --build-dir $(RELEASE_BUILD) --profile release @lib/machine/all
	@out=$$(objdump -dr $(EXEC_OBJ) | awk -v re='$(HOT_HELPERS)' ' \
	  /^[0-9a-f]+ <.*>:$$/ { in_loop = ($$2 ~ /^<camlHipstr_machine__Exec[.]packed_loop_[0-9]+>:$$/); \
	    if (in_loop) found = 1; next } \
	  in_loop && /R_X86_64_/ { s = $$NF; sub(/[-+]0x[0-9a-f]+$$/, "", s); \
	    if (s ~ re && !seen[s]++) { sub(/^camlHipstr_[a-z]+__/, "", s); sub(/_[0-9]+$$/, "", s); \
	      print "  Exec.packed_loop references " s } } \
	  END { if (!found) print "  no Exec.packed_loop" }'); \
	if [ -n "$$out" ]; then \
	  echo "inline-gate: $(EXEC_OBJ):"; echo "$$out"; exit 1; fi; \
	echo "inline-gate: Exec.packed_loop calls no memory or ALU helper"

# The CMP scheduler end-to-end: two workloads with suspicious
# code-cache activity time-sliced across the mixed-ISA pair under the
# security policy (forcing cross-ISA migrations), --verify demanding
# byte-equality with their standalone runs; then the same experiment
# sweep at -j 1 and -j 2, whose outputs must be byte-identical.
cmp-smoke:
	dune exec bin/hipstr_cli.exe -- cmp-run gobmk httpd --policy security --quantum 2000 --verify
	dune exec bin/hipstr_cli.exe -- experiment table1,fig3,ablation-pad -j 1 > /tmp/hipstr-sweep-j1.txt
	dune exec bin/hipstr_cli.exe -- experiment table1,fig3,ablation-pad -j 2 > /tmp/hipstr-sweep-j2.txt
	cmp /tmp/hipstr-sweep-j1.txt /tmp/hipstr-sweep-j2.txt

# The observability exporters end-to-end: a CMP run on -j 2 emitting
# all four artifacts (Chrome trace, folded profile, metrics, audit
# log), each validated by the same JSON parser the exporters
# round-trip against.
profile-smoke:
	dune exec bin/hipstr_cli.exe -- cmp-run mcf libquantum hmmer \
	  --policy load-balance --migrate-prob 0.3 -j 2 \
	  --trace-out /tmp/hipstr-smoke-trace.json \
	  --profile-out /tmp/hipstr-smoke-profile.folded \
	  --metrics-out /tmp/hipstr-smoke-metrics.json \
	  --audit-out /tmp/hipstr-smoke-audit.jsonl
	dune exec tools/json_check.exe -- /tmp/hipstr-smoke-trace.json \
	  /tmp/hipstr-smoke-metrics.json /tmp/hipstr-smoke-audit.jsonl

# Block-granular code-cache eviction end-to-end: a CMP run under an
# 8 KiB cache with the fifo policy (forcing real evictions and memo
# re-installs), --verify demanding byte-equality with the standalone
# runs; then a gobmk run under a 4 KiB flush-policy cache, which
# serves thousands of re-translations from the translation memo,
# checkpointing every 100k instructions (at 100k and 200k): restoring
# either snapshot starts with an empty memo and a cold decode cache,
# and its full state dump must be byte-identical to the live run's,
# so the memo and the decode cache are invisible to the guest and a
# checkpoint leaves the live run as it was. The cache-churn policy
# sweep (BENCH_cache.json) is a golden in `dune runtest`.
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
	dune exec bin/hipstr_cli.exe -- restore /tmp/hipstr-cache-churn.200000.snap \
	  --state-out /tmp/hipstr-cache-churn-resumed2.dump
	cmp /tmp/hipstr-cache-churn-straight.dump /tmp/hipstr-cache-churn-resumed2.dump
	dune exec tools/json_check.exe -- /tmp/hipstr-cache-metrics.json

# The predecoded-block interpreter end-to-end: a CMP run on the oracle
# (--no-decode-cache) whose --verify re-runs every process standalone
# on the default engine — an end-to-end fast-path/oracle differential
# — with -j 1 and -j 4 metrics exports demanded byte-identical, and
# the same CMP run on the fast path, whose metrics export must match
# the oracle's byte for byte, as must a gobmk run's state dump on the
# two engines: no host decode counter reaches an export. The
# guest-number sweep (BENCH_interp.json: instructions and cycles per
# workload x mode, each run also asserted bit-identical to the
# oracle) is a golden in `dune runtest`. Host throughput is
# hostbench's job, so nothing here needs a release build.
interp-smoke:
	dune exec bin/hipstr_cli.exe -- cmp-run gobmk bzip2 mcf --no-decode-cache \
	  --quantum 2000 --verify -j 1 --metrics-out /tmp/hipstr-interp-j1.json
	dune exec bin/hipstr_cli.exe -- cmp-run gobmk bzip2 mcf --no-decode-cache \
	  --quantum 2000 --verify -j 4 --metrics-out /tmp/hipstr-interp-j4.json
	cmp /tmp/hipstr-interp-j1.json /tmp/hipstr-interp-j4.json
	dune exec bin/hipstr_cli.exe -- cmp-run gobmk bzip2 mcf \
	  --quantum 2000 --verify -j 1 --metrics-out /tmp/hipstr-interp-fast.json
	cmp /tmp/hipstr-interp-j1.json /tmp/hipstr-interp-fast.json
	dune exec bin/hipstr_cli.exe -- run gobmk --mode hipstr \
	  --state-out /tmp/hipstr-interp-fast.dump
	dune exec bin/hipstr_cli.exe -- run gobmk --mode hipstr --no-decode-cache \
	  --state-out /tmp/hipstr-interp-oracle.dump
	cmp /tmp/hipstr-interp-fast.dump /tmp/hipstr-interp-oracle.dump
	dune exec tools/json_check.exe -- /tmp/hipstr-interp-j1.json

# The fleet serving subsystem end-to-end: one seeded open-loop trace
# served at -j 1 and -j 4 with metrics and audit exports demanded
# byte-identical (the fleet determinism contract). The fleet
# determinism suite and the fleet sweep (BENCH_fleet.json, generated
# at -j 1 and at -j 2) run in `dune runtest`.
fleet-smoke:
	dune exec bin/hipstr_cli.exe -- fleet-run --procs 48 --arrival poisson:50 \
	  --mix 60,20,10,10 --policy security-first --mode psr --shards 4 -j 1 \
	  --metrics-out /tmp/hipstr-fleet-j1.json --audit-out /tmp/hipstr-fleet-j1.jsonl
	dune exec bin/hipstr_cli.exe -- fleet-run --procs 48 --arrival poisson:50 \
	  --mix 60,20,10,10 --policy security-first --mode psr --shards 4 -j 4 \
	  --metrics-out /tmp/hipstr-fleet-j4.json --audit-out /tmp/hipstr-fleet-j4.jsonl
	cmp /tmp/hipstr-fleet-j1.json /tmp/hipstr-fleet-j4.json
	cmp /tmp/hipstr-fleet-j1.jsonl /tmp/hipstr-fleet-j4.jsonl
	dune exec tools/json_check.exe -- /tmp/hipstr-fleet-j1.json /tmp/hipstr-fleet-j1.jsonl

# The time-resolved telemetry layer end-to-end: an attack-heavy
# bursty fleet run emitting the windowed timeline (JSON + CSV, with
# an SLO section) at -j 1 and -j 4, both artifacts demanded
# byte-identical (the deterministic-timeline contract; --hostprof is
# deliberately absent here because host allocation is not
# deterministic), json_check validating the hipstr-timeline/1 schema.
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

# Checkpoint/restore + live migration end-to-end: a gobmk run that
# checkpoints once mid-flight whose full state dump (outcome, output,
# cycle bits, every counter and histogram) is demanded byte-identical
# to restoring that snapshot and running to completion; then a fleet
# run rebalancing every wave at -j 1 and -j 4 with metrics and audit
# exports demanded byte-identical (live migration rides the same
# post-barrier determinism contract). The snapshot suite and the
# migration-cost decomposition (BENCH_migrate.json) run in
# `dune runtest`.
migrate-smoke:
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
	dune exec tools/json_check.exe -- /tmp/hipstr-migrate-j1.json

# The allocation-free hot loop end-to-end. First an object-code gate:
# no function in lib/machine (dispatch, cache probes, branch
# predictor, RAT) may reference a C generic compare or Stdlib's
# polymorphic min/max, each of which costs a C call per use; the gate
# names every function that does and fails, with no allowlist. Then a
# gobmk/hipstr run with host allocation profiling on, and a
# 200-connection hipstr fleet at -j 1, each asserting minor GC words
# per retired instruction stays within its budget. Both counts repeat
# exactly in a dev build (0.737 and 47.190; the hot loop itself is
# allocation-free, the residue is boot, block decode, translation,
# migration edges and the profiler's own bookkeeping), and each
# budget is its measured value plus under 5%, so a few percent of
# allocation creep fails.
MACHINE_OBJS = _build/default/lib/machine/.hipstr_machine.objs/native
POLY_COMPARE = ^(caml_(equal|notequal|compare|lessequal|lessthan|greaterequal|greaterthan)|camlStdlib[.](min|max)_[0-9]+)$$

alloc-smoke:
	dune build @lib/machine/all
	@objs=$$(ls $(MACHINE_OBJS)/*.o 2>/dev/null); \
	if [ -z "$$objs" ]; then echo "alloc-smoke: no objects in $(MACHINE_OBJS)"; exit 1; fi; \
	bad=$$(objdump -dr $$objs | awk -v re='$(POLY_COMPARE)' ' \
	  /^[0-9a-f]+ <.*>:$$/ { fn = $$2; sub(/^<camlHipstr_machine__/, "", fn); \
	    sub(/>:$$/, "", fn); sub(/_[0-9]+$$/, "", fn); next } \
	  /R_X86_64_/ { s = $$NF; sub(/[-+]0x[0-9a-f]+$$/, "", s); \
	    if (s ~ re && !seen[fn " " s]++) print "  " fn " references " s }'); \
	if [ -n "$$bad" ]; then \
	  echo "alloc-smoke: lib/machine calls a polymorphic compare:"; echo "$$bad"; exit 1; fi; \
	echo "alloc-smoke: no polymorphic compare in $$(echo $$objs | wc -w) lib/machine objects"
	dune exec bin/hipstr_cli.exe -- run gobmk --mode hipstr \
	  --hostprof --assert-alloc 0.77
	dune exec bin/hipstr_cli.exe -- fleet-run --procs 200 --arrival poisson:100 \
	  --mode hipstr --shards 4 -j 1 --hostprof --assert-alloc 49.5

check: build test fuzz wire-gate inline-gate cmp-smoke profile-smoke cache-smoke interp-smoke alloc-smoke fleet-smoke timeline-smoke migrate-smoke

clean:
	dune clean
