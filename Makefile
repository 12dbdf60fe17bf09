.PHONY: all build test check bench bench-json perf-ab bench-same health shard groupcommit olc torture model clean

all: build

build:
	dune build

test:
	dune runtest

# Full gate: format check (if ocamlformat is installed) + build + tests.
check:
	sh ci/check.sh

bench:
	dune exec bench/main.exe

# Machine-readable baseline: every experiment's table and counters, written
# to BENCH_<rev>.json (schema documented in EXPERIMENTS.md).  Commit the file
# to give the next performance PR a before/after datapoint.
bench-json:
	REV=$$(git rev-parse --short HEAD) && \
	BENCH_REV=$$REV dune exec bench/main.exe -- --json BENCH_$$REV.json

# Interleaved perfbench A/B: BASE (default HEAD) against the working tree,
# PAIRS pairs per workload (default 10), all workloads unless WORKLOADS is
# set.  Outputs stay under .bench_out/ab/; ends with `perf.exe compare`.
#   make perf-ab BASE=main WORKLOADS=reads-during-reorg
BASE ?= HEAD
perf-ab:
	sh ci/perf_ab.sh $(BASE) $(WORKLOADS)

# Determinism check: BASE (default HEAD) against the working tree.  Runs
# every bench experiment (--json) and a stride-1 torture sweep on both,
# diffs the JSON ignoring only wall clocks and provenance, compares the
# torture output byte for byte, and fails on any difference.
#   make bench-same BASE=main
bench-same:
	sh ci/bench_same.sh $(BASE)

# Online tree-health telemetry demo: sparsify a tree, reorganize it, and
# print the sampled utilization/fragmentation series with watch fires.
health:
	dune exec bench/main.exe -- health

# Keyspace-sharded engine: the 1/2/4/8-shard makespan sweep (S1), then a
# sharded workload through the router and cross-shard 2PL coordinator.
shard:
	dune exec bench/main.exe -- shard
	dune exec bin/reorg_cli.exe -- workload --shards 4 --users 6 -n 1200

# Group commit + async I/O pipeline: the sync-vs-pipelined G1 table, then
# crash sweeps with the pipeline attached (boundaries inside group-commit
# windows, fuzzy checkpoints truncating the WAL mid-workload).
groupcommit:
	dune exec bench/main.exe -- groupcommit
	dune exec bin/reorg_cli.exe -- torture --seed 11 --stride 7 -n 120 --users 2 --pipeline
	dune exec bin/reorg_cli.exe -- model --seeds 11 --experiments torture --stride 7 -n 120 --pipeline

# Optimistic read path: the locked-vs-OLC R1 table (S acquires collapse,
# digests identical), crash sweeps with optimistic readers (crashes land
# inside lock-free descents; the epoch invalidates parked readers), and the
# conformance runs including the skipped-version-bump mutation self-test.
olc:
	dune exec bench/main.exe -- olc
	dune exec bin/reorg_cli.exe -- torture --seed 7 --stride 17 --users 2 --olc
	dune exec bin/reorg_cli.exe -- model --seeds 11,23 --experiments workload --olc
	dune exec bin/reorg_cli.exe -- model --seeds 7 --experiments torture --stride 29 -n 120 --olc
	dune exec bin/reorg_cli.exe -- model --mutate olc; test $$? -eq 2

# Exhaustive crash-point sweep: crash at every write boundary on three seeds,
# recover forward, verify.  Fast (in-memory disk), run it before shipping
# anything that touches the pager, WAL or recovery.
torture:
	dune exec bin/reorg_cli.exe -- torture --seed 11 --stride 1 -n 120
	dune exec bin/reorg_cli.exe -- torture --seed 23 --stride 1 -n 120
	dune exec bin/reorg_cli.exe -- torture --seed 42 --stride 1 -n 120
	dune exec bin/reorg_cli.exe -- torture --seed 7 --stride 17 --users 2

# Protocol-model conformance: replay the seeded workloads and the stride-1
# crash sweep through the lib/model state machines, then prove the checker
# bites by running both mutation self-tests (which must exit 2).
model:
	dune exec bin/reorg_cli.exe -- model --seeds 11,23,42 --experiments workload
	dune exec bin/reorg_cli.exe -- model --seeds 11 --experiments torture,shard --stride 1 -n 120
	dune exec bin/reorg_cli.exe -- model --mutate table1; test $$? -eq 2
	dune exec bin/reorg_cli.exe -- model --mutate switch; test $$? -eq 2

clean:
	dune clean
