#!/bin/sh
# Repository check: formatting (when ocamlformat is available), build, tests.
# Exits non-zero on the first failure.
set -eu

cd "$(dirname "$0")/.."

if command -v ocamlformat >/dev/null 2>&1; then
  echo "== dune fmt (check) =="
  dune build @fmt 2>/dev/null || {
    echo "formatting check failed; run 'dune fmt' to fix" >&2
    exit 1
  }
else
  echo "== ocamlformat not installed; skipping format check =="
fi

echo "== dune build =="
dune build

echo "== dune runtest =="
dune runtest

echo "== bench smoke (JSON schema) =="
BENCH_OUT=$(mktemp /tmp/bench_smoke.XXXXXX.json)
trap 'rm -f "$BENCH_OUT"' EXIT
BENCH_REV=ci-smoke dune exec bench/main.exe -- --json "$BENCH_OUT" table1 concurrency health shard groupcommit olc >/dev/null
if command -v python3 >/dev/null 2>&1; then
  python3 - "$BENCH_OUT" <<'EOF'
import json, sys

with open(sys.argv[1]) as f:
    doc = json.load(f)

assert doc["schema_version"] == 7, "unexpected schema_version"
assert doc["revision"] == "ci-smoke", "BENCH_REV not propagated"
exps = doc["experiments"]
assert exps, "no experiments recorded"
for name, e in exps.items():
    assert isinstance(e["rows"], list) and e["rows"], "%s: no rows" % name
conc = exps["concurrency"]
for path in [
    ("io", "reads"),
    ("pager", "hits"),
    ("lock", "acquires"),
    ("lock", "scan_steps"),
    ("engine", "ticks"),
]:
    v = conc[path[0]][path[1]]
    assert isinstance(v, int) and v > 0, "%s.%s should be a positive int, got %r" % (*path, v)
assert conc["wall_clock_s"] >= 0.0
assert isinstance(conc["lock"]["instant_checks"], int), "lock.instant_checks missing"

def by(exp, col):
    """An experiment's rows keyed by the value of one column."""
    return {r[col]: r for r in exps[exp]["rows"]}

# Health: one row per sampled snapshot (integer sample index), then the
# before/after summary rows.
series = [r for r in exps["health"]["rows"] if isinstance(r["sample"], int)]
assert series, "health experiment recorded no samples"
prev = -1
for snap in series:
    assert snap["tick"] >= prev, "sampled logical clock went backwards"
    prev = snap["tick"]
    assert 0.0 <= snap["util"] <= 1.0, "utilization outside [0,1]"
    assert 0.0 <= snap["frag"] <= 1.0, "fragmentation outside [0,1]"
    assert snap["leaves"] >= 0 and snap["backlog"] >= 0
fired = [w for snap in series for w in snap["watch fired"].split()]
assert fired, "no watch fired across the sparsification run"

# Shard: one row per shard count; 4 shards must reach <= 0.6x the 1-shard
# parallel makespan, and the mixed phase must commit user work.
shards = by("shard", "shards")
assert 1 in shards and 4 in shards, "sweep must include 1 and 4 shards"
for n, pt in shards.items():
    assert pt["makespan"] > 0 and pt["mixed ticks"] > 0
    assert pt["committed"] > 0, "mixed phase committed no user transactions at %d shards" % n
ratio = shards[4]["makespan"] / shards[1]["makespan"]
assert ratio <= 0.6, "4-shard makespan ratio %.2f exceeds 0.6" % ratio

# Groupcommit: the pipelined arm must force strictly less and write more
# sequentially than the sync arm at the identical workload.
arms = by("groupcommit", "arm")
sync, piped = arms["sync"], arms["pipelined"]
assert piped["forces"] < sync["forces"], (
    "group commit did not reduce wal.forced: %d vs %d" % (piped["forces"], sync["forces"]))
assert piped["gc batches"] > 0 and piped["coalesced"] >= piped["gc batches"], \
    "pipelined arm batched no commits"
assert piped["max batch"] >= 2, "no force covered more than one commit"
assert sync["gc batches"] == 0, "sync arm must not group-commit"
def seq_ratio(a):
    return a["seq w"] / max(1, a["rand w"])
assert seq_ratio(piped) > seq_ratio(sync), (
    "elevator did not improve the seq/rand write ratio: %.3f vs %.3f"
    % (seq_ratio(piped), seq_ratio(sync)))
assert piped["ckpts"] > 0, "no fuzzy checkpoint taken"
assert piped["wal trunc"] > 0, "checkpoints reclaimed no WAL records"
assert piped["commits"] > 0 and sync["commits"] > 0

# OLC: the optimistic arm must do the same reads (identical digests), take
# no more ticks than the locked arm, shed at least 70% of the locked arm's
# S acquires, and show the fallback path.
oarms = by("olc", "arm")
locked, olc = oarms["locked"], oarms["olc"]
assert locked["reads"] == olc["reads"] > 0, "arms read different operation counts"
assert locked["scans"] == olc["scans"] > 0
assert locked["digest"] == olc["digest"], (
    "optimistic results diverge from locked results: %08x vs %08x"
    % (locked["digest"], olc["digest"]))
assert olc["ticks"] <= locked["ticks"], (
    "OLC arm took longer than the locked arm: %d vs %d ticks"
    % (olc["ticks"], locked["ticks"]))
assert locked["olc reads"] == 0, "locked arm took the optimistic path"
assert olc["olc reads"] > 0, "olc arm committed no optimistic reads"
s_ratio = olc["S acq"] / max(1, locked["S acq"])
assert s_ratio <= 0.30, (
    "OLC arm kept %.2fx of the locked arm's S acquires (want <= 0.30x: %d vs %d)"
    % (s_ratio, olc["S acq"], locked["S acq"]))
assert olc["fallbacks"] > 0, "no optimistic read ever fell back to the locked path"
assert olc["probes"] > 0, "no non-enqueuing RX probe recorded"
assert olc["bumps"] > 0 and locked["bumps"] > 0

print("bench JSON OK: %d experiment(s), %d health sample(s), watch fires: %s, "
      "shard sweep %s (4/1 makespan %.2f), groupcommit forces %d->%d, "
      "seq/rand writes %.2f->%.2f, olc S acquires %d->%d (%.2fx, digests equal)"
      % (len(exps), len(series), ",".join(sorted(set(fired))),
         sorted(shards), ratio, sync["forces"], piped["forces"],
         seq_ratio(sync), seq_ratio(piped),
         locked["S acq"], olc["S acq"], s_ratio))
EOF
else
  echo "python3 not available; skipping JSON validation" >&2
fi
echo "== bench rejects an unknown target =="
set +e
dune exec bench/main.exe -- tabel1 >/dev/null 2>&1
rc=$?
set -e
test "$rc" -ne 0 || { echo "bench: unknown target exited 0" >&2; exit 1; }

echo "== torture sweep =="
dune exec bin/reorg_cli.exe -- torture --seed 11 --stride 1 -n 120 >/dev/null
dune exec bin/reorg_cli.exe -- torture --seed 42 --stride 1 -n 120 >/dev/null
echo "== torture sweep (async pipeline: group-commit windows, checkpoint truncation) =="
dune exec bin/reorg_cli.exe -- torture --seed 11 --stride 7 -n 120 --users 2 --pipeline >/dev/null
dune exec bin/reorg_cli.exe -- torture --seed 42 --stride 7 -n 120 --users 2 --pipeline >/dev/null
echo "== torture sweep (optimistic readers: crashes inside lock-free descents) =="
dune exec bin/reorg_cli.exe -- torture --seed 7 --stride 17 -n 120 --users 2 --olc >/dev/null
echo "== torture rejects --stride 0 as a usage error (exit 124) =="
set +e
dune exec bin/reorg_cli.exe -- torture --stride 0 >/dev/null 2>&1
rc=$?
set -e
test "$rc" -eq 124 || { echo "torture --stride 0: expected exit 124, got $rc" >&2; exit 1; }
echo "torture OK"

echo "== model conformance =="
dune exec bin/reorg_cli.exe -- model --seeds 11,23,42 --experiments workload
dune exec bin/reorg_cli.exe -- model --seeds 11 --experiments torture,shard --stride 1 -n 120
dune exec bin/reorg_cli.exe -- model --seeds 11 --experiments torture --stride 7 -n 120 --pipeline
dune exec bin/reorg_cli.exe -- model --seeds 11,23 --experiments workload --olc
dune exec bin/reorg_cli.exe -- model --seeds 7 --experiments torture --stride 29 -n 120 --olc
echo "== model mutation self-tests (must exit 2) =="
# mutate NAME [GUARD]: the mutated run must exit 2 and, when GUARD is given,
# report a violation of that guard, so it is caught for its own reason.
mutate() {
  set +e
  out=$(dune exec bin/reorg_cli.exe -- model --mutate "$1")
  rc=$?
  set -e
  test "$rc" -eq 2 || { echo "mutate $1: expected exit 2, got $rc" >&2; exit 1; }
  if [ $# -eq 2 ]; then
    printf '%s\n' "$out" | grep -q "guard '$2'" \
      || { echo "mutate $1: no violation of guard '$2'" >&2; exit 1; }
  fi
}
mutate table1 table1-compatible-with-other-holders
mutate switch ck-advances-before-s-release
# The olc self-test exits 2 for another reason: its 20 violations are
# unit-not-already-begun and unit-id-fence-ascends (its seeds share one
# checker), none olc-read.  See the FOUND line on mutate_olc in CHANGES.md.
mutate olc
echo "model OK"

echo "All checks passed."
