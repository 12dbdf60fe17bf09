#!/bin/sh
# Determinism check for changes that must not move any deterministic output:
# a base revision against the working tree.
#
#   ci/bench_same.sh BASE_REV
#
# BASE_REV is exported with `git archive` into .bench_out/same/base-tree and
# built there; the working tree is built in place.  On both trees it runs
#
#   bench/main.exe --json            (every experiment, schema v7)
#   reorg-cli torture --seed 42 --stride 1 -n 120 --metrics
#   reorg-cli reorganize --workers 2 --trace F --metrics
#   reorg-cli workload --trace F --metrics
#   reorg-cli model --seeds 11,23 --experiments workload --olc
#   reorg-cli model --seeds 11 --experiments torture --stride 7 -n 120
#   perfbench/perf.exe --workload W --seed 1 --seconds 1 --trace 1   (each W)
#
# and compares them: the bench JSON field by field, ignoring only the
# wall-clock and provenance fields (wall_clock_s, "wall s",
# generated_at_unix, revision); the CLI outputs and the two Chrome trace
# files byte for byte (the traces, and the process names on their rows, are
# seen by no bench JSON field; the model transcripts' "N events, M tracks"
# count what the protocol checker's subscription received); perfbench's round count, correctness,
# operation counts and every result metric except host times (unit s or
# us), db_mem_mb and trace_overhead_frac.  Bench experiments run on
# Config.paper (locked reads), so the perfbench runs are what pin the
# default, optimistic read path.  Every output is kept under
# .bench_out/same/{base,work}/.  Prints each path that differs and exits 1
# on any difference, 0 when both match.
set -eu

cd "$(dirname "$0")/.."
root=$(pwd)

if [ $# -ne 1 ]; then
  echo "usage: ci/bench_same.sh BASE_REV" >&2
  exit 2
fi
base_rev=$1

out=$root/.bench_out/same
base_tree=$out/base-tree
mkdir -p "$out"
# The base tree is a plain export of BASE_REV (no .git, no worktree entry).
git rev-parse --verify --quiet "$base_rev^{commit}" >/dev/null \
  || { echo "unknown revision: $base_rev" >&2; exit 2; }
rm -rf "$base_tree"
mkdir -p "$base_tree"
git archive "$base_rev" | tar -x -C "$base_tree"
trap 'rm -rf "$base_tree"' EXIT

echo "== building $base_rev and the working tree =="
(cd "$base_tree" && dune build --root . bench/main.exe bin/reorg_cli.exe perfbench/perf.exe)
dune build --root . bench/main.exe bin/reorg_cli.exe perfbench/perf.exe
workloads=$(python3 -c "import json; print(' '.join(w['name'] for w in json.load(open('BENCHMARK.json'))['workloads']))")

# outputs SIDE DIR: the bench JSON, the CLI transcripts and the traces of
# one tree.  The CLI runs inside the output directory with relative trace
# paths, so the "trace: ... -> FILE" lines match across the two trees.
outputs() {
  dest=$out/$1
  rm -rf "$dest"
  mkdir -p "$dest"
  echo "== $1: bench/main.exe --json =="
  (cd "$2" && BENCH_REV=$1 dune exec --root . bench/main.exe -- --json "$dest/bench.json") \
    >"$dest/bench.out" 2>&1
  echo "== $1: torture --seed 42 --stride 1 -n 120 --metrics =="
  (cd "$2" && dune exec --root . bin/reorg_cli.exe -- torture --seed 42 --stride 1 -n 120 \
    --metrics) >"$dest/torture.out" 2>&1
  cli=$2/_build/default/bin/reorg_cli.exe
  echo "== $1: reorganize --workers 2 --trace --metrics =="
  (cd "$dest" && "$cli" reorganize --workers 2 --trace reorganize.trace.json --metrics) \
    >"$dest/reorganize.out" 2>&1
  echo "== $1: workload --trace --metrics =="
  (cd "$dest" && "$cli" workload --trace workload.trace.json --metrics) \
    >"$dest/workload.out" 2>&1
  # A failing model run exits 2; its status joins the compared transcript.
  echo "== $1: model --seeds 11,23 --experiments workload --olc =="
  "$cli" model --seeds 11,23 --experiments workload --olc >"$dest/model-workload.out" 2>&1 \
    || echo "exit $?" >>"$dest/model-workload.out"
  echo "== $1: model --seeds 11 --experiments torture --stride 7 -n 120 =="
  "$cli" model --seeds 11 --experiments torture --stride 7 -n 120 \
    >"$dest/model-torture.out" 2>&1 || echo "exit $?" >>"$dest/model-torture.out"
  for w in $workloads; do
    echo "== $1: perf.exe --workload $w --seed 1 --seconds 1 --trace 1 =="
    (cd "$2" && dune exec --root . perfbench/perf.exe -- --workload "$w" --seed 1 --seconds 1 \
      --trace 1 --trace-file "$dest/perf-$w.trace.json") >"$dest/perf-$w.out" 2>"$dest/perf-$w.err"
  done
}

outputs base "$base_tree"
outputs work "$root"

status=0
echo "== bench JSON: $base_rev (base) vs working tree (work) =="
python3 - "$out/base/bench.json" "$out/work/bench.json" <<'EOF' || status=1
import json, sys

IGNORED = {"wall_clock_s", "wall s", "generated_at_unix", "revision"}
base, work = (json.load(open(p)) for p in sys.argv[1:3])
diffs = []

def walk(path, a, b):
    if isinstance(a, dict) and isinstance(b, dict):
        for k in sorted(set(a) | set(b)):
            if k in IGNORED:
                continue
            p = "%s.%s" % (path, k) if path else k
            if k not in a or k not in b:
                diffs.append("%s: only in %s" % (p, "work" if k in b else "base"))
            else:
                walk(p, a[k], b[k])
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            diffs.append("%s: %d vs %d entries" % (path, len(a), len(b)))
        for i, (x, y) in enumerate(zip(a, b)):
            walk("%s[%d]" % (path, i), x, y)
    elif a != b:
        diffs.append("%s: %r vs %r" % (path, a, b))

walk("", base, work)
for d in diffs:
    print("  differs: " + d)
print("bench JSON: %s" % ("%d path(s) differ" % len(diffs) if diffs else "identical"))
sys.exit(1 if diffs else 0)
EOF

for w in $workloads; do
  echo "== perf.exe --workload $w =="
  python3 - "$w" "$out/base/perf-$w.out" "$out/work/perf-$w.out" <<'EOF' || status=1
import json, sys

# Host-time figures differ run to run; everything else is a function of the seed.
IGNORED = {"db_mem_mb", "trace_overhead_frac"}
HOST_UNITS = {"s", "us"}

def pinned(path):
    desc, result = (json.loads(l) for l in open(path).read().splitlines()[:2])
    fields = {"rounds": desc["rounds"]}
    fields.update((k, result[k]) for k in ("correct", "attempted", "failed"))
    for name, m in result["metrics"].items():
        if name not in IGNORED and m["unit"] not in HOST_UNITS:
            fields[name] = m["value"]
    return fields

base, work = (pinned(p) for p in sys.argv[2:4])
diffs = ["%s: %r vs %r" % (k, base.get(k), work.get(k))
         for k in sorted(set(base) | set(work)) if base.get(k) != work.get(k)]
for d in diffs:
    print("  differs: " + d)
print("perf %s: %s" % (sys.argv[1], "%d metric(s) differ" % len(diffs) if diffs else "identical"))
sys.exit(1 if diffs else 0)
EOF
done

for f in torture.out reorganize.out reorganize.trace.json workload.out workload.trace.json \
  model-workload.out model-torture.out; do
  echo "== $f =="
  if cmp -s "$out/base/$f" "$out/work/$f"; then
    echo "$f: identical"
  else
    echo "  differs: $out/base/$f vs $out/work/$f"
    diff "$out/base/$f" "$out/work/$f" | head -20 | cut -c1-200 || true
    status=1
  fi
done

if [ "$status" -eq 0 ]; then
  echo "bench-same: $base_rev and the working tree agree"
else
  echo "bench-same: outputs differ from $base_rev" >&2
fi
exit "$status"
