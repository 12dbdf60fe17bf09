#!/bin/sh
# Interleaved A/B runs of the perfbench benchmark: a base revision against
# the working tree.
#
#   ci/perf_ab.sh BASE_REV [WORKLOAD...]
#
# BASE_REV is exported with `git archive` into .bench_out/ab/base-tree and
# built there; the working tree is built in place.  For each workload (default:
# every workload in BENCHMARK.json) it runs PAIRS pairs (default 10), one
# seed per pair, alternating which side runs first, with the command and
# run_seconds from BENCHMARK.json.  Every run's output is kept under
# .bench_out/ab/<workload>/{base,work}/seed-<n>.out, and the script ends by
# printing `perf.exe compare base -- work` over all of them.
#
# Environment: PAIRS (default 10).
set -eu

cd "$(dirname "$0")/.."
root=$(pwd)

if [ $# -lt 1 ]; then
  echo "usage: ci/perf_ab.sh BASE_REV [WORKLOAD...]" >&2
  exit 2
fi
base_rev=$1
shift

spec() { python3 -c "import json; d=json.load(open('BENCHMARK.json')); $1"; }
command=$(spec "print(' '.join(d['command']))")
seconds=$(spec "print(d['run_seconds'])")
pairs=${PAIRS:-10}
if [ $# -gt 0 ]; then
  workloads=$*
else
  workloads=$(spec "print(' '.join(w['name'] for w in d['workloads']))")
fi

out=$root/.bench_out/ab
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
(cd "$base_tree" && dune build --root . perfbench/perf.exe)
dune build --root . perfbench/perf.exe

# run SIDE DIR WORKLOAD SEED: one benchmark run, output kept.
run() {
  dest=$out/$3/$1
  mkdir -p "$dest"
  (cd "$2" && BENCH_REV=$1 $command --workload "$3" --seed "$4" --seconds "$seconds" \
    --trace 0) >"$dest/seed-$4.out" 2>"$dest/seed-$4.err" \
    || echo "   $1 seed $4 exited $?" >&2
}

for w in $workloads; do
  rm -rf "${out:?}/$w"
  n=1
  while [ "$n" -le "$pairs" ]; do
    echo "== $w pair $n/$pairs =="
    if [ $((n % 2)) -eq 1 ]; then
      run base "$base_tree" "$w" "$n"
      run work "$root" "$w" "$n"
    else
      run work "$root" "$w" "$n"
      run base "$base_tree" "$w" "$n"
    fi
    n=$((n + 1))
  done
done

echo "== perf.exe compare: $base_rev (A) vs working tree (B) =="
a= b=
for w in $workloads; do
  a="$a $out/$w/base/*.out"
  b="$b $out/$w/work/*.out"
done
# shellcheck disable=SC2086 # the globs expand here
$command compare $a -- $b
