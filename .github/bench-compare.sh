#!/usr/bin/env bash
# The performance gate: BASE_REF against the checkout this script sits in,
# on the fabric benchmark (benchmark/README.md). Both sides run every
# workload once per seed, back to back and alternating which goes first
# (the box drifts; interleaved sets drift alike), then the benchmark's own
# -compare judges the two sets: exit 1 only when a row is `regressed`. CI
# calls it with the pull request's base; run it by hand against the parent
# commit before writing "no regression".
#
#   .github/bench-compare.sh BASE_REF [SEEDS=5] [SECONDS=5]
set -euo pipefail
base_ref="${1:?usage: bench-compare.sh BASE_REF [SEEDS] [SECONDS]}"
seeds="${2:-5}" seconds="${3:-5}"
head="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/src"
git -C "$head" archive "$base_ref" | tar -x -C "$tmp/src"

run() { # run base|head WORKLOAD SEED: each side builds inside its own tree
  local root="$head"
  [ "$1" = base ] && root="$tmp/src"
  bash "$root/benchmark/run.sh" --workload "$2" --seed "$3" --seconds "$seconds" \
    -out "$tmp/$1" >/dev/null 2>"$tmp/$1.err" || { cat "$tmp/$1.err" >&2; exit 1; }
}
for seed in $(seq 1 "$seeds"); do
  for w in ckpt_stream small_rw shared_fair meta_churn; do
    if ((seed % 2)); then run base "$w" "$seed"; run head "$w" "$seed"
    else run head "$w" "$seed"; run base "$w" "$seed"; fi
  done
done
grep '^env ' "$tmp/head.err" || true
echo "first = $base_ref, second = $(git -C "$head" describe --always --dirty); $seeds seeds x $seconds s"
bash "$head/benchmark/run.sh" -compare "$tmp/base/runs.jsonl" "$tmp/head/runs.jsonl"
