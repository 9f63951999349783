#!/usr/bin/env bash
# A/B timing of one command on two trees: a git revision and the
# working tree.
#
#   bench/ab.sh [-n N] REV -- CMD [ARG...]
#
# REV is extracted with `git archive` into a temporary directory, and
# both trees are built with `dune build`. CMD then runs N times in each
# tree (default 10), alternating, and the tree that goes first swaps on
# every pair. Each run's last stdout line must be a JSON object with a
# "metrics" member mapping names to numbers or to {"value": number}
# objects, and may have a "failed" count (perfbench/run.py prints such
# a line); the line is echoed to stderr. Each metric gets the median and
# quartiles of both sides and the number of pairs in which the working
# tree read lower. An argument "{pair}" in CMD is replaced
# by the pair number (1..N), so pairs can use distinct seeds:
#
#   bench/ab.sh -n 10 HEAD -- python3 perfbench/run.py \
#     --workload office-cli --seed {pair} --seconds 20
#
# Run it from the repository root. The temporary tree is removed on exit.
set -euo pipefail

n=10
if [ "${1:-}" = "-n" ]; then
  n=$2
  shift 2
fi
if [ $# -lt 3 ] || [ "$2" != "--" ]; then
  echo "usage: bench/ab.sh [-n N] REV -- CMD [ARG...]" >&2
  exit 2
fi
rev=$1
shift 2

work=$(pwd)
base=$(mktemp -d -t ab_base.XXXXXX)
runs=$(mktemp -d -t ab_runs.XXXXXX)
trap 'rm -rf "$base" "$runs"' EXIT INT TERM

git archive "$rev" | tar -x -C "$base"
for tree in "$base" "$work"; do
  (cd "$tree" && dune build 2>&1) || {
    echo "ab.sh: build failed in $tree" >&2
    exit 1
  }
done

# run SIDE TREE PAIR: one run of CMD in TREE; its last line goes to
# $runs/SIDE.PAIR.
run() {
  local side=$1 tree=$2 pair=$3 args=() a
  for a in "${cmd[@]}"; do args+=("${a//\{pair\}/$pair}"); done
  echo "ab.sh: pair $pair, $side" >&2
  (cd "$tree" && "${args[@]}") | tail -n 1 > "$runs/$side.$pair"
  cat "$runs/$side.$pair" >&2
}

cmd=("$@")
for pair in $(seq "$n"); do
  if [ $((pair % 2)) -eq 1 ]; then
    run base "$base" "$pair"
    run work "$work" "$pair"
  else
    run work "$work" "$pair"
    run base "$base" "$pair"
  fi
done

python3 - "$runs" "$n" "$rev" <<'EOF'
import json, os, statistics, sys

runs, n, rev = sys.argv[1], int(sys.argv[2]), sys.argv[3]

def metrics(side, pair):
    with open(os.path.join(runs, f"{side}.{pair}")) as f:
        line = json.loads(f.read())
    out = {k: v["value"] if isinstance(v, dict) else v
           for k, v in line["metrics"].items()}
    if "failed" in line:
        out["failed"] = line["failed"]
    return out

pairs = [(metrics("base", p), metrics("work", p)) for p in range(1, n + 1)]
names = sorted(set().union(*(set(b) | set(w) for b, w in pairs)))

def summary(xs):
    if len(xs) < 2:
        return f"{xs[0]:.4g}" if xs else "-"
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return f"{med:.4g} [{q1:.4g}, {q3:.4g}]"

print(f"{n} pairs; median [quartiles] of {rev} (base) and the working tree")
print(f"{'metric':<28} {'base':>28} {'work':>28}  work lower")
for name in names:
    both = [(b[name], w[name]) for b, w in pairs if name in b and name in w]
    base = [b for b, _ in both]
    work = [w for _, w in both]
    lower = sum(1 for b, w in both if w < b)
    print(f"{name:<28} {summary(base):>28} {summary(work):>28}  "
          f"{lower}/{len(both)}")
EOF
