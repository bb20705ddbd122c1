#!/usr/bin/env bash
# Same-host A/B of the repository benchmark: this checkout against a
# base checkout of the same repository, on one machine.
#
#   .github/scripts/perf-ab.sh BASE_DIR
#
# For each workload that BENCHMARK.json lists, throw away one
# `--seconds 1` warm-up run per side, then run 6
# base/change pairs of `perfbench/run.py --trace 0 --seconds 3`, then 3
# traced pairs; each side runs its own perfbench/run.py against its own
# src/.  `perf record` turns each
# side's runs into one profile and refuses any run whose `failed` is
# not 0: fresh/<w>.base.json, recorded with the base's ledger path so
# its provenance names the base commit, and fresh/<w>.json.  Then
# `perf diff` names the layers that moved and `perf check` gates the
# change on the base.  The end-to-end labels are `absolute`; the two
# profile files are one paired A/B and both name this host, so they
# gate.  Exit status 1 when any workload fails its check.
set -euo pipefail
shopt -s inherit_errexit

base=$1
workloads=$(python3 -c 'import json
print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
pairs=6
traced=3
seconds=3

export PYTHONPATH=src
mkdir -p fresh/runs
run() {  # run SIDE_DIR SIDE_NAME WORKLOAD SEED TRACE
  local out="fresh/runs/$3.$2.trace$5.seed$4.out"
  timeout 300 python3 "$1/perfbench/run.py" --workload "$3" --seed "$4" \
    --seconds "$seconds" --trace "$5" > "$out"
  echo "$out"
}
# A discarded run: the first run in a fresh checkout compiles the
# .bench_build/ bytecode cache into its setup_s.
warm() {  # warm SIDE_DIR WORKLOAD
  timeout 300 python3 "$1/perfbench/run.py" --workload "$2" --seed 1 \
    --seconds 1 --trace 0 > /dev/null
}
# One base and one change run on the same seed.  The side that runs
# first alternates with the seed: in runs where the base always went
# first, the second run of a pair read about 2% faster.
pair() {  # pair WORKLOAD SEED TRACE
  if [ $(($2 % 2)) -eq 1 ]; then
    base_runs+=("$(run "$base" base "$1" "$2" "$3")")
    change_runs+=("$(run . change "$1" "$2" "$3")")
  else
    change_runs+=("$(run . change "$1" "$2" "$3")")
    base_runs+=("$(run "$base" base "$1" "$2" "$3")")
  fi
}

status=0
for w in $workloads; do
  base_runs=()
  change_runs=()
  warm "$base" "$w"
  warm . "$w"
  for seed in $(seq 1 "$pairs"); do
    pair "$w" "$seed" 0
  done
  for seed in $(seq 1 "$traced"); do
    pair "$w" "$seed" 1
  done
  python -m repro.cli perf record --suite "$w" --ledger "$base/BENCH_history" \
    --no-append -o "fresh/$w.base.json" "${base_runs[@]}"
  python -m repro.cli perf record --suite "$w" --no-append \
    -o "fresh/$w.json" "${change_runs[@]}"
  # The diff only reports; the check below decides.
  python -m repro.cli perf diff "fresh/$w.base.json" "fresh/$w.json" \
    -o "fresh/$w.diff.txt"
  python -m repro.cli perf check --baseline "fresh/$w.base.json" \
    --candidate "fresh/$w.json" -o "fresh/$w.check.txt" || status=1
done
exit "$status"
