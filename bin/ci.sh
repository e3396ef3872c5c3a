#!/bin/sh
# CI smoke check: lint + build + full test suite (with the test/cli.t
# cram suite), then an end-to-end run of every bench/main.exe subcommand.
set -eu
cd "$(dirname "$0")/.."

# Static analysis first: determinism & hygiene rules plus the
# interprocedural domain-safety (race), packet-ownership / allocation-
# effect / time-taint (own) and units-of-measure (dim) passes, all over
# one parse (see LINT.md).  Fails on any error-severity finding;
# LINT.json sits next to the BENCH_*.json records for trend tracking
# (per-pass wall times under timings_ms).
dune build @lint
dune exec bin/leotp_lint.exe -- --quiet --json LINT.json lib bench bin

# The rules table in LINT.md is generated: it must match the registry
# (`--rules --markdown`) byte for byte, so a new or reworded rule that
# skips the docs fails CI here.
dune exec bin/leotp_lint.exe -- --rules --markdown > "$(pwd)/_rules.md.tmp"
awk '/<!-- rules:begin -->/{f=1;next} /<!-- rules:end -->/{f=0} f' LINT.md \
  | diff -u - _rules.md.tmp || {
  rm -f _rules.md.tmp
  echo "ci.sh: LINT.md rules table is stale; regenerate with" >&2
  echo "  dune exec bin/leotp_lint.exe -- --rules --markdown" >&2
  exit 1
}
rm -f _rules.md.tmp

dune build @runtest

# Dynamic backstop for the static race pass: it cannot follow thunks
# stored in data structures (Runner.map job lists), so re-run the
# parallel-determinism tests on 2 worker domains as well.
LEOTP_TEST_JOBS=2 dune exec test/test_scenario.exe -- test harness
LEOTP_TEST_JOBS=2 dune exec test/test_faults.exe -- test determinism

# Perf smoke + regression gate: the quick figure subset writes its
# BENCH_*.json records and the gate checks each bench/baselines.json
# entry (record id, field, direction, baseline, tolerance) against them,
# printing one line per record and exiting non-zero, naming the
# offending field, on any regression beyond the tolerance band.
out_dir="$(mktemp -d)"
trap 'rm -rf "$out_dir"' EXIT
smoke_ids="fig3 fig10 fig12 pathtrace"
dune exec bench/main.exe -- fig --quick --jobs 2 --out-dir "$out_dir" \
  --gate bench/baselines.json $smoke_ids

echo "=== perf smoke records ==="
for id in $smoke_ids; do
  test -s "$out_dir/BENCH_$id.json" || {
    echo "ci.sh: missing perf record BENCH_$id.json" >&2
    exit 1
  }
  cat "$out_dir/BENCH_$id.json"
done

# Invariant smoke: the Starlink emulation and the trace replays share
# the single-flow runner, so --check attaches the five invariants to
# every one of their runs (a violation exits non-zero).
dune exec bench/main.exe -- fig --quick --check --jobs 2 --out-dir "$out_dir" \
  fig16 pathtrace

# Path-trace smoke: generate a short bent-pipe TRACE_PATH timeline, then
# replay the written file with the invariant checker attached.  Both runs
# print the packet-trace digest, and they must match — the bit-identical
# replay guarantee (see EXPERIMENTS.md, "Trace-driven paths").
gen_out="$(dune exec bench/main.exe -- pathtrace gen \
  --trace-file "$out_dir/TRACE_path.jsonl" --pair "Beijing:Shanghai" \
  --bent-pipe --horizon 60 --step 1 --route-epoch 1)"
printf '%s\n' "$gen_out"
replay_out="$(dune exec bench/main.exe -- pathtrace replay \
  --trace-file "$out_dir/TRACE_path.jsonl" --check)"
printf '%s\n' "$replay_out"
gen_digest="$(printf '%s\n' "$gen_out" | sed -n 's/^  digest //p')"
replay_digest="$(printf '%s\n' "$replay_out" | sed -n 's/^  digest //p')"
if [ -z "$gen_digest" ] || [ "$gen_digest" != "$replay_digest" ]; then
  echo "ci.sh: path-trace digest mismatch (gen='$gen_digest'" \
    "replay='$replay_digest')" >&2
  exit 1
fi

# Many-flow smoke: ~500 open-loop flows over the live constellation
# with the invariant checker attached, gated on the headline
# flow_sim_seconds_per_wall_second metric (higher is better; the floor
# in bench/baselines.json has its own generous tolerance band).  The
# combined digest must be identical for any --jobs: test/witness.t
# (part of @runtest above) pins it at --jobs 1 and --jobs 2.
dune exec bench/main.exe -- manyflow 500 --seed 1 --check --jobs 2 \
  --out-dir "$out_dir" --gate bench/baselines.json
test -s "$out_dir/BENCH_manyflow.json" || {
  echo "ci.sh: missing perf record BENCH_manyflow.json" >&2
  exit 1
}

# Fault lab: a seeded random fault schedule over a LEOTP transfer, with
# the five trace invariants checked (non-zero exit on any violation).
dune exec bench/main.exe -- faults --quick --out-dir "$out_dir" random:7:12

# Oracle fuzz sweep: 25 random scenarios x (LEOTP + every TCP variant)
# replayed against the differential sender model and per-CC semantic
# oracles (see EXPERIMENTS.md).  Exits non-zero on any divergence,
# printing a fuzz-replay command for each shrunk failure.
dune exec bench/main.exe -- fuzz 25 --seed 7 --jobs 2

# Single scenarios: a fixed transfer over a lossy chain, a route table.
dune exec bench/main.exe -- sim path --hops 5 --plr 0.01 --bytes 10000000
dune exec bench/main.exe -- sim route Beijing Paris -d 300

echo "ci.sh: OK"
