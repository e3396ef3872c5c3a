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

# @runtest includes test/witness.t, which pins the path-trace gen ->
# replay --check digest and the fault lab's verdicts and trace export.
dune build @runtest

# Dynamic backstop for the static race pass: it cannot follow thunks
# stored in data structures (Runner.map job lists), so re-run the
# parallel-determinism tests on 2 worker domains as well.
LEOTP_TEST_JOBS=2 dune exec test/test_scenario.exe -- test harness
LEOTP_TEST_JOBS=2 dune exec test/test_faults.exe -- test determinism

# Perf smoke + regression gate, checked: the quick figure subset runs
# with the five invariants attached to every run (a violation exits
# non-zero), writes its BENCH_*.json records, and the gate checks each
# bench/baselines.json entry (record id, field, direction, baseline,
# tolerance) against them, printing one line per record and exiting
# non-zero, naming the offending field, on any regression beyond the
# tolerance band.  The Starlink emulation (fig16) and the trace replays
# (pathtrace) share the single-flow runner, so the checker reaches them.
out_dir="$(mktemp -d)"
trap 'rm -rf "$out_dir"' EXIT
smoke_ids="fig3 fig10 fig12 fig16 pathtrace"
dune exec bench/main.exe -- fig --quick --check --jobs 2 --out-dir "$out_dir" \
  --gate bench/baselines.json $smoke_ids

echo "=== perf smoke records ==="
for id in $smoke_ids; do
  test -s "$out_dir/BENCH_$id.json" || {
    echo "ci.sh: missing perf record BENCH_$id.json" >&2
    exit 1
  }
  cat "$out_dir/BENCH_$id.json"
done

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

# Oracle fuzz sweep: 25 random scenarios x (LEOTP + every TCP variant)
# replayed against the differential sender model and per-CC semantic
# oracles (see EXPERIMENTS.md).  Exits non-zero on any divergence,
# printing a fuzz-replay command for each shrunk failure.
dune exec bench/main.exe -- fuzz 25 --seed 7 --jobs 2

# The strict spec readers end to end: a schedule naming all eight
# fault verbs, fed back in the canonical form the lab prints, must
# reproduce its trace digest; a canonical replay spec with flows= and
# a schedule must read and replay clean.
lab() { dune exec bench/main.exe -- faults --quick "$1" > "$out_dir/lab.txt"; }
lab '1@down:hop1;1.5@up:hop1;2@plr:hop0=0.05;3@plr:hop0=0;3.5@bw:hop2=5;4.5@bw:hop2=20;5@dup:hop0=0.1;6@dup:hop0=0;6.5@reorder:hop1=0.2,0.005;7.5@reorder:hop1=0,0;8@crash:mid0;9@restart:mid0'
first="$(grep 'trace:' "$out_dir/lab.txt")"
lab "$(sed -n 's/^  schedule: //p' "$out_dir/lab.txt")"
test -n "$first" && test "$first" = "$(grep 'trace:' "$out_dir/lab.txt")" || {
  echo "ci.sh: the printed schedule did not reproduce '$first'" >&2
  exit 1
}
dune exec bench/main.exe -- fuzz-replay \
  'cc=bbr|seed=11|hops=3|flows=2|bw=12.5|delay=0.0078125|plr=0.0009765625|bytes=150000|dur=30|faults=1.5@down:hop1;2@up:hop1;3@plr:hop0=0.25;4@plr:hop0=0'

# Single scenarios: a fixed transfer over a lossy chain, a TCP flow
# over a replayed Starlink path trace, a route table.
dune exec bench/main.exe -- sim path --hops 5 --plr 0.01 --bytes 10000000
dune exec bench/main.exe -- sim starlink --quick -p bbr --bent-pipe Beijing Shanghai
dune exec bench/main.exe -- sim route Beijing Paris -d 300

echo "ci.sh: OK"
