#!/bin/sh
# End-to-end gate for the grouping-engine bench: runs bench_micro_engine
# (google-benchmark bulk filtered down to one registration to keep the
# test fast), validates the BENCH json against dpnet.bench.v1, diffs it
# against the checked-in baseline with bench_compare, and replays the
# run's privacy event journal with `dpnet_cli audit verify` so
# journal == ledger == trace epsilon reconcile exactly.  It also proves
# the checker fails a report whose diagnostics-overhead row is missing
# or over its 2% bound.
#
# The wall-time band here is deliberately loose (100%): in-suite runs
# share the machine with the rest of ctest, so this test gates the
# *wiring* — schema, baseline coverage, exact accounting rows, journal
# chain — while the tight 50% performance band runs in the dedicated
# serial bench-regression CI job.
# Usage: test_micro_grouping.sh <bench_micro_engine> <bench_schema_check>
#        <bench_compare> <dpnet_cli> <baseline_dir>
set -eu

BENCH="$1"
CHECK="$2"
COMPARE="$3"
CLI="$4"
BASELINES="$5"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT
mkdir "$WORK/journal"

echo "== run bench =="
DPNET_BENCH_JSON_DIR="$WORK" DPNET_JOURNAL_DIR="$WORK/journal" \
  "$BENCH" --benchmark_filter=BM_LaplaceDraw > "$WORK/stdout.txt"
grep -q "grouping engine" "$WORK/stdout.txt"
test -f "$WORK/BENCH_bench_micro_engine.json"

echo "== schema + trace/ledger reconciliation =="
"$CHECK" "$WORK/BENCH_bench_micro_engine.json"

echo "== checker rejects a dropped or breached gated row =="
# The document is one line; strip the row object, or rewrite its value.
ROW='"key":"diagnostics overhead pct","value":'
sed "s/{\"section\":\"[^\"]*\",$ROW[^}]*},//" \
  "$WORK/BENCH_bench_micro_engine.json" > "$WORK/no_row.json"
if grep -q "$ROW" "$WORK/no_row.json" ||
   "$CHECK" "$WORK/no_row.json" 2>/dev/null; then
  echo "expected a report without the diagnostics row to fail" >&2
  exit 1
fi
sed "s/$ROW[0-9.e+-]*/${ROW}2.5/" \
  "$WORK/BENCH_bench_micro_engine.json" > "$WORK/over_bound.json"
if ! grep -q "${ROW}2.5" "$WORK/over_bound.json" ||
   "$CHECK" "$WORK/over_bound.json" 2>/dev/null; then
  echo "expected a 2.5% diagnostics overhead to fail" >&2
  exit 1
fi

echo "== regression gate vs checked-in baseline =="
"$COMPARE" --time-threshold 1.0 --baseline-dir "$BASELINES" \
  "$WORK/BENCH_bench_micro_engine.json"

echo "== journal == ledger == trace =="
test -f "$WORK/journal/journal.jsonl"
"$CLI" audit verify "$WORK/journal/journal.jsonl" \
  --audit "$WORK/journal/ledger.json" \
  --trace "$WORK/journal/trace.json"

echo "MICRO-GROUPING-OK"
