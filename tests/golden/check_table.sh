#!/bin/sh
# Paper-table golden check, run by ctest.
#
#   check_table.sh <bench_tables binary> <golden file>
#
# Runs one paper-table binary and requires its stdout to equal the
# committed golden byte for byte. The tables are deterministic, so any
# difference is drift in the estimates they print.
set -e
BIN=$1
GOLDEN=$2
OUT=$(mktemp)
trap 'rm -f "$OUT"' EXIT
"$BIN" > "$OUT"
diff -u "$GOLDEN" "$OUT"
