#!/usr/bin/env bash
# Recall-regression gate for CI: prove on a live TCP cluster that the sketch
# prefilter never costs a hit.
#
#   1. Bloom leg (exact recall): every query runs with -prefilter off and
#      -prefilter bloom; the hit lists must be bit-identical, AND the bloom
#      run must actually skip groups (a prefilter that never skips is not
#      being tested).
#   2. Similarity leg (bounded estimates): `mendel similarity -verify`
#      checks the manifest's per-sequence MinHash signatures bit-for-bit
#      against the corpus and bounds every Jaccard estimate within 0.05 of
#      the exact value.
#
# The query mix matters: indexed excerpts and mutated homologs exercise the
# never-skip contract, while short foreign sequences (k-mer-disjoint from
# the corpus) are the skip source. recall_diff.txt is written at the repo
# root for CI to archive on failure.
set -euo pipefail
cd "$(dirname "$0")/.."

workdir=$(mktemp -d)
cleanup() {
  kill $(jobs -p) 2>/dev/null || true
  wait 2>/dev/null || true
  rm -rf "$workdir"
}
trap cleanup EXIT

go build -o "$workdir/mendel" ./cmd/mendel
go build -o "$workdir/mendel-node" ./cmd/mendel-node
go build -o "$workdir/mendel-datagen" ./cmd/mendel-datagen

# Corpus and query mix. Foreign queries come from an independent seed, so
# they share (almost) no 5-mer with the 12k-residue corpus.
"$workdir/mendel-datagen" -kind protein -n 40 -len 300 -seed 7 -prefix ref \
  -out "$workdir/db.fasta"
"$workdir/mendel-datagen" -kind protein -queries-from "$workdir/db.fasta" \
  -n 8 -len 120 -sub 0.1 -indel 0.01 -seed 11 -prefix hom -out "$workdir/hom.fasta"
"$workdir/mendel-datagen" -kind protein -queries-from "$workdir/db.fasta" \
  -n 4 -len 16 -sub 0.05 -indel 0 -seed 13 -prefix short -out "$workdir/short.fasta"
"$workdir/mendel-datagen" -kind protein -n 6 -len 24 -jitter 8 -seed 99 \
  -prefix fgn -out "$workdir/foreign.fasta"
cat "$workdir/hom.fasta" "$workdir/short.fasta" "$workdir/foreign.fasta" \
  > "$workdir/queries.fasta"

"$workdir/mendel-node" -addr 127.0.0.1:7481 &
"$workdir/mendel-node" -addr 127.0.0.1:7482 &
"$workdir/mendel-node" -addr 127.0.0.1:7483 &
"$workdir/mendel-node" -addr 127.0.0.1:7484 &
sleep 1

"$workdir/mendel" index -nodes 127.0.0.1:7481,127.0.0.1:7482,127.0.0.1:7483,127.0.0.1:7484 \
  -groups 2 -kind protein -fasta "$workdir/db.fasta" -manifest "$workdir/cluster.mendel"

# One traced run per mode. Hit lines are indented; trace lines carry the
# per-stage timings plus the skipped= counter this gate asserts on.
run_mode() {
  "$workdir/mendel" query -manifest "$workdir/cluster.mendel" \
    -fasta "$workdir/queries.fasta" -max-hits 1000 -trace -prefilter "$1"
}
run_mode off   > "$workdir/off.out"
run_mode bloom > "$workdir/bloom.out"
for mode in off bloom; do
  grep '^  ' "$workdir/$mode.out" | grep -v '^  \.\.\.' > "$workdir/$mode.hits" || true
done

: > recall_diff.txt
if ! diff -u "$workdir/off.hits" "$workdir/bloom.hits" > "$workdir/bloom.diff" 2>&1; then
  {
    echo "=== -prefilter bloom lost or changed hits vs -prefilter off ==="
    cat "$workdir/bloom.diff"
  } >> recall_diff.txt
  echo "recall gate FAILED; see recall_diff.txt" >&2
  cat recall_diff.txt >&2
  exit 1
fi

# The bloom run must have skipped at least one group, or the gate proved
# nothing about the prefilter.
skipped=$(grep -o 'skipped=[0-9]*' "$workdir/bloom.out" | awk -F= '{s+=$2} END{print s+0}')
if [ "${skipped:-0}" -eq 0 ]; then
  echo "bloom prefilter skipped no groups on the gate corpus" >&2
  echo "=== bloom run skipped zero groups ===" >> recall_diff.txt
  exit 1
fi

# Similarity leg: stored MinHash signatures must match the corpus
# bit-for-bit and every Jaccard estimate must sit within 0.05 of the exact
# value.
"$workdir/mendel" similarity -manifest "$workdir/cluster.mendel" \
  -fasta "$workdir/queries.fasta" -top 3 -verify "$workdir/db.fasta" -bound 0.05

echo "recall gate ok: bloom hits bit-identical to off, $skipped group skips, similarity estimates within bound"
