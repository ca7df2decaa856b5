#!/usr/bin/env bash
# Reproduce the full evaluation of the SC'24 LULESH-on-HPX paper
# (counterpart of the artifact's run-reduced.sh + generate-graphs.py).
#
# Usage: scripts/reproduce.sh [output-dir]    (default: ./reproduction)
set -euo pipefail
cd "$(dirname "$0")/.."
OUT="${1:-reproduction}"
mkdir -p "$OUT"

echo "== building (release) =="
cargo build --release --workspace

echo "== correctness: full test suite =="
cargo test --workspace --release -q 2>&1 | tail -3

echo "== physics validation: s=30 must give 932 iterations, e=2.025075e5 =="
./target/release/lulesh-serial --s 30 --q | tee "$OUT/serial_s30.csv"

echo "== figures (virtual 24-core EPYC 7443P) =="
for artifact in fig9 fig10 fig11 table1 ablation whatif sweep multinode; do
  cargo run --release -q -p lulesh-bench -- "$artifact" | tee "$OUT/$artifact.txt"
done

echo "== SVG graphs =="
cargo run --release -q -p lulesh-bench -- graphs "$OUT/figures"

echo "== schedule traces (chrome://tracing) =="
cargo run --release -q --example schedule_trace -- 45 "$OUT"

echo
echo "reproduction artifacts written to $OUT/"
