#!/usr/bin/env bash
# Pre-merge check gate: formatting, lints, rustdoc, the tier-1 suite, a
# build and smoke run of the benchmark workspace, a smoke test of the
# observability layer (a tiny traced run whose Chrome-trace output must
# pass trace_lint with the expected barrier count), and a run of every
# figure artifact.
#
# Usage: scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --all --check

echo "== cargo clippy (-D warnings) =="
cargo clippy --workspace --all-targets -q -- -D warnings

echo "== rustdoc (-D warnings: no dangling intra-doc links) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline -q

echo "== tier-1: cargo build && cargo test =="
cargo build -q --workspace
cargo test -q --workspace 2>&1 | tail -3

echo "== published s30 answer (serial, omp, omp reference, task: 932 iterations, 2.025075e5) =="
# Ignored in tier-1 because it takes tens of seconds. Its 2x and 20x EOS
# regions run the OpenMP code's 12-loop EOS ladder end to end on the
# fork-join driver's reference plan (OmpLulesh::reference), one parallel
# region per loop; the default fork-join plan runs the fused EOS.
cargo test --release -q --test published_small_mesh -- --ignored

echo "== benchmark workspace: build + smoke run against these crates =="
# `benchmark/` is a workspace of its own whose `probe` links the crates'
# public API; build it and run one short workload so an API change that
# breaks it fails here rather than at the benchmark gate.
# The build rewrites the tracked benchmark/Cargo.lock whenever a workspace
# crate's dependency list moved on; put the committed lock back after it so
# the check leaves the tree as it found it.
BENCH_LOCK="$(mktemp)"
cp benchmark/Cargo.lock "$BENCH_LOCK"
cargo build --release --offline --manifest-path benchmark/Cargo.toml
cargo run --release --quiet --offline --manifest-path benchmark/Cargo.toml \
  -p runner -- run --workload small_s10_full --smoke > /dev/null
if ! cmp -s "$BENCH_LOCK" benchmark/Cargo.lock; then
  cp "$BENCH_LOCK" benchmark/Cargo.lock
  echo "benchmark/Cargo.lock was rewritten by the build; restored the committed copy"
fi
rm -f "$BENCH_LOCK"

echo "== traced smoke run (s=5, 3 iterations => 18 barrier spans) =="
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT
./target/debug/lulesh-task --s 5 --i 3 --threads 2 --q \
  --trace "$TMP/trace.json" --metrics "$TMP/metrics.csv" > /dev/null
# 6 sync points per iteration x 3 iterations; trace_lint validates the
# JSON and the barrier count in one pass.
./target/debug/trace_lint "$TMP/trace.json" 18
test -s "$TMP/metrics.csv"

echo "== figures smoke (one lulesh-bench command, every artifact) =="
# Every tabular artifact prints its CSV header line; graphs writes the
# eight SVGs; a missing or unknown artifact exits 2 with the usage line.
for spec in "fig9:size,threads,omp_seconds,task_seconds,speedup" \
            "fig10:size,regions,speedup" \
            "fig11:size,omp_utilization,task_utilization" \
            "table1:size,best_nodal,best_elements,paper_nodal,paper_elements" \
            "ablation:size,config,seconds,slowdown" \
            "sweep:size,partition,seconds" \
            "whatif:size,omp_static_s,omp_dynamic_s,task_s,dyn_gain,task_speedup_vs_best_omp" \
            "multinode:size,nodes,sync_iter_ms,async_iter_ms,sync_eff,async_eff"; do
  artifact="${spec%%:*}"
  ./target/debug/lulesh-bench "$artifact" > "$TMP/$artifact.txt"
  grep -qx "${spec#*:}" "$TMP/$artifact.txt" || {
    echo "$artifact printed no CSV header '${spec#*:}':"; cat "$TMP/$artifact.txt"; exit 1;
  }
done
./target/debug/lulesh-bench graphs "$TMP/fig" > /dev/null
for svg in fig9_size45 fig9_size60 fig9_size75 fig9_size90 fig9_size120 fig9_size150 \
           fig10_speedup fig11_utilization; do
  test -s "$TMP/fig/$svg.svg" || { echo "graphs did not write $svg.svg"; exit 1; }
done
[ "$(./target/debug/lulesh-bench calibrate 6 2 1 2>/dev/null | grep -cxE 'CostModel \{|    [a-z_]+: [0-9]+\.[0-9],|\}')" = 25 ] || { echo "calibrate printed no 23-field CostModel literal"; exit 1; }
STATUS=0
./target/debug/lulesh-bench fig12 > /dev/null 2> "$TMP/bench_usage.log" || STATUS=$?
if [ "$STATUS" -ne 2 ] || ! grep -q "^usage: lulesh-bench" "$TMP/bench_usage.log"; then
  echo "lulesh-bench fig12: expected exit 2 with usage, got $STATUS:"
  cat "$TMP/bench_usage.log"; exit 1
fi

echo "== partition smoke runs (every plan is bit-identical to the default) =="
# Partition size is a pure performance knob: the Table I default, the
# finest plan and one coarser than the whole mesh must print the same CSV
# in every column but wall clock.
./target/debug/lulesh-task --s 6 --i 10 --threads 2 --q | cut -d, -f1-4,6 > "$TMP/table.csv"
for part in fixed:8 fixed:4096; do
  ./target/debug/lulesh-task --s 6 --i 10 --threads 2 --q --partition "$part" \
    | cut -d, -f1-4,6 > "$TMP/part.csv"
  if ! cmp -s "$TMP/table.csv" "$TMP/part.csv"; then
    echo "--partition $part diverged from the default plan:"
    diff "$TMP/table.csv" "$TMP/part.csv" || true
    exit 1
  fi
done
# `--partition` takes table|fixed:N only; `auto` is a usage error.
STATUS=0
./target/debug/lulesh-task --partition auto > /dev/null 2> "$TMP/auto.log" || STATUS=$?
if [ "$STATUS" -ne 2 ] || ! grep -q "^Usage: lulesh-task" "$TMP/auto.log"; then
  echo "--partition auto: expected exit 2 with usage, got $STATUS:"; cat "$TMP/auto.log"
  exit 1
fi

echo "== simd smoke runs (every driver's default width is bit-identical to scalar) =="
# Lane width and ISA are pure performance knobs: a plain run of every
# driver (kernels at LaneWidth::native(), w8 on an AVX-512 host and w4
# elsewhere, compiled for the ISA this host was detected to have) must
# print what --simd scalar — the baseline reference body — prints in every
# CSV column but wall clock, single-domain and split 1x1x2. (clippy above
# already covers crates/core, including the lane engine.)
for run in "lulesh-serial --s 6 --i 10" "lulesh-omp --s 6 --i 10 --threads 2" \
           "lulesh-task --s 6 --i 10 --threads 2" \
           "lulesh-multidom --s 6 --i 10 --grid 1x1x2"; do
  ./target/debug/$run --q | cut -d, -f1-4,6 > "$TMP/default.csv"
  ./target/debug/$run --q --simd scalar | cut -d, -f1-4,6 > "$TMP/scalar.csv"
  if ! cmp -s "$TMP/default.csv" "$TMP/scalar.csv"; then
    echo "$run: default width diverged from --simd scalar:"
    diff "$TMP/default.csv" "$TMP/scalar.csv" || true
    exit 1
  fi
done
# Each width runs its own pack body (w4: Avx2Pack or Lanes<4>; w8:
# Avx512Pack or Lanes<8>), so check both forced widths against scalar too.
for run in "lulesh-serial --s 6 --i 10" "lulesh-task --s 6 --i 10 --threads 2"; do
  ./target/debug/$run --q --simd scalar | cut -d, -f1-4,6 > "$TMP/scalar.csv"
  for width in w4 w8; do
    ./target/debug/$run --q --simd $width | cut -d, -f1-4,6 > "$TMP/width.csv"
    if ! cmp -s "$TMP/width.csv" "$TMP/scalar.csv"; then
      echo "$run: --simd $width diverged from --simd scalar:"
      diff "$TMP/width.csv" "$TMP/scalar.csv" || true
      exit 1
    fi
  done
done

echo "== x86 lane walks inline every lane op (x86_64 only) =="
# Two x86 lane walks run the five lane kernels (stress, fused hourglass,
# kinematics, monoq gradients, EOS): simd::walk_avx2 runs all five (at w4,
# and EOS also at w8, which pins Avx2Pack), simd::walk_avx512 the four
# that do not pin it. So release lulesh-serial holds exactly five
# instantiations of the one and four of the other. Each only runs at its
# width if the kernel's group body and every lane op are inlined into it:
# an out-of-line Lanes / SimdReal op, Avx2Pack or Avx512Pack op,
# pack-trait method (`<…Avx2Pack as Add>::add`, `<… as simd::Pack>::gather`)
# or group body (`<… as simd::LaneKernel>::group`) is compiled for the
# baseline ISA and every call into it drops back to SSE2. If the release
# binary holds no such symbol at all, no x86 walk can call one.
if [ "$(uname -m)" = x86_64 ]; then
  cargo build --release -q -p lulesh-core --bin lulesh-serial
  nm -C target/release/lulesh-serial > "$TMP/serial.syms"
  for walk in avx2:5 avx512:4; do
    WALK_ISA=${walk%:*}
    WANT=${walk#*:}
    FOUND=$(grep -c " lulesh_core::simd::walk_$WALK_ISA\$" "$TMP/serial.syms" || true)
    if [ "$FOUND" -ne "$WANT" ]; then
      echo "expected $WANT simd::walk_$WALK_ISA instantiations, found $FOUND:"
      grep "walk_$WALK_ISA" "$TMP/serial.syms" || true
      exit 1
    fi
  done
  if grep -E 'simd::(Lanes|Pack|SimdReal|LaneKernel)|Avx2Pack|Avx512Pack' "$TMP/serial.syms"; then
    echo "lane ops or group bodies above were compiled out of line; an x86 walk may call them"
    exit 1
  fi
fi
# Avx2Pack and Avx512Pack execute AVX / AVX-512 instructions from safe
# methods, so each may be named only in simd.rs, where its walk
# (simd::walk_avx2, simd::walk_avx512, reached through simd::walk after
# feature detection) is the one place that constructs it.
for pack in Avx2Pack Avx512Pack; do
  PACK_FILES=$(grep -rlw $pack crates src tests examples --include='*.rs' | sort | tr '\n' ' ')
  if [ "$PACK_FILES" != "crates/core/src/simd.rs " ]; then
    echo "$pack is named outside simd.rs: $PACK_FILES"
    exit 1
  fi
done

echo "== only shared_slice.rs maps memory (mmap/munmap/madvise) =="
# SharedVec gives every block of at least a huge page an anonymous mapping
# of its own and unmaps it on drop; like the packs above, that unsafe
# surface lives in one file, so no other file may declare or call the
# three functions.
MAP_FILES=$(grep -rlE '\b(mmap|munmap|madvise)[[:space:]]*\(' crates src tests examples \
  --include='*.rs' | sort | tr '\n' ' ')
if [ "$MAP_FILES" != "crates/parutil/src/shared_slice.rs " ]; then
  echo "mmap/munmap/madvise declared or called outside shared_slice.rs: $MAP_FILES"
  exit 1
fi

echo "== only tcp.rs declares socket calls (send/recv/fcntl) =="
# The TCP transport writes frames and peeks for them with per-call
# MSG_DONTWAIT, leaving the descriptor it shares with its writer thread
# blocking; a socket call declared anywhere else could change that mode
# or read the wire behind the transport's back.
SOCK_FILES=$(grep -rl 'extern "C"' crates src tests examples shims --include='*.rs' \
  | xargs awk '
      /extern "C"[[:space:]]*\{/ { inblock = 1 }
      inblock && /fn[[:space:]]+(send|sendto|sendmsg|recv|recvfrom|recvmsg|fcntl)[[:space:]]*\(/ { print FILENAME }
      inblock && /\}[[:space:]]*$/ { inblock = 0 }' \
  | sort -u | tr '\n' ' ')
if [ "$SOCK_FILES" != "crates/parcelnet/src/tcp.rs " ]; then
  echo "socket calls declared in an extern \"C\" block outside tcp.rs: $SOCK_FILES"
  exit 1
fi

echo "== Domain's fields are planes of one block (one SharedVec<Real>) =="
# Every Domain field is a plane of one SharedVec<Real> (domain::Field), so
# at the paper's sizes the whole field table is one huge-page mapping. A
# second SharedVec<Real> member in the struct would bring back per-field
# allocator blocks, each faulting per 4 KiB page.
FIELD_BLOCKS=$(sed -n '/^pub struct Domain {/,/^}/p' crates/core/src/domain.rs \
  | grep -c 'SharedVec<Real>' || true)
if [ "$FIELD_BLOCKS" -ne 1 ]; then
  echo "Domain declares $FIELD_BLOCKS SharedVec<Real> members, expected the one field block"
  exit 1
fi

echo "== no --pin flag (worker pinning is not a run option) =="
for bin in lulesh-task lulesh-multidom; do
  STATUS=0
  ./target/debug/$bin --pin all > /dev/null 2> "$TMP/pin.log" || STATUS=$?
  if [ "$STATUS" -ne 2 ] || ! grep -q "^Usage: $bin" "$TMP/pin.log"; then
    echo "$bin --pin all: expected exit 2 with usage, got $STATUS:"; cat "$TMP/pin.log"
    exit 1
  fi
done

echo "== every binary rejects the flags it does not honour =="
# Each binary parses its own table: a flag another binary reads (or a
# multi-domain combination that would do nothing) is a usage error, never
# a silently ignored token.
while IFS='|' read -r bin flags; do
  STATUS=0
  # shellcheck disable=SC2086 # the flags are a word list on purpose
  ./target/debug/$bin $flags < /dev/null > /dev/null 2> "$TMP/reject.log" || STATUS=$?
  if [ "$STATUS" -ne 2 ] || ! grep -q "^Usage: $bin" "$TMP/reject.log"; then
    echo "$bin $flags: expected exit 2 with usage, got $STATUS:"; cat "$TMP/reject.log"
    exit 1
  fi
done <<'EOF_FLAGS'
lulesh-serial|--threads 2
lulesh-serial|--trace t.json
lulesh-serial|--partition table
lulesh-serial|--grid 1x1x2
lulesh-serial|--die-at 0:1
lulesh-omp|--partition table
lulesh-omp|--trace-dir d
lulesh-omp|--ckpt-dir d
lulesh-omp|--live-metrics
lulesh-task|--grid 1x1x2
lulesh-task|--transport tcp
lulesh-task|--slow-rank 0:1
lulesh-task|--respawn
lulesh-multidom|--partition table
lulesh-multidom|--resume-cycle 3
EOF_FLAGS

echo "== --s past the 32-bit mesh index width is a usage error =="
# Stored connectivity is 32-bit (LULESH's Index_t): 8·813³ corner ids
# overflow it, so every binary must refuse --s 813 before building a mesh.
for bin in lulesh-serial lulesh-omp lulesh-task lulesh-multidom; do
  STATUS=0
  ./target/debug/$bin --s 813 --i 0 < /dev/null > /dev/null 2> "$TMP/s813.log" || STATUS=$?
  if [ "$STATUS" -ne 2 ] || ! grep -q "^Usage: $bin" "$TMP/s813.log"; then
    echo "$bin --s 813 --i 0: expected exit 2 with usage, got $STATUS:"; cat "$TMP/s813.log"
    exit 1
  fi
done

echo "== TCP-loopback smoke run (2 ranks, s=6, 10 iterations) =="
# The launcher re-spawns the binary once per rank over real loopback
# sockets, waits for every worker, and re-binds the bootstrap port before
# exiting 0 — a nonzero status means a worker failed or leaked a listener.
./target/debug/lulesh-multidom --transport tcp --ranks 2 --s 6 --i 10 --q \
  > "$TMP/tcp_smoke.csv"
grep -q "^6,11,10,2," "$TMP/tcp_smoke.csv" || {
  echo "TCP smoke run produced no report:"; cat "$TMP/tcp_smoke.csv"; exit 1;
}

echo "== one rank loop (1x1x2: in-process channels == TCP workers) =="
# In-process ranks and TCP worker processes run the same rank loop
# (threaded::run_rank): every CSV column but wall clock (column 5) must
# match, so channel == TCP holds at the binary level.
./target/debug/lulesh-multidom --s 6 --i 10 --grid 1x1x2 --q \
  | cut -d, -f1-4,6- > "$TMP/loop_channel.csv"
./target/debug/lulesh-multidom --s 6 --i 10 --grid 1x1x2 --q --transport tcp \
  2> /dev/null | cut -d, -f1-4,6- > "$TMP/loop_tcp.csv"
if ! cmp -s "$TMP/loop_channel.csv" "$TMP/loop_tcp.csv"; then
  echo "TCP workers diverged from in-process channels:"
  diff "$TMP/loop_channel.csv" "$TMP/loop_tcp.csv" || true
  exit 1
fi

echo "== task ranks (--threads 2: a task graph per rank, the same rank loop) =="
# `--threads N > 1` runs every rank as an N-worker task graph whose halo
# exchanges are graph stages. Every CSV column but wall clock must match
# the serial ranks of the default --threads 1 above.
./target/debug/lulesh-multidom --s 6 --i 10 --grid 1x1x2 --threads 2 --q \
  | cut -d, -f1-4,6- > "$TMP/loop_tasks.csv"
if ! cmp -s "$TMP/loop_channel.csv" "$TMP/loop_tasks.csv"; then
  echo "task ranks diverged from serial ranks:"
  diff "$TMP/loop_channel.csv" "$TMP/loop_tasks.csv" || true
  exit 1
fi
# Traced task ranks over TCP: both rank files lint, the launcher's
# analysis self-verifies (it exits nonzero otherwise), and the merged
# trace holds at least 2 ranks x 8 dt barriers.
./target/debug/lulesh-multidom --transport tcp --ranks 2 --threads 2 --s 6 --i 8 --q \
  --trace-dir "$TMP/trtask" > /dev/null
./target/debug/trace_lint "$TMP/trtask/rank0.spans.json"
./target/debug/trace_lint "$TMP/trtask/rank1.spans.json"
./target/debug/trace_lint "$TMP/trtask/merged.trace.json" 16
test -s "$TMP/trtask/analysis.json"
# Checkpoint/respawn on task ranks: rank 1 dies at cycle 5, the launcher
# relaunches both from the newest complete wave, and the final energy
# must equal an uninterrupted task-rank run's.
./target/debug/lulesh-multidom --transport tcp --ranks 2 --threads 2 --s 6 --i 20 --q \
  --recv-deadline-ms 3000 > "$TMP/task_ref.csv"
./target/debug/lulesh-multidom --transport tcp --ranks 2 --threads 2 --s 6 --i 20 --q \
  --recv-deadline-ms 3000 --die-at 1:5 --ckpt-dir "$TMP/taskckpt" --ckpt-period 2 \
  --respawn > "$TMP/task_respawn.csv" 2> "$TMP/task_respawn.log"
grep -q "respawn: relaunching all 2 ranks from checkpoint cycle" "$TMP/task_respawn.log" || {
  echo "launcher never respawned the task ranks:"; cat "$TMP/task_respawn.log"; exit 1;
}
REF_E=$(tail -1 "$TMP/task_ref.csv" | cut -d, -f6)
RESPAWN_E=$(tail -1 "$TMP/task_respawn.csv" | cut -d, -f6)
if [ -z "$REF_E" ] || [ "$REF_E" != "$RESPAWN_E" ]; then
  echo "recovered task-rank energy '$RESPAWN_E' != uninterrupted '$REF_E'"; exit 1
fi

echo "== distributed-trace smoke run (3 TCP ranks, --trace-dir) =="
# Each worker drops a rank{R}.spans.json; the launcher clock-aligns and
# merges them, then runs the inefficiency analysis. trace_lint validates
# the merged Chrome trace end to end (3 ranks x 8 dt barriers = 24), and
# the analysis must self-verify (per-category sums match wall clock,
# zero causality violations) or the launcher exits nonzero.
./target/debug/lulesh-multidom --transport tcp --ranks 3 --s 6 --i 8 --q \
  --trace-dir "$TMP/tr" > /dev/null
./target/debug/trace_lint "$TMP/tr/merged.trace.json" 24
test -s "$TMP/tr/analysis.json"

echo "== 3-D grid smoke run (2x2x2 TCP ranks, --trace-dir) =="
# Full octant decomposition: 8 workers over real loopback sockets with
# face, edge and corner halo traffic (27-direction tag layout on the
# wire). The launcher merges the 8 per-rank span files, runs the
# inefficiency analysis (Analysis::verify gates the exit status), and
# trace_lint validates the merged trace (8 ranks x 6 dt barriers = 48).
./target/debug/lulesh-multidom --transport tcp --grid 2x2x2 --s 6 --i 6 --q \
  --trace-dir "$TMP/tr3d" > "$TMP/grid_smoke.csv"
grep -q "^6,11,6,8," "$TMP/grid_smoke.csv" || {
  echo "grid smoke run produced no report:"; cat "$TMP/grid_smoke.csv"; exit 1;
}
./target/debug/trace_lint "$TMP/tr3d/merged.trace.json" 48
test -s "$TMP/tr3d/analysis.json"

echo "== 3-D grid bit-identity (2x2x2: channels == TCP workers == task ranks) =="
# The one binary-level run that sends face, edge and corner traffic for
# all three halo kinds over both transports: every CSV column but wall
# clock (column 5) must match across in-process channels, TCP worker
# processes and 2-worker task ranks.
./target/debug/lulesh-multidom --s 6 --i 10 --grid 2x2x2 --q \
  | cut -d, -f1-4,6- > "$TMP/grid_channel.csv"
./target/debug/lulesh-multidom --s 6 --i 10 --grid 2x2x2 --q --transport tcp \
  2> /dev/null | cut -d, -f1-4,6- > "$TMP/grid_tcp.csv"
./target/debug/lulesh-multidom --s 6 --i 10 --grid 2x2x2 --q --threads 2 \
  | cut -d, -f1-4,6- > "$TMP/grid_tasks.csv"
grep -q "^6,11,10,8" "$TMP/grid_channel.csv" || {
  echo "2x2x2 channel run produced no report:"; cat "$TMP/grid_channel.csv"; exit 1;
}
for form in tcp tasks; do
  if ! cmp -s "$TMP/grid_channel.csv" "$TMP/grid_$form.csv"; then
    echo "2x2x2 $form run diverged from in-process channels:"
    diff "$TMP/grid_channel.csv" "$TMP/grid_$form.csv" || true
    exit 1
  fi
done

echo "== live-metrics smoke run (2 TCP ranks, JSONL schema) =="
# --live-metrics makes rank 0 stream one JSONL step summary per sampled
# step to stdout (telemetry rides the dt allreduce, so this works across
# real sockets); every line must carry the live schema header, and the
# run must still end with the normal CSV report.
./target/debug/lulesh-multidom --transport tcp --ranks 2 --s 6 --i 8 --q \
  --live-metrics > "$TMP/live.jsonl"
LIVE_LINES=$(grep -c '^{"schema":4,"kind":"live"' "$TMP/live.jsonl" || true)
if [ "$LIVE_LINES" -lt 8 ]; then
  echo "expected >=8 live JSONL lines, got $LIVE_LINES:"; cat "$TMP/live.jsonl"
  exit 1
fi
grep -q "^6,11,8,2," "$TMP/live.jsonl" || {
  echo "live-metrics run produced no report:"; cat "$TMP/live.jsonl"; exit 1;
}

echo "== live-metrics + trace-dir smoke (2 TCP ranks, one span record feeds both) =="
# The live stream is sampled from the same spans the trace files hold:
# the run must stream >=8 JSONL lines, its merged trace must lint and its
# analysis must verify (the launcher exits nonzero otherwise).
./target/debug/lulesh-multidom --transport tcp --ranks 2 --s 6 --i 8 --q \
  --live-metrics --trace-dir "$TMP/livetr" > "$TMP/livetr.jsonl"
LIVE_LINES=$(grep -c '^{"schema":4,"kind":"live"' "$TMP/livetr.jsonl" || true)
if [ "$LIVE_LINES" -lt 8 ]; then
  echo "expected >=8 live JSONL lines with --trace-dir, got $LIVE_LINES:"
  cat "$TMP/livetr.jsonl"; exit 1
fi
./target/debug/trace_lint "$TMP/livetr/merged.trace.json" 16
test -s "$TMP/livetr/analysis.json"

echo "== per-worker --trace smoke (2 TCP ranks, each worker's trace lints) =="
# Without --trace-dir each TCP worker writes trace.json.rank<R>, and each
# must lint. At --s 6 every frame goes out on the rank's own thread, so
# these traces hold no writer parcel-serialize-* span; the rule that such
# spans sit on the writer's lane alone is checked by
# tcp::tests::small_sends_bypass_the_writer_and_queue_behind_a_partial_frame,
# which forces frames through the writer.
./target/debug/lulesh-multidom --transport tcp --ranks 2 --s 6 --i 8 --q \
  --trace "$TMP/wtrace.json" > /dev/null
./target/debug/trace_lint "$TMP/wtrace.json.rank0" 8
./target/debug/trace_lint "$TMP/wtrace.json.rank1" 8

echo "== failure-trace smoke (--die-at, each rank's spans file is the post-mortem) =="
# Rank 1 dies mid-protocol at cycle 3: the launcher must exit nonzero, and
# the dying rank and the survivor must both still write the spans file a
# successful run writes (no merge). trace_lint reads spans files with the
# rank-trace parser; the survivor's must hold its typed transport failure
# as at least one parcel-error-* span.
if ./target/debug/lulesh-multidom --transport tcp --ranks 2 --s 6 --i 8 --q \
  --die-at 1:3 --trace-dir "$TMP/fail" > /dev/null 2>&1; then
  echo "die-at run unexpectedly exited 0"; exit 1
fi
./target/debug/trace_lint "$TMP/fail/rank0.spans.json" | tee "$TMP/fail/lint0.txt"
./target/debug/trace_lint "$TMP/fail/rank1.spans.json"
grep -qE ', [1-9][0-9]* error spans?\)$' "$TMP/fail/lint0.txt" || {
  echo "rank 0's spans file records no parcel-error span"; exit 1;
}

echo "== checkpoint/respawn smoke (2x2x1 TCP grid, rank 2 dies at cycle 40) =="
# Reference: the same job uninterrupted. Then the resilient run: rank 2 is
# killed after cycle 40 with checkpointing armed; the launcher finds the
# newest wave where every rank left a checksum-valid snapshot, relaunches
# all four workers with --resume-cycle, and the job must finish with a
# final energy BIT-IDENTICAL to the uninterrupted run (field 6, %.6e).
./target/debug/lulesh-multidom --transport tcp --grid 2x2x1 --s 6 --i 60 --q \
  --recv-deadline-ms 3000 > "$TMP/ckpt_ref.csv"
./target/debug/lulesh-multidom --transport tcp --grid 2x2x1 --s 6 --i 60 --q \
  --recv-deadline-ms 3000 --die-at 2:40 --ckpt-dir "$TMP/ckpt" --respawn \
  > "$TMP/ckpt_respawn.csv" 2> "$TMP/respawn.log"
grep -q "respawn: relaunching all 4 ranks from checkpoint cycle" "$TMP/respawn.log" || {
  echo "launcher never respawned the fleet:"; cat "$TMP/respawn.log"; exit 1;
}
REF_E=$(tail -1 "$TMP/ckpt_ref.csv" | cut -d, -f6)
RESPAWN_E=$(tail -1 "$TMP/ckpt_respawn.csv" | cut -d, -f6)
if [ -z "$REF_E" ] || [ "$REF_E" != "$RESPAWN_E" ]; then
  echo "recovered energy '$RESPAWN_E' != uninterrupted '$REF_E'"
  diff "$TMP/ckpt_ref.csv" "$TMP/ckpt_respawn.csv" || true
  exit 1
fi
ls "$TMP/ckpt" | grep -q '^ckpt-r.*\.bin$' || {
  echo "no checkpoint files were written:"; ls "$TMP/ckpt"; exit 1;
}

echo "== all checks passed =="
