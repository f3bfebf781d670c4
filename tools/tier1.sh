#!/usr/bin/env sh
# Tier-1 verification: configure, build, run the full ctest suite, then
# smoke the benchmark and profiling CLIs end-to-end. Run from the repo
# root; pass a build directory as $1 (default: build).
set -eu

BUILD_DIR="${1:-build}"

# The main build treats every warning as an error (CMake 3.24+ reads
# CMAKE_COMPILE_WARNING_AS_ERROR; the project adds no option for it).
cmake -B "$BUILD_DIR" -S . -DCMAKE_COMPILE_WARNING_AS_ERROR=ON
cmake --build "$BUILD_DIR" -j
(cd "$BUILD_DIR" && ctest --output-on-failure -j)

MFC="$BUILD_DIR/tools/mfc"

# Benchmark smoke: tiny per-rank memory so the five cases finish fast;
# the YAML summary must carry a phases: section for bench_diff.
"$MFC" bench --mem 0.0002 -n 1 -o "$BUILD_DIR/tier1_bench.yml"
"$MFC" bench_diff "$BUILD_DIR/tier1_bench.yml" "$BUILD_DIR/tier1_bench.yml"

# Overlap-scheduler smoke: the task-graph RHS must be bitwise identical
# to the synchronous path on a decomposed run — compare the combined
# state hashes printed by `mfc run --hash` with and without --overlap.
SYNC_HASH=$("$MFC" run tests/data/sod.case --ranks 2 --hash \
    | grep 'state hash' | awk '{print $3}')
OVER_HASH=$("$MFC" run tests/data/sod.case --ranks 2 --overlap --hash \
    | grep 'state hash' | awk '{print $3}')
[ -n "$SYNC_HASH" ] && [ "$SYNC_HASH" = "$OVER_HASH" ] || {
    echo "tier1: overlap hash $OVER_HASH != sync hash $SYNC_HASH" >&2
    exit 1; }

# Hybrid smoke: a 2-rank x 2-thread run must reproduce the serial state
# hash bitwise — the ranks x threads determinism contract (`mfc run
# --hash` prints the decomposition-invariant global hash).
SERIAL_HASH=$("$MFC" run tests/data/sod.case --hash \
    | grep 'state hash' | awk '{print $3}')
HYBRID_HASH=$("$MFC" run tests/data/sod.case --ranks 2 --threads 2 --hash \
    | grep 'state hash' | awk '{print $3}')
[ -n "$SERIAL_HASH" ] && [ "$SERIAL_HASH" = "$HYBRID_HASH" ] || {
    echo "tier1: hybrid 2x2 hash $HYBRID_HASH != serial hash $SERIAL_HASH" >&2
    exit 1; }
# The same contract for a 1D case on 4 ranks, split along x, its one
# active axis.
RANKS4_HASH=$("$MFC" run tests/data/sod.case --ranks 4 --hash \
    | grep 'state hash' | awk '{print $3}')
[ "$SERIAL_HASH" = "$RANKS4_HASH" ] || {
    echo "tier1: 4-rank hash $RANKS4_HASH != serial hash $SERIAL_HASH" >&2
    exit 1; }

# Telemetry determinism smoke: the deterministic metrics section written
# by `mfc run --metrics` must be byte-identical across reruns and across
# thread counts — counters merge in name-sorted order from thread-local
# shards, so any partition-dependent count shows up as a cmp failure.
"$MFC" run tests/data/sod.case --ranks 2 --metrics "$BUILD_DIR/tier1_m_a.yml"
"$MFC" run tests/data/sod.case --ranks 2 --metrics "$BUILD_DIR/tier1_m_b.yml"
"$MFC" run tests/data/sod.case --ranks 2 --threads 2 \
    --metrics "$BUILD_DIR/tier1_m_c.yml"
cmp "$BUILD_DIR/tier1_m_a.yml" "$BUILD_DIR/tier1_m_b.yml" || {
    echo "tier1: metrics not reproducible across reruns" >&2; exit 1; }
cmp "$BUILD_DIR/tier1_m_a.yml" "$BUILD_DIR/tier1_m_c.yml" || {
    echo "tier1: metrics not reproducible across thread counts" >&2
    exit 1; }
# The same contract for the bench summary of a decomposed, profiled run:
# rank zone reports never cross the instrumented communicator, so the
# deterministic counters repeat byte for byte.
"$MFC" bench --mem 0.0002 -n 2 -o "$BUILD_DIR/tier1_bench_n2_a.yml"
"$MFC" bench --mem 0.0002 -n 2 -o "$BUILD_DIR/tier1_bench_n2_b.yml"
sed -n '/^metrics:/,$p' "$BUILD_DIR/tier1_bench_n2_a.yml" > "$BUILD_DIR/tier1_bm_a.yml"
sed -n '/^metrics:/,$p' "$BUILD_DIR/tier1_bench_n2_b.yml" > "$BUILD_DIR/tier1_bm_b.yml"
[ -s "$BUILD_DIR/tier1_bm_a.yml" ] && cmp "$BUILD_DIR/tier1_bm_a.yml" "$BUILD_DIR/tier1_bm_b.yml" || {
    echo "tier1: bench -n 2 metrics not reproducible across reruns" >&2
    exit 1; }

# Golden-reader smoke: a golden truncated to zero bytes must fail the
# comparison (non-zero exit), not compare nothing and pass.
GOLDEN_DIR="$BUILD_DIR/tier1_goldens"
rm -rf "$GOLDEN_DIR"
"$MFC" test --generate --max 1 --golden-dir "$GOLDEN_DIR"
UUID=$("$MFC" test --list | head -n 1 | awk '{print $1}')
: > "$GOLDEN_DIR/$UUID/golden.txt"
if "$MFC" test -o "$UUID" --golden-dir "$GOLDEN_DIR"; then
    echo "tier1: a zero-byte golden passed mfc test" >&2
    exit 1
fi

# Kernel microbenchmark smoke: every registered kernel must run and
# report finite timings at a non-default simd width.
"$MFC" ubench --cells 512 --reps 3 --width 2 -o "$BUILD_DIR/tier1_ubench.yml"

# Perf smoke: the grindtime-dominant kernels must stay inside the
# checked-in reference band (tools/ubench_ref.yml, measured in this
# build type at the recorded ISA level) — catches regressions of a
# factor like a reintroduced gather/scatter or a build that lost its host
# ISA flags. Skippable on slow or throttled hosts.
if [ "${MFC_SKIP_PERF_SMOKE:-0}" != "1" ]; then
    "$MFC" ubench --cells 4096 --reps 9 --check tools/ubench_ref.yml

    # Decomposition-sweep smoke: the rank_thread_sweep section must
    # measure every requested R x T combination and bench_diff must
    # render its Decomposition table against itself without failures.
    "$MFC" bench --mem 0.0002 -n 1 --ranks-threads 1x1,2x1,1x2,2x2 \
        -o "$BUILD_DIR/tier1_bench_rt.yml"
    "$MFC" bench_diff "$BUILD_DIR/tier1_bench_rt.yml" \
        "$BUILD_DIR/tier1_bench_rt.yml"
fi

# Profiling smoke: serial and decomposed, with trace + YAML export.
"$MFC" profile --standard 12 --steps 2 --warmup 1 \
    --trace "$BUILD_DIR/tier1_trace.json" --yaml "$BUILD_DIR/tier1_prof.yml"
"$MFC" profile --standard 12 --steps 2 -n 2

# Chaos smoke: a 2-rank 32^3 campaign (one crash, one drop trial) must
# run every trial to completion and detect every detectable fault.
"$MFC" chaos --standard --edge 32 -n 2 --trials 2 --faults crash,drop \
    --steps 6 --interval 3 --seed 7 --dir "$BUILD_DIR" \
    -o "$BUILD_DIR/tier1_chaos.yml"

# Ensemble smoke: a small mixed campaign (regression + bench + chaos +
# UQ) served from one process. Three runs pin the engine's determinism
# contract: run A and run B share a cache directory, so B must be served
# from cache (summary differs only in cache_hits); run C uses a fresh
# cache and different thread count, and its report must be byte-identical
# to A's.
ENS_ARGS="--regression 4 --bench-reps 1 --chaos 1 --uq 4 --edge 10 --steps 2"
rm -rf "$BUILD_DIR/tier1_ens_cache_a" "$BUILD_DIR/tier1_ens_cache_c"
"$MFC" ensemble $ENS_ARGS --threads 2 --dir "$BUILD_DIR" \
    --cache-dir "$BUILD_DIR/tier1_ens_cache_a" -o "$BUILD_DIR/tier1_ens_a.yml"
"$MFC" ensemble $ENS_ARGS --threads 2 --dir "$BUILD_DIR" \
    --cache-dir "$BUILD_DIR/tier1_ens_cache_a" -o "$BUILD_DIR/tier1_ens_b.yml" \
    | grep -q "cache hits 9" || {
        echo "tier1: ensemble warm re-run did not hit the cache" >&2; exit 1; }
"$MFC" ensemble $ENS_ARGS --threads 1 --dir "$BUILD_DIR" \
    --cache-dir "$BUILD_DIR/tier1_ens_cache_c" -o "$BUILD_DIR/tier1_ens_c.yml"
cmp "$BUILD_DIR/tier1_ens_a.yml" "$BUILD_DIR/tier1_ens_c.yml" || {
    echo "tier1: ensemble report not reproducible across thread counts" >&2
    exit 1; }

# Profiler overhead budget (<2% with zones enabled), when the bench
# binary was built.
if [ -x "$BUILD_DIR/bench/bench_prof_overhead" ]; then
    "$BUILD_DIR/bench/bench_prof_overhead" --overhead-check
fi

# Thread-sanitizer smoke: rebuild with MFCPP_SANITIZE=thread and run the
# "thread"- and "sched"-labeled tests (exec layer, a short threaded
# simulation, the ensemble campaign engine, and the task-graph scheduler
# — test_sched carries both labels, so the overlap executor's pollable
# handoff runs under TSan here) so data races in the pencil kernels, the
# campaign scheduler, or the RHS task graph fail tier-1, not production
# runs. The "telemetry" label rides along in both sanitizer legs: the
# registry's thread-local shards are read concurrently by trace sampling
# and crash dumps (TSan), and the log2 bucket arithmetic must stay
# UB-free (UBSan). The "hybrid" label adds the ranks x threads
# composition suites — work-stealing exactly-once and the R x T bitwise
# sweep — so chunk stealing and team-bound rank threads are raced under
# TSan every tier-1 run; the campaign engine's job cursor and stop flag
# are raced through the "thread" label of test_ensemble. MFCPP_SANITIZE=off
# skips (e.g. toolchains without TSan runtimes).
if [ "${MFCPP_SANITIZE:-thread}" = "thread" ]; then
    TSAN_DIR="$BUILD_DIR-tsan"
    cmake -B "$TSAN_DIR" -S . -DMFCPP_SANITIZE=thread
    cmake --build "$TSAN_DIR" -j
    (cd "$TSAN_DIR" && ctest --output-on-failure -L 'thread|sched|layout|telemetry|hybrid')
fi

# Undefined-behavior smoke: rebuild with MFCPP_SANITIZE=undefined and run
# the "simd"- and "layout"-labeled tests. The branch-free Riemann kernels
# compute discarded select lanes; UBSan proves those lanes stay UB-free
# at every width — through the width parity, lane-level kernel, and
# state-pin tests, and through the characteristic-wise WENO sweep, which
# runs the same kernels at W = 1 — and the layout parity suite exercises
# the direct from-field loads of every sweep (lanes along x-pencils, and
# across x-adjacent pencils with halving tail blocks in y/z) under the
# same scrutiny. The "io" label adds the golden reader's tests, whose seeded
# mutation smoke feeds it damaged files.
# MFCPP_SANITIZE=off skips every sanitizer leg.
if [ "${MFCPP_SANITIZE:-undefined}" != "off" ]; then
    UBSAN_DIR="$BUILD_DIR-ubsan"
    cmake -B "$UBSAN_DIR" -S . -DMFCPP_SANITIZE=undefined
    cmake --build "$UBSAN_DIR" -j
    (cd "$UBSAN_DIR" && ctest --output-on-failure -L 'simd|layout|telemetry|io')
fi

# Address-sanitizer leg: rebuild with MFCPP_SANITIZE=address and run the
# whole suite, so an out-of-bounds access, a use after free or a leak on
# any path the tests reach (the readers of case files, goldens, YAML and
# checkpoints included) fails tier-1.
if [ "${MFCPP_SANITIZE:-address}" != "off" ]; then
    ASAN_DIR="$BUILD_DIR-asan"
    cmake -B "$ASAN_DIR" -S . -DMFCPP_SANITIZE=address
    cmake --build "$ASAN_DIR" -j
    (cd "$ASAN_DIR" && ctest --output-on-failure -j)
fi

echo "tier1: OK"
