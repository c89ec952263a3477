#!/usr/bin/env bash
# TSan gate for the in-epoch parallelism: configures a separate build tree
# with -DPROXDET_SANITIZE=thread, builds it, and runs the `sanitize`-,
# `net`-, `obs`-, `shard`-, `pair_check`-, `engine`- and `predict`-labelled
# suites (thread-pool + determinism tests, the wire/transport suite whose
# transported runs drive the network link while the engine scans fan out,
# the observability suite whose relaxed-atomic counters and mutex-guarded
# sketches are written from those same scans, the sharded serving plane
# whose frontend is only driven from serial commit sections, the
# pair-check suite whose edge scans fan out over the pool across thread
# counts, the detectors end to end, whose Stripe methods build regions
# speculatively on the pool while the driver commits, and the
# prediction models, whose Predict those builds call concurrently) under a
# multi-thread global pool.
# The parallel-scan/serial-commit pattern is only safe if the scans are
# genuinely read-only and the link is only touched from commit sections —
# TSan is the check that they are.
#
# A second pass runs the same labelled suites in the plain `build` tree
# (the tier-1 tree, built here if it is not already) with
# PROXDET_SIMD_FORCE=scalar: dispatch then binds only the scalar kernels,
# so the engines, the pair check and the network suites are proven on the
# scalar backend without a tree of their own. The simd suite's
# SimdDispatchTest.ForceVariablePinsBackendAtFirstUse fails this pass if the
# variable did not pin the scalar backend.
#
# The `socket`-labelled suite (the real-socket UDP backend) runs in every
# labelled leg, most importantly the TSan tree: the epoll loop threads only
# move bytes while the driver thread owns all protocol state, and TSan is
# the proof that the handoff queues are the only shared surface. Socket
# tests skip themselves where socket(2)/bind are unavailable, so the legs
# stay green in sandboxes that forbid networking.
#
# The `latency`-labelled suite (causal tracing + detect->deliver latency
# accounting) also runs in every labelled leg: the tracker is fed from the
# same serial commit sections as the link, and its deterministic digest
# invariance across thread counts is exactly the property TSan must not
# perturb.
#
# A third leg runs every label — `simd`, `pair_check`, `core`, `engine`,
# `predict`, `geom`, `common`, `substrate`, `obs`, `scale`, `net`, `shard`,
# `latency`, `socket` and `sanitize`, the whole tier-1 suite, like the ASan
# leg — under -DPROXDET_SANITIZE=undefined: the branchless lane arithmetic
# in the vector kernels (masked selects, safe-divisor guards) must not hide
# UB — every lane's intermediate math has to be well-defined even where a
# mask discards it, including the pair check's batched gap < r lanes — and
# the radius solve's erf-table index, a double-to-int conversion, is
# checked by -fsanitize=float-cast-overflow across the core suite's 10^6
# solves.
# The `engine` suite (naive detectors, policies, every method against the
# ground truth, the simulation loop, the region detector) runs the same
# kernels end to end; the `predict` suite covers the prediction models.
# The `geom` suite checks the Stripe's single-buffer layout, whose segment
# lanes are pointer offsets into its anchor arrays; `common` (RNG, the
# folded-normal CDF, the small dense linear algebra RMF fits with, the
# ASCII tables) and `substrate` (road network, trajectories, interest
# graph) are the plain numeric code everything else stands on. `obs`
# covers the quantile sketch's signed bucket offsets beside its INT32_MIN /
# INT32_MAX sentinel buckets, and `scale` the streaming world's ring index
# arithmetic. `net`, `shard`, `latency` and `socket` run the wire decoders
# (varints, zigzag deltas, the quantized-delta polyline) and the transport's
# sequence arithmetic over arbitrary bytes; `sanitize` the thread pool and
# the determinism runs.
#
# A fourth leg runs the protocol and observability suites — `net`, `shard`,
# `latency`, `socket` and `obs` — plus `geom`, `common` and `substrate`,
# the kernel and builder suites — `simd`, `pair_check`, `core`, `engine`
# and `predict` — and the `scale` and `sanitize` suites (the streaming
# world's position ring and ground-truth replay; the thread pool and the
# determinism runs) under -DPROXDET_SANITIZE=address. The transport
# recycles frame buffers through a pool, keeps pending frames in per-peer
# ring slots, decodes into a per-thread scratch frame and records protocol
# events into fixed ring arrays; a Stripe's kernels read its segment end
# points through the anchor arrays offset by one; the vector kernels load
# whole lane blocks and hand the remainder to the scalar tail; and the
# stripe builder stages every friend constraint into reused per-thread SoA
# scratch and reduces over lane ranges of it; a streaming world serves
# positions from a fixed ring of epoch rows, and the resident build helpers
# hand their slots back to the driver across threads: a use-after-free or
# an overrun in any of them shows up here.
#
#   scripts/check.sh [extra cmake args...]
#
# BUILD_DIR / UBSAN_BUILD_DIR / ASAN_BUILD_DIR override the sanitizer trees
# (defaults: build-tsan, build-ubsan and build-asan, kept separate from the
# plain `build` tree so the configurations never fight).
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build-tsan}"
UBSAN_BUILD_DIR="${UBSAN_BUILD_DIR:-build-ubsan}"
ASAN_BUILD_DIR="${ASAN_BUILD_DIR:-build-asan}"
JOBS="$(nproc)"
LABELS='sanitize|net|obs|shard|pair_check|simd|socket|latency|scale|engine|predict'

cmake -B "$BUILD_DIR" -S . -DPROXDET_SANITIZE=thread "$@"
cmake --build "$BUILD_DIR" -j "$JOBS"
PROXDET_THREADS="${PROXDET_THREADS:-4}" \
  ctest --test-dir "$BUILD_DIR" -L "$LABELS" --output-on-failure -j "$JOBS"

cmake -B build -S . "$@"
cmake --build build -j "$JOBS"
PROXDET_SIMD_FORCE=scalar \
  ctest --test-dir build -L "$LABELS" --output-on-failure -j "$JOBS"

cmake -B "$UBSAN_BUILD_DIR" -S . -DPROXDET_SANITIZE=undefined "$@"
cmake --build "$UBSAN_BUILD_DIR" -j "$JOBS"
ctest --test-dir "$UBSAN_BUILD_DIR" \
  -L 'simd|pair_check|core|engine|predict|geom|common|substrate|obs|scale|net|shard|latency|socket|sanitize' \
  --output-on-failure -j "$JOBS"

cmake -B "$ASAN_BUILD_DIR" -S . -DPROXDET_SANITIZE=address "$@"
cmake --build "$ASAN_BUILD_DIR" -j "$JOBS"
ctest --test-dir "$ASAN_BUILD_DIR" \
  -L 'net|shard|latency|socket|obs|geom|common|substrate|simd|pair_check|core|engine|predict|scale|sanitize' \
  --output-on-failure -j "$JOBS"
