#!/usr/bin/env bash
# Observability smoke test for the bench binaries: runs a quick-mode bench
# subset with JSON emission pointed at a scratch directory, then checks
# that every artifact — BENCH_* snapshots, REPORT_* run reports and the
# TRACE_* Chrome trace — parses as valid JSON, that the net bench's
# counter-vs-CommStats reconciliation verdict is "exact" (the bench aborts
# on mismatch, but assert it here too), and that the trace actually holds
# spans. This is the cheap end-to-end proof that the observability layer
# stays wired up; scripts/check.sh is the race check, ctest -L obs the
# unit/integration suite.
#
#   scripts/bench_smoke.sh [build-dir]    (default: build)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build}"
if [[ ! -d "$BUILD_DIR/bench" ]]; then
  echo "error: $BUILD_DIR/bench not found — build the tree first" >&2
  exit 1
fi

OUT="$(mktemp -d)"
trap 'rm -rf "$OUT"' EXIT

# Quick-mode sweeps, artifacts into the scratch dir. micro_detector also
# enforces the deterministic-metrics digest across its thread sweep;
# micro_net emits TRACE_net.json + REPORT_net.json and exits non-zero if
# its counters fail to reconcile with CommStats.
# micro_socket runs the detector pipeline over real UDP loopback sockets
# and FATALs unless every method's alerts and message counts match the
# in-process and SimNet runs (and the loss cell loses no alerts).
# micro_latency runs traced cells (SimNet virtual + UDP wall clock) and
# FATALs unless the detect->deliver tracker reconciles with CommStats
# alert counts to the unit and the live stats endpoint answers.
for bench in fig9_friends micro_detector micro_net micro_socket \
             micro_latency micro_scale; do
  echo "== $bench (quick) =="
  PROXDET_QUICK=1 PROXDET_BENCH_JSON="$OUT" "$BUILD_DIR/bench/$bench" \
    > /dev/null
done

shopt -s nullglob
artifacts=("$OUT"/*.json)
if [[ ${#artifacts[@]} -eq 0 ]]; then
  echo "FAIL: no JSON artifacts emitted" >&2
  exit 1
fi
for artifact in "${artifacts[@]}"; do
  if ! python3 -m json.tool "$artifact" > /dev/null; then
    echo "FAIL: $artifact is not valid JSON" >&2
    exit 1
  fi
  echo "ok: $(basename "$artifact")"
done

for required in TRACE_net.json REPORT_net.json BENCH_socket.json \
                BENCH_latency.json BENCH_scale.json; do
  if [[ ! -f "$OUT/$required" ]]; then
    echo "FAIL: expected artifact $required was not emitted" >&2
    exit 1
  fi
done

# BENCH_socket.json schema: the socket bench must carry its parity verdict
# (UDP loopback bit-exact with the in-process engine AND the SimNet
# oracle), a live loss cell, and a throughput sweep with real RTT sketches
# (p99 > 0) whose byte counters reconciled with CommStats. On hosts where
# socket(2) is forbidden the bench writes {"udp_available": false} and the
# schema only checks the stub shape.
python3 - "$OUT/BENCH_socket.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
assert doc.get("figure") == "socket", "figure != socket"
for key in ("udp_available", "parity", "loss", "throughput"):
    assert key in doc, f"missing field {key}"
if doc["udp_available"]:
    assert doc["backend"] in ("epoll", "poll"), "unknown readiness backend"
    assert doc["parity"], "empty parity matrix"
    for row in doc["parity"]:
        assert row["alerts_exact"] is True, f"parity row lost alerts: {row}"
        assert row["same_counts_vs_inprocess"] is True, \
            f"parity row diverged from in-process: {row}"
        assert row["same_counts_vs_simnet"] is True, \
            f"parity row diverged from SimNet oracle: {row}"
        assert row["shards"] >= 2, "parity must exercise the sharded plane"
    assert doc["loss"], "empty loss cell"
    for row in doc["loss"]:
        assert row["alerts_exact"] is True, f"loss row lost alerts: {row}"
        assert row["drops"] > 0 and row["retransmits"] > 0, \
            f"loss row induced nothing: {row}"
    assert doc["throughput"], "empty throughput sweep"
    assert any(r["shards"] >= 2 for r in doc["throughput"]), \
        "throughput sweep never sharded"
    for row in doc["throughput"]:
        assert row["frames_per_s"] > 0, f"dead throughput row: {row}"
        assert row["rtt_p99_s"] > 0, f"no RTT samples: {row}"
        assert row["rtt_p99_s"] >= row["rtt_p50_s"], f"p99 < p50: {row}"
        assert row["reconcile_exact"] is True, \
            f"socket bytes failed to reconcile with CommStats: {row}"
else:
    assert doc["parity"] == [] and doc["throughput"] == [], \
        "stub artifact carries data rows"
EOF
echo "ok: BENCH_socket.json schema + loopback parity"

# BENCH_latency.json schema: every traced cell must have reconciled its
# detect->deliver tracker with the engine's CommStats alert count to the
# unit (delivered == alerts == sketch samples — the bench aborts on
# mismatch, but assert the committed verdicts here too), the virtual rows
# must carry real sketches, and the live stats endpoint must have answered
# both forms. The wall half is empty where socket(2) is forbidden.
python3 - "$OUT/BENCH_latency.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
assert doc.get("figure") == "latency", "figure != latency"
for key in ("udp_available", "stats_endpoint", "virtual", "wall"):
    assert key in doc, f"missing field {key}"
assert doc["virtual"], "empty virtual (SimNet) half"
for row in doc["virtual"] + doc["wall"]:
    assert row["reconcile_exact"] is True, f"tracker not reconciled: {row}"
    assert row["delivered"] == row["alerts"] == row["samples"], \
        f"delivered/alerts/samples disagree: {row}"
    assert row["shards"] >= 2, "latency cells must exercise the sharded plane"
    if row["alerts"] > 0:
        assert row["p999_s"] >= row["p99_s"] >= row["p50_s"] > 0, \
            f"degenerate latency sketch: {row}"
drops = {row["drop_rate"] for row in doc["virtual"]}
assert 0.0 in drops and len(drops) >= 2, "virtual half never swept drop rate"
probe = doc["stats_endpoint"]
if probe["attempted"]:
    assert probe["metrics_ok"] and probe["snapshot_ok"], \
        f"live stats endpoint misbehaved: {probe}"
if doc["udp_available"]:
    assert doc["wall"], "UDP available but wall half empty"
EOF
echo "ok: BENCH_latency.json schema + tracker reconciliation"

# BENCH_scale.json schema: the streaming substrate must have proven
# streaming == materialized bit-exactness across its parity matrix (the
# bench aborts on mismatch, but assert the committed verdicts too), every
# scenario row must have run, and the big streaming cell must be under the
# committed heap ceiling and over the throughput floor.
python3 - "$OUT/BENCH_scale.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
assert doc.get("figure") == "scale", "figure != scale"
for key in ("parity", "parity_exact", "scenarios", "million",
            "bytes_per_user_ceiling", "epochs_per_sec_floor"):
    assert key in doc, f"missing field {key}"
assert doc["parity_exact"] is True, "streaming != materialized somewhere"
assert doc["parity"], "empty parity matrix"
for row in doc["parity"]:
    assert row["exact"] is True, f"parity row not exact: {row}"
methods = {row["method"] for row in doc["parity"]}
assert len(methods) == 8, f"parity covers {len(methods)} methods, not 8"
modes = {(row["mode"], row["value"]) for row in doc["parity"]}
for need in (("threads", 1), ("threads", 4), ("shards", 1), ("shards", 2)):
    assert need in modes, f"parity matrix missing {need}"
names = {row["scenario"] for row in doc["scenarios"]}
assert names == {"commuter_rush", "flash_crowd", "heavy_churn",
                 "mixed_fleet"}, f"scenario pack incomplete: {names}"
ceiling = doc["bytes_per_user_ceiling"]
floor = doc["epochs_per_sec_floor"]
for row in doc["scenarios"]:
    assert row["epochs_per_sec"] > 0, f"degenerate throughput row: {row}"
    assert 0 < row["bytes_per_user_stream"] <= ceiling, \
        f"scenario row over the heap ceiling: {row}"
big = doc["million"]
assert big["bytes_per_user"] <= ceiling, f"streaming cell over ceiling: {big}"
assert big["epochs_per_sec"] >= floor, f"streaming cell under floor: {big}"
EOF
echo "ok: BENCH_scale.json schema + streaming parity"

if ! grep -q '"counters_reconcile": "exact"' "$OUT/REPORT_net.json"; then
  echo "FAIL: REPORT_net.json reconciliation verdict is not \"exact\"" >&2
  exit 1
fi
if ! grep -q '"ph": "X"' "$OUT/TRACE_net.json"; then
  echo "FAIL: TRACE_net.json holds no complete spans" >&2
  exit 1
fi

echo "bench smoke OK: ${#artifacts[@]} artifacts valid in $OUT"
