#!/usr/bin/env bash
# Pre-merge check: tier-1 build + tests, then the same suite under
# ASan+UBSan (catches the memory/UB class of failures the fault-injection
# and failure-handling paths are designed to survive), then the concurrent
# suites under TSan. --skip-sanitize skips both sanitizer builds.
#
# Usage: scripts/check.sh [--skip-sanitize]
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || echo 4)"

echo "== tier-1: Release build + ctest =="
cmake --preset release >/dev/null
cmake --build --preset release -j "$JOBS"
ctest --test-dir build --output-on-failure -j "$JOBS"

# Re-run the suite under each compiled-in SIMD dispatch tier: the kernel
# layer promises identical behavior under NVM_SIMD=scalar and every vector
# tier the host can run (avx2 / avx512 on x86 with the cpuinfo flags, neon
# on aarch64). Unsupported legs are skipped cleanly, so the same script
# works on any host.
echo "== tier-1: ctest under NVM_SIMD=scalar =="
NVM_SIMD=scalar ctest --test-dir build --output-on-failure -j "$JOBS"
if grep -q '\bavx2\b' /proc/cpuinfo 2>/dev/null; then
  echo "== tier-1: ctest under NVM_SIMD=avx2 =="
  NVM_SIMD=avx2 ctest --test-dir build --output-on-failure -j "$JOBS"
else
  echo "== tier-1: NVM_SIMD=avx2 leg skipped (host has no AVX2) =="
fi
if grep -q '\bavx512f\b' /proc/cpuinfo 2>/dev/null \
    && grep -q '\bavx512bw\b' /proc/cpuinfo 2>/dev/null \
    && grep -q '\bavx512dq\b' /proc/cpuinfo 2>/dev/null \
    && grep -q '\bavx512vl\b' /proc/cpuinfo 2>/dev/null; then
  echo "== tier-1: ctest under NVM_SIMD=avx512 =="
  NVM_SIMD=avx512 ctest --test-dir build --output-on-failure -j "$JOBS"
else
  echo "== tier-1: NVM_SIMD=avx512 leg skipped (host lacks AVX-512 F/BW/DQ/VL) =="
fi
if [[ "$(uname -m)" == "aarch64" || "$(uname -m)" == "arm64" ]]; then
  echo "== tier-1: ctest under NVM_SIMD=neon =="
  NVM_SIMD=neon ctest --test-dir build --output-on-failure -j "$JOBS"
else
  echo "== tier-1: NVM_SIMD=neon leg skipped (not an AArch64 host) =="
fi

echo "== tier-1: observability smoke (quickstart manifest) =="
MANIFEST=/tmp/nvmrobust_check_manifest.json
rm -f "$MANIFEST"
./build/examples/nvmrobust_cli quickstart --metrics-out "$MANIFEST"
if command -v python3 >/dev/null 2>&1; then
  python3 - "$MANIFEST" <<'EOF'
import json, sys
m = json.load(open(sys.argv[1]))
assert m["run"] == "cli/quickstart", m["run"]
assert m["metrics"]["solver/solves"] > 0, "solver/solves must be nonzero"
assert m["xbar"]["rows"] > 0
print("manifest ok: %d metrics, %d spans" % (len(m["metrics"]), len(m["spans"])))
EOF
else
  # Fallback: grep-level sanity when python3 is unavailable.
  grep -q '"run": "cli/quickstart"' "$MANIFEST"
  grep -q '"solver/solves": [1-9]' "$MANIFEST"
  echo "manifest ok (grep check)"
fi

# Seconds-long serving smoke: open-loop traffic against the micro-batching
# service; the run must shed nothing at this modest load and must write a
# manifest carrying the serve metrics.
serve_smoke() {
  local cli="$1" manifest="$2"
  rm -f "$manifest"
  "$cli" serve --requests 200 --rate 1500 --queue 1024 --metrics-out "$manifest"
  if command -v python3 >/dev/null 2>&1; then
    python3 - "$manifest" <<'EOF'
import json, sys
m = json.load(open(sys.argv[1]))
assert m["run"] == "cli/serve", m["run"]
assert m["results"]["requests_shed"] == 0, "serve smoke must not shed"
assert m["results"]["requests_ok"] == 200, m["results"]["requests_ok"]
assert m["results"]["throughput_rps"] > 0
assert m["metrics"]["serve/batches"] > 0
print("serve manifest ok: %.0f rps, p99 %.3f ms"
      % (m["results"]["throughput_rps"], m["results"]["latency_p99_ms"]))
EOF
  else
    grep -q '"run": "cli/serve"' "$manifest"
    grep -q '"requests_shed": 0' "$manifest"
    echo "serve manifest ok (grep check)"
  fi
}

echo "== tier-1: serving smoke (micro-batching service) =="
serve_smoke ./build/examples/nvmrobust_cli /tmp/nvmrobust_check_serve.json

# Sharded-cluster smoke: routed open-loop traffic across two shards at a
# load well below saturation must shed nothing, and round-robin dispatch
# must provably exercise both shards (least_loaded would park this light
# load on shard 0 via its lowest-index tie-break).
cluster_smoke() {
  local cli="$1" manifest="$2"
  rm -f "$manifest"
  "$cli" serve_cluster --requests 240 --rate 1200 --shards 2 \
    --policy round_robin --queue 1024 --metrics-out "$manifest"
  if command -v python3 >/dev/null 2>&1; then
    python3 - "$manifest" <<'EOF'
import json, sys
m = json.load(open(sys.argv[1]))
assert m["run"] == "cli/serve_cluster", m["run"]
r = m["results"]
assert r["requests_shed"] == 0, "cluster smoke must not shed below saturation"
assert r["requests_ok"] == 240, r["requests_ok"]
assert r["shard0_ok"] > 0 and r["shard1_ok"] > 0, \
    "round-robin must serve from both shards: %r" % r
assert r["shard0_ok"] + r["shard1_ok"] == r["requests_ok"]
print("cluster manifest ok: %.0f rps, shard split %d/%d"
      % (r["throughput_rps"], r["shard0_ok"], r["shard1_ok"]))
EOF
  else
    grep -q '"run": "cli/serve_cluster"' "$manifest"
    grep -q '"requests_shed": 0' "$manifest"
    echo "cluster manifest ok (grep check)"
  fi
}

# Drain-under-fire leg: submitter threads race cluster.drain(); the CLI
# itself exits nonzero if any request goes unaccounted.
cluster_drain_smoke() {
  local cli="$1" manifest="$2"
  rm -f "$manifest"
  "$cli" serve_cluster --requests 160 --shards 2 --rate 0 --drain_race 1 \
    --metrics-out "$manifest"
  if command -v python3 >/dev/null 2>&1; then
    python3 - "$manifest" <<'EOF'
import json, sys
m = json.load(open(sys.argv[1]))
assert m["results"]["all_accounted"] == 1, m["results"]
print("cluster drain race ok: %d ok / %d shutdown"
      % (m["results"]["requests_ok"], m["results"]["requests_shutdown"]))
EOF
  fi
}

echo "== tier-1: serving-cluster smoke (2 shards, round-robin) =="
cluster_smoke ./build/examples/nvmrobust_cli /tmp/nvmrobust_check_cluster.json

# Fleet-lifetime smoke: the physics and the scheduler must both show
# through at toy scale. Whole-fleet evaluation (--sample 0) keeps the
# per-epoch means exact, so the assertions are deterministic.
fleet_smoke_never() {
  local cli="$1" manifest="$2"
  rm -f "$manifest"
  "$cli" fleet_sim --policy never --chips 5 --epochs 4 --sample 0 \
    --n 24 --dt 2 --metrics-out "$manifest"
  python3 - "$manifest" <<'EOF'
import json, sys
m = json.load(open(sys.argv[1]))
acc = m["series"]["fleet/clean_acc"]
assert all(b <= a for a, b in zip(acc, acc[1:])), \
    "never-policy fleet accuracy must decline monotonically: %r" % acc
assert acc[0] - acc[-1] >= 4.0, "drift should cost several points: %r" % acc
assert m["results"]["fleet/total_reprograms"] == 0
assert m["results"]["fleet/total_recal_energy_nj"] == 0
print("fleet never-policy ok: clean %r, zero maintenance" % acc)
EOF
}

fleet_smoke_always() {
  local cli="$1" manifest="$2"
  rm -f "$manifest"
  "$cli" fleet_sim --policy always --chips 3 --epochs 2 --sample 0 \
    --n 16 --dt 2 --metrics-out "$manifest"
  python3 - "$manifest" <<'EOF'
import json, sys
m = json.load(open(sys.argv[1]))
r = m["results"]
assert r["fleet/total_sla_violations"] == 0, \
    "always-policy fleet must hold the SLA: %r" % r
assert r["fleet/total_reprograms"] == r["fleet/n_chips"] * r["fleet/epochs"]
assert r["fleet/maintenance_intensity"] == 1.0, r["fleet/maintenance_intensity"]
print("fleet always-policy ok: %d reprograms, zero SLA violations"
      % r["fleet/total_reprograms"])
EOF
}

if command -v python3 >/dev/null 2>&1; then
  echo "== tier-1: fleet lifetime smoke (never + always policies) =="
  fleet_smoke_never ./build/examples/nvmrobust_cli /tmp/nvmrobust_check_fleet_never.json
  fleet_smoke_always ./build/examples/nvmrobust_cli /tmp/nvmrobust_check_fleet_always.json
else
  echo "== tier-1: fleet smoke skipped (needs python3 for manifest checks) =="
fi

# Perf-regression gate (scripts/perf_gate.py): the committed BENCH_*.json
# baselines must gate cleanly against themselves, the gate must actually
# catch an injected regression (negative test), and a fresh quickstart-
# scale candidate run must pass its structural + accuracy specs.
if command -v python3 >/dev/null 2>&1; then
  echo "== tier-1: perf gate (self-compare + negative test + fresh quickstart) =="
  python3 scripts/perf_gate.py --baseline . --candidate . --strict

  GATE_TMP="$(mktemp -d /tmp/nvmrobust_perf_gate.XXXXXX)"
  trap 'rm -rf "$GATE_TMP"' EXIT
  cp BENCH_*.json "$GATE_TMP/"
  python3 - "$GATE_TMP" <<'EOF'
import json, sys
path = sys.argv[1] + "/BENCH_mvm_perf.json"
d = json.load(open(path))
d["metrics"]["bench/simd/gflops"] *= 0.4  # far outside every band
json.dump(d, open(path, "w"))
EOF
  if python3 scripts/perf_gate.py --baseline . --candidate "$GATE_TMP" \
      >/dev/null 2>&1; then
    echo "FAIL: perf gate accepted an injected 60% gflops regression" >&2
    exit 1
  fi
  echo "perf gate negative test ok: injected regression rejected"

  # Fresh candidate at quickstart scale, gated non-strict so only the
  # quickstart specs apply (the heavyweight benches are not re-run here).
  rm -f "$GATE_TMP"/BENCH_*.json
  ./build/examples/nvmrobust_cli quickstart \
    --metrics-out "$GATE_TMP/BENCH_quickstart.json" >/dev/null
  python3 scripts/perf_gate.py --baseline . --candidate "$GATE_TMP"
else
  echo "== tier-1: perf gate skipped (needs python3) =="
fi

# Thread-count identity legs. Every result is bit-identical for any
# NVM_THREADS: the quickstart accuracy and every served label must match
# exactly between 1 and 4 threads. The serve parameters are the shed-free
# smoke parameters (big queue, modest rate), so the labels checksum covers
# identical request sets on both legs.
thread_identity_check() {
  local cli="$1" tag="$2"
  local m1=/tmp/nvmrobust_check_threads1.json m4=/tmp/nvmrobust_check_threads4.json
  rm -f "$m1" "$m4"
  NVM_THREADS=1 "$cli" quickstart --metrics-out "$m1" >/dev/null
  NVM_THREADS=4 "$cli" quickstart --metrics-out "$m4" >/dev/null
  python3 - "$m1" "$m4" <<'EOF'
import json, sys
a, b = (json.load(open(p)) for p in sys.argv[1:3])
assert a["results"]["hw_accuracy"] == b["results"]["hw_accuracy"], \
    "quickstart accuracy differs between 1 and 4 threads: %r vs %r" % (
        a["results"]["hw_accuracy"], b["results"]["hw_accuracy"])
assert b["metrics"].get("puma/tiled/matmuls", 0) > 0, \
    "quickstart never ran a tiled matmul"
print("thread identity ok (quickstart): hw_accuracy %.2f on both"
      % a["results"]["hw_accuracy"])
EOF
  rm -f "$m1" "$m4"
  NVM_THREADS=1 "$cli" serve --requests 200 --rate 1500 --queue 1024 \
    --metrics-out "$m1" >/dev/null
  NVM_THREADS=4 "$cli" serve --requests 200 --rate 1500 --queue 1024 \
    --metrics-out "$m4" >/dev/null
  python3 - "$m1" "$m4" <<'EOF'
import json, sys
a, b = (json.load(open(p)) for p in sys.argv[1:3])
assert a["results"]["requests_shed"] == 0 and b["results"]["requests_shed"] == 0
assert a["results"]["labels_checksum"] == b["results"]["labels_checksum"], \
    "served labels differ between 1 and 4 threads"
print("thread identity ok (serve): labels checksum %d on both"
      % a["results"]["labels_checksum"])
EOF
  echo "thread identity ok ($tag)"
}

if command -v python3 >/dev/null 2>&1; then
  echo "== tier-1: thread-count identity (NVM_THREADS=1 vs 4) =="
  thread_identity_check ./build/examples/nvmrobust_cli release
else
  echo "== tier-1: thread identity legs skipped (needs python3) =="
fi

# Numeric-parsing regression: a fully non-numeric value handed to a double
# flag must produce a warning and a fallback, never an uncaught std::stod
# exception (which aborts the process). "abc" is deliberate — strings like
# "0.1x" never threw (stod half-parses them), so only a fully non-numeric
# value reproduces the original crash.
echo "== tier-1: CLI malformed-double handling =="
STDERR_LOG=/tmp/nvmrobust_check_badflag.log
if ! ./build/examples/nvmrobust_cli serve --requests 40 --rate abc \
    --queue 1024 >/dev/null 2>"$STDERR_LOG"; then
  echo "FAIL: malformed --rate crashed the CLI" >&2
  cat "$STDERR_LOG" >&2
  exit 1
fi
grep -q "is not a valid number" "$STDERR_LOG" || {
  echo "FAIL: malformed --rate produced no warning" >&2
  exit 1
}
echo "malformed-double handling ok: warning + fallback, exit 0"

if [[ "${1:-}" == "--skip-sanitize" ]]; then
  echo "== sanitizer pass skipped =="
  exit 0
fi

echo "== sanitizer: ASan+UBSan build + ctest =="
cmake --preset asan >/dev/null
cmake --build --preset asan -j "$JOBS"
ctest --test-dir build-asan --output-on-failure -j "$JOBS"

echo "== sanitizer: serving smoke under ASan+UBSan =="
serve_smoke ./build-asan/examples/nvmrobust_cli /tmp/nvmrobust_check_serve_asan.json

echo "== sanitizer: cluster drain race under ASan+UBSan =="
cluster_drain_smoke ./build-asan/examples/nvmrobust_cli /tmp/nvmrobust_check_cluster_asan.json

if command -v python3 >/dev/null 2>&1; then
  echo "== sanitizer: thread-count identity under ASan+UBSan =="
  thread_identity_check ./build-asan/examples/nvmrobust_cli asan
fi

if command -v python3 >/dev/null 2>&1; then
  echo "== sanitizer: fleet lifetime smoke under ASan+UBSan =="
  fleet_smoke_always ./build-asan/examples/nvmrobust_cli /tmp/nvmrobust_check_fleet_asan.json
fi

# Trace-event export under ASan: exercises the per-thread ring buffers and
# the atexit flush (the lifetime-bug hotspot), then validates the emitted
# chrome://tracing JSON structurally.
if command -v python3 >/dev/null 2>&1; then
  echo "== sanitizer: trace-event export under ASan+UBSan =="
  TRACE_OUT=/tmp/nvmrobust_check_trace_asan.json
  rm -f "$TRACE_OUT"
  NVM_TRACE_EVENTS="$TRACE_OUT" \
    ./build-asan/examples/nvmrobust_cli quickstart >/dev/null
  python3 scripts/perf_gate.py --validate-trace "$TRACE_OUT"
fi

# Concurrency under ThreadSanitizer: the suites that drive the thread pool,
# the sharded metrics counters, the parallel tiled matmul and its fused slots,
# parallel tile programming and the lazily programmed GENIEx fallback, the
# serving scheduler and cluster, telemetry rings, trace spans and the fleet
# simulator. Only those test binaries are built in the tsan tree; ctest
# fails on any reported race (TSan exits nonzero) or if the filter matches
# nothing.
echo "== sanitizer: concurrent suites under TSan =="
cmake --preset tsan >/dev/null
cmake --build --preset tsan -j "$JOBS" --target test_thread_pool test_simd \
  test_puma test_serve test_serve_cluster test_telemetry test_metrics \
  test_fleet test_xbar_geniex test_hw_semantics
ctest --test-dir build-tsan --output-on-failure -j "$JOBS" --no-tests=error \
  -R '^((ThreadPool|Metrics|TiledMatmul|FusedSlots|Serve|ServeCluster|TelemetryTest|Trace|FleetChip|FleetSim|Scheduler|Sla)\.|HwSemantics\.TiledProgrammingBitIdenticalAcrossThreadCounts$|Geniex\.LazyFallbackProgrammedOnceUnderConcurrentTrips$)'

echo "== all checks passed =="
