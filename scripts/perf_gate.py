#!/usr/bin/env python3
"""Performance-regression gate over committed BENCH_*.json run manifests.

Two modes:

  perf_gate.py --baseline DIR --candidate DIR [--tol-scale F] [--strict]
      Compare candidate manifests against baselines metric-by-metric with
      per-metric tolerance bands (SPECS below). Exit 1 on any regression.
      Non-strict mode skips manifests/keys missing from the candidate set
      (so a quickstart-only candidate run gates just the quickstart spec);
      --strict fails on anything missing.

  perf_gate.py --validate-trace FILE
      Structurally validate a Chrome-trace JSON export (trace.cpp
      flush_events): a traceEvents array whose B/E duration events are
      balanced per (pid, tid) with monotone non-decreasing timestamps.

Tolerance bands are deliberately wide: the benches run on shared CI
hardware, and this gate exists to catch step-change regressions (a
disabled SIMD tier, a solver schedule falling off its fast path, batching
losing its saturation win), not single-digit-percent noise. Scale all
bands with --tol-scale or NVM_PERF_GATE_TOL (flag wins; e.g. 2.0 doubles
every band for a noisy machine).

No third-party imports — standard library only.
"""

import argparse
import json
import os
import sys

# One spec per gated number:
#   (file, section, key, direction, band)
# direction:
#   "higher" — bigger is better; candidate must be >= baseline * (1 - band)
#   "lower"  — smaller is better; candidate must be <= baseline * (1 + band)
#   "min"    — structural floor; candidate must be >= band (baseline unused,
#              tolerance scaling does not apply)
SPECS = [
    # Kernel + solver throughput (BENCH_mvm_perf.json).
    ("BENCH_mvm_perf.json", "metrics", "bench/simd/gflops", "higher", 0.30),
    ("BENCH_mvm_perf.json", "metrics",
     "bench/warm_start/sweeps_per_matmul_cold", "lower", 0.10),
    ("BENCH_mvm_perf.json", "metrics",
     "bench/warm_start/sweeps_per_matmul_warm", "lower", 0.10),
    ("BENCH_mvm_perf.json", "metrics",
     "bench/multi_rhs/multi_b128_cols_per_sec", "higher", 0.35),
    ("BENCH_mvm_perf.json", "metrics",
     "bench/solver/ordering_redblack_ms", "lower", 0.60),
    # GENIEx evaluation on a stage-1 ResNet-20 tile shape (BM_GeniexMvmActive:
    # 64 rows x 16 columns active, 144 samples).
    ("BENCH_mvm_perf.json", "metrics",
     "bench/geniex/active_r64_c16_n144_us", "lower", 0.50),
    # Programming one ResNet-20's tile slots onto 64x64 GENIEx crossbars on
    # a 2-thread pool (BM_TiledProgram/2): the first-forward cost of every
    # deployment.
    ("BENCH_mvm_perf.json", "metrics",
     "bench/tiled/program_resnet20_t2_ms", "lower", 0.50),
    # The digital stage-3 ResNet-20 conv GEMM (BM_FloatGemmReference/3:
    # 32x288 times 288x9, all 9 columns in the kernels' tail lanes) and one
    # digital attack input gradient on a ResNet-20 (BM_DigitalInputGrad).
    ("BENCH_mvm_perf.json", "metrics", "bench/gemm/stage3_us", "lower", 0.50),
    ("BENCH_mvm_perf.json", "metrics",
     "bench/attack/input_grad_us", "lower", 0.50),
    # Fused tile slots: fused slots must beat unfused ones by
    # >= 1.2x on the batched fast-noise matmul — a structural floor, not a
    # baseline comparison, so a landed fusion can never silently regress
    # into a slowdown.
    ("BENCH_mvm_perf.json", "metrics",
     "bench/plan/tiled_matmul_speedup", "min", 1.2),
    # Serving layer (BENCH_serve.json).
    ("BENCH_serve.json", "results",
     "b32_saturation_throughput_rps", "higher", 0.35),
    ("BENCH_serve.json", "results", "saturation_speedup", "higher", 0.30),
    ("BENCH_serve.json", "results", "plan_matmul_speedup", "min", 1.2),
    # Sharded cluster (BENCH_serve_cluster.json): aggregate saturation and
    # the worst per-shard tail; shed fraction under 2.5x overload is rate-
    # coupled, so it gets the widest band.
    ("BENCH_serve_cluster.json", "results",
     "aggregate_saturation_rps", "higher", 0.35),
    ("BENCH_serve_cluster.json", "results",
     "s4_shard_p99_ms_max", "lower", 0.75),
    ("BENCH_serve_cluster.json", "results",
     "overload_shed_frac", "lower", 0.60),
    # Fleet policy scores (BENCH_fleet.json): accuracy-per-cost, nearly
    # deterministic, so tight-ish bands.
    ("BENCH_fleet.json", "results", "fleet/threshold/score", "higher", 0.25),
    ("BENCH_fleet.json", "results", "fleet/budgeted/score", "higher", 0.25),
    # Quickstart smoke (BENCH_quickstart.json): structure + accuracy.
    ("BENCH_quickstart.json", "metrics", "solver/solves", "min", 1),
    ("BENCH_quickstart.json", "metrics", "puma/tiled/matmuls", "min", 1),
    ("BENCH_quickstart.json", "results", "hw_accuracy", "higher", 0.10),
]


def load_manifest(directory, name):
    path = os.path.join(directory, name)
    if not os.path.exists(path):
        return None
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


def lookup(manifest, section, key):
    value = manifest.get(section, {}).get(key)
    if isinstance(value, dict):  # histogram delta: gate on the count
        value = value.get("count")
    return value


def run_gate(baseline_dir, candidate_dir, tol_scale, strict):
    failures, checked, skipped = [], 0, []
    for fname, section, key, direction, band in SPECS:
        base = load_manifest(baseline_dir, fname)
        cand = load_manifest(candidate_dir, fname)
        if cand is None or (base is None and direction != "min"):
            skipped.append(f"{fname} missing ({'candidate' if cand is None else 'baseline'})")
            if strict:
                failures.append(f"{fname}: manifest missing")
            continue
        cv = lookup(cand, section, key)
        bv = lookup(base, section, key) if base is not None else None
        if cv is None or (direction != "min" and bv is None):
            skipped.append(f"{fname}:{key} missing")
            if strict:
                failures.append(f"{fname}: {section}/{key} missing")
            continue
        checked += 1
        if direction == "min":
            ok = cv >= band
            detail = f"{cv:g} >= floor {band:g}"
        elif direction == "higher":
            limit = bv * (1.0 - band * tol_scale)
            ok = cv >= limit
            detail = f"{cv:g} vs baseline {bv:g} (limit {limit:g}, -{band * tol_scale:.0%})"
        else:  # lower
            limit = bv * (1.0 + band * tol_scale)
            ok = cv <= limit
            detail = f"{cv:g} vs baseline {bv:g} (limit {limit:g}, +{band * tol_scale:.0%})"
        status = "ok  " if ok else "FAIL"
        print(f"  [{status}] {fname} {section}/{key}: {detail}")
        if not ok:
            failures.append(f"{fname}: {section}/{key} regressed ({detail})")
    for s in skipped:
        print(f"  [skip] {s}")
    print(f"perf gate: {checked} checked, {len(skipped)} skipped, "
          f"{len(failures)} failed (tol scale {tol_scale:g})")
    if failures:
        for f in failures:
            print(f"REGRESSION: {f}", file=sys.stderr)
        return 1
    if checked == 0:
        print("perf gate: nothing checked", file=sys.stderr)
        return 1
    return 0


def validate_trace(path):
    """Structural Chrome-trace validation; returns 0 iff well-formed."""
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    events = doc["traceEvents"] if isinstance(doc, dict) else doc
    if not isinstance(events, list):
        print("trace: traceEvents is not a list", file=sys.stderr)
        return 1
    stacks = {}  # (pid, tid) -> [name, ...] open B events
    last_ts = {}  # (pid, tid) -> last timestamp seen
    n_b = n_e = 0
    for i, e in enumerate(events):
        ph = e.get("ph")
        if ph not in ("B", "E"):
            continue  # metadata/counter events are fine, just not checked
        for field in ("name", "ts", "pid", "tid"):
            if field not in e:
                print(f"trace: event {i} missing '{field}'", file=sys.stderr)
                return 1
        key = (e["pid"], e["tid"])
        ts = e["ts"]
        if key in last_ts and ts < last_ts[key]:
            print(f"trace: event {i} time goes backwards on {key}: "
                  f"{ts} < {last_ts[key]}", file=sys.stderr)
            return 1
        last_ts[key] = ts
        stack = stacks.setdefault(key, [])
        if ph == "B":
            n_b += 1
            stack.append(e["name"])
        else:
            n_e += 1
            if not stack:
                print(f"trace: event {i} 'E' with empty stack on {key}",
                      file=sys.stderr)
                return 1
            top = stack.pop()
            if top != e["name"]:
                print(f"trace: event {i} 'E' name '{e['name']}' does not "
                      f"match open span '{top}' on {key}", file=sys.stderr)
                return 1
    open_spans = {k: v for k, v in stacks.items() if v}
    if open_spans:
        print(f"trace: unclosed spans at EOF: {open_spans}", file=sys.stderr)
        return 1
    threads = len(last_ts)
    print(f"trace ok: {n_b} B / {n_e} E events balanced across "
          f"{threads} thread(s)")
    if n_b == 0:
        print("trace: no duration events at all", file=sys.stderr)
        return 1
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--baseline", help="directory with baseline BENCH_*.json")
    ap.add_argument("--candidate", help="directory with candidate BENCH_*.json")
    ap.add_argument("--tol-scale", type=float, default=None,
                    help="scale every tolerance band (default: "
                         "NVM_PERF_GATE_TOL or 1.0)")
    ap.add_argument("--strict", action="store_true",
                    help="fail on missing manifests/keys instead of skipping")
    ap.add_argument("--validate-trace", metavar="FILE",
                    help="validate a Chrome-trace JSON export instead of gating")
    args = ap.parse_args()

    if args.validate_trace:
        return validate_trace(args.validate_trace)

    if not args.baseline or not args.candidate:
        ap.error("--baseline and --candidate are required (or --validate-trace)")
    tol = args.tol_scale
    if tol is None:
        tol = float(os.environ.get("NVM_PERF_GATE_TOL", "1.0"))
    if tol <= 0:
        ap.error("--tol-scale must be positive")
    return run_gate(args.baseline, args.candidate, tol, args.strict)


if __name__ == "__main__":
    sys.exit(main())
