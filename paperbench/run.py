#!/usr/bin/env python3
"""Paper-workload benchmark: Table III quick pass, hardware-in-loop PGD and
open-loop serving, timed end to end and per layer.

    python3 paperbench/run.py --workload table3_quick --seed 1 --seconds 30 --trace 0

Run from the repository root. The script
  1. builds paperbench/ (which compiles the repository's libraries from
     source) into .bench_build/paperbench and runs its self-test;
  2. fills the benchmark's own file cache (.bench_build/cache) once, untimed,
     by one pass of every workload in the order table3_quick, hil_pgd,
     serve_open_loop -- the state a user's cache is in; it is never reset
     or reordered afterwards;
  3. runs one workload in one process (paper_bench) with NVM_THREADS set to
     min(2, nproc) (see THREADS), for serve_open_loop with idle CPUs
     polling (see poll.cpp), prints a report -- every figure by name
     and unit, the checks, a provenance block -- and, as the last line, one
     JSON object
     {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics of
     BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.

Workloads (paper_bench.cpp holds the sizes):
  table3_quick    SCIFAR10 / ResNet-20. White-box PGD (paper eps 2/255, 30
                  iterations) and Square (paper eps 4/255, 100 queries), both
                  against the digital net, on 6 test images the seed picks.
                  The clean (first 24 test images), PGD and Square sets are
                  evaluated on the digital net and on the GENIEx crossbars
                  64x64_300k, 32x32_100k, 64x64_100k, in that order, each
                  evaluation on a fresh HwDeployment.
  hil_pgd         One deployment on 64x64_100k; clean accuracy, then PGD
                  (2/255, 30 iterations) through it -- non-ideal forward,
                  ideal backward -- on 3 seeded images, one at a time; then
                  the adversarial set on the same deployment.
  serve_open_loop serve::Server (max_batch 32, flush 200 us) over a
                  TiledLinearBackend of a 16x128 classifier on fast-noise
                  32x32_100k. One client thread sends seeded Poisson
                  arrivals: 2000 requests at 2k req/s ("low"), 6000 at 20k
                  req/s ("high"), then a ladder from 20k to 100k req/s, 0.2 s
                  per step, up to the first step that misses the 20 ms limit.

End-to-end metrics (untraced passes; a run repeats fixed-size passes for
--seconds and reports medians over passes):
  setup_s            median of 5 set-ups in the run: core::prepare,
                     make_geniex and a first deployment (paper workloads);
                     FastNoiseModel, backend programming, server stand-up and
                     one served request (serve).
  run_s              wall time of one pass. serve: the low and high stretches,
                     first due time to last reply.
  clean_acc_min_pct  lowest clean accuracy over the deployed crossbars. serve:
                     share of served labels equal to the digital label of W x.
  peak_rss_mb        peak resident memory of the process.
  p50_ms_low         serve: latency from each request's due time at 2k req/s.
                     paper: latency of one single-image forward on a deployed,
                     programmed crossbar (the evaluation loop sends one image
                     at a time). The first forward after each deployment also
                     programs the tiles; the traced report gives it as
                     puma.first_forward_ms_p50.
  p50_ms_high        serve: the same at 20k req/s. paper: latency of one
                     input-gradient query (one PGD step): on the digital net
                     in table3_quick, through the deployment in hil_pgd.
  slo_rps            serve: highest ladder rate whose p99 meets 20 ms with no
                     failed request, no client lag beyond 20 ms and no growing
                     backlog (median of the step's last tenth within 20 ms).
                     paper: deployed single-image forwards per second.
  The report also prints the tails p90_ms_* and p99_ms_* (the highest
  percentile up to p99 with at least 10 samples beyond it, with the
  quantile used and the sample count). They are not gated: on a shared
  4-vCPU virtual machine, host stalls of 1-20 ms (tens to hundreds per
  8 s) decide the tail of sub-millisecond requests and of parallel passes,
  and its run-to-run spread exceeded the largest allowed bound (0.25).

attempted / failed: paper workloads count crossbar evaluations; one fails if
it throws or if that crossbar's clean accuracy is below twice chance (20%).
serve counts the low and high requests; any reply other than Ok fails.
failed_frac = failed / attempted is printed in the report.

Per-layer metrics (--trace 1: untraced and traced passes alternate; traced
passes run through benchmark-side decorators of MvmModel, AttackModel,
ForwardFn and BatchClassifier; spans go to .bench_build/traces/). The
report prints every figure; the JSON carries those every workload measures.
Self time of a layer is its spans' duration minus the union of their
children. In the paper workloads one thread drives the spans, so the self
times add up to the traced wall time; serve's per-request spans overlap, so
there they are request-seconds. xbar spans are the maximal intervals during
which at least one MVM call (fused chunk kernels included) is running, not
one span per call. Known gap: the tiled matmul's own work around the MVM
calls (quantise, DAC, ADC, shift-add) has no public boundary between the
network layer and the crossbar, so it counts as core self time in the paper
workloads (serve's puma.logits_block span does isolate it).

Checks (correct = false when one fails): adversarial images stay in their
eps ball and in [0, 1]; every pass -- traced or not -- yields identical
accuracies, adversarial-set checksums and served-label checksums; every
served label equals a direct one-request logits_block of that request.
A serve run whose client lagged its schedule by more than the latency limit
is reported INVALID (its latencies count from the due time, so the lag
makes them worse, never better).
trace.overhead_frac compares traced with untraced run_s; serve runs an open
loop whose wall time the schedule fixes, so there it compares the median
latency at the high rate.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["table3_quick", "hil_pgd", "serve_open_loop"]  # cache-fill order
RUN_LIMIT_S = 175.0
# NVM_THREADS for every workload. Not every core: a parallel region waits
# for its slowest worker, and on a shared virtual machine one vCPU that
# the host stalls then stalls the whole region, which made run-to-run
# spread exceed the bounds with 4 of 4 cores in the pool. Two threads keep
# a parallel lever and leave cores for the serve client and the host.
THREADS = 2


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail(msg):
    log("paperbench: " + msg)
    sys.exit(1)


def bench_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(build_dir, jobs):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        r = subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                            "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            fail("cmake configure failed")
    r = subprocess.run(["cmake", "--build", build_dir, "-j", str(jobs),
                        "--target", "paper_bench", "paperbench_selftest",
                        "paperbench_poll"],
                       stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        fail("build failed")


def run_child(cmd, env, timeout):
    try:
        return subprocess.run(cmd, env=env, timeout=timeout,
                              stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True)
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(cmd))


def source_digest():
    h = hashlib.sha256()
    for top in ("src", "paperbench"):
        for dirpath, dirnames, files in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for f in sorted(files):
                p = os.path.join(dirpath, f)
                h.update(os.path.relpath(p, ROOT).encode())
                with open(p, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none (not a git checkout)"
    r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                       stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                       text=True)
    return r.stdout.strip() or "unknown"


def main():
    start = time.monotonic()
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    nproc = len(os.sched_getaffinity(0))
    threads = min(THREADS, nproc)
    out_dir = bench_dir()
    build_dir = os.path.join(out_dir, "paperbench")
    cache_dir = os.path.join(out_dir, "cache")
    trace_dir = os.path.join(out_dir, "traces")
    build(build_dir, threads)
    selftest = run_child([os.path.join(build_dir, "paperbench_selftest")],
                         os.environ.copy(), 60)
    if selftest.returncode != 0:
        fail("self-test failed")

    env = os.environ.copy()
    env.pop("REPRO_FULL", None)  # the workloads have fixed sizes
    env["NVM_THREADS"] = str(threads)
    env["NVMROBUST_CACHE_DIR"] = cache_dir
    binary = os.path.join(build_dir, "paper_bench")

    marker = os.path.join(cache_dir, ".filled")
    warm = os.path.exists(marker)
    if not warm:
        os.makedirs(cache_dir, exist_ok=True)
        for w in WORKLOADS:
            r = run_child([binary, "--workload", w, "--seed", "0", "--fill"],
                          env, 600)
            if r.returncode != 0:
                fail("cache fill failed on " + w)
            log(r.stdout.strip())
        with open(marker, "w") as f:
            f.write("filled in order: %s\n" % " ".join(WORKLOADS))
    entries = len([e for e in os.listdir(cache_dir) if not e.startswith(".")])

    os.makedirs(trace_dir, exist_ok=True)
    result_path = os.path.join(out_dir, "result_%s_%d.json" % (args.workload, os.getpid()))
    spans_path = os.path.join(trace_dir, "%s_seed%d.tsv" % (args.workload, args.seed))
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out", result_path]
    if args.trace:
        cmd += ["--spans", spans_path]
    timeout = max(60.0, RUN_LIMIT_S - (time.monotonic() - start))
    # serve_open_loop measures sub-millisecond latencies, so its idle CPUs
    # poll (see poll.cpp). The paper workloads are compute-bound passes;
    # polling siblings moved their single-thread times by up to 40% from
    # run to run, so they run without. The poller ends when its standard
    # input closes.
    poller = None
    if args.workload == "serve_open_loop":
        poller = subprocess.Popen([os.path.join(build_dir, "paperbench_poll")],
                                  stdin=subprocess.PIPE)
    try:
        r = run_child(cmd, env, timeout)
    finally:
        if poller is not None:
            poller.stdin.close()
            try:
                poller.wait(timeout=10)
            except subprocess.TimeoutExpired:
                poller.kill()
                poller.wait()
    if r.returncode != 0:
        fail("paper_bench exited with %d" % r.returncode)
    try:
        with open(result_path) as f:
            res = json.load(f)
    finally:
        if os.path.exists(result_path):
            os.remove(result_path)

    m = res["metrics"]
    e2e_names = {x["name"] for x in spec["end_to_end"]}
    layer_names = {x["name"] for x in spec["per_layer"]}
    print("paperbench %s seed=%d seconds=%g trace=%d"
          % (args.workload, args.seed, args.seconds, args.trace))
    for name in sorted(m):
        kind = ("end-to-end" if name in e2e_names
                else "per-layer" if name in layer_names else "report")
        print("  %-11s %-34s %.6g %s" % (kind, name, m[name]["value"], m[name]["unit"]))
    print("  attempted=%d failed=%d failed_frac=%.4g"
          % (res["attempted"], res["failed"],
             res["failed"] / max(1, res["attempted"])))
    for note in res["notes"]:
        print("  " + note)
    for cf in res["check_failures"]:
        print("  CHECK FAILED: " + cf)
    nvm_env = {k: v for k, v in sorted(env.items())
               if k.startswith("NVM_") or k.startswith("NVMROBUST_")}
    provenance = {
        "nproc": nproc, "NVM_THREADS": threads,
        "simd": res["build"]["simd"], "compiler": res["build"]["compiler"],
        "build_type": res["build"]["build_type"],
        "git_sha": git_sha(), "source_sha256": source_digest(),
        "env": nvm_env,
        "cache": {"entries": entries, "state": "warm" if warm else "filled by this run"},
    }
    print("  provenance " + json.dumps(provenance, sort_keys=True))
    if args.trace:
        print("  spans written to " + os.path.relpath(spans_path, ROOT))

    metrics = {}
    for w in wanted:
        v = m.get(w["name"], {}).get("value")
        if v is None:
            fail("metric %s missing for %s" % (w["name"], args.workload))
        if m[w["name"]]["unit"] != w["unit"]:
            fail("metric %s has unit %s, BENCHMARK.json says %s"
                 % (w["name"], m[w["name"]]["unit"], w["unit"]))
        metrics[w["name"]] = {"value": v, "unit": w["unit"]}
    print(json.dumps({"correct": bool(res["correct"]),
                      "attempted": int(res["attempted"]),
                      "failed": int(res["failed"]),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
