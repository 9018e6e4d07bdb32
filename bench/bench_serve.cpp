// Serving-layer benchmark: the micro-batching inference service under
// deterministic open-loop Poisson traffic at a few offered loads, with
// max_batch 1 (no aggregation) vs 32 (PR 4 multi-RHS path) side by side.
//
// Reported per config: achieved throughput, exact p50/p99 request latency,
// shed count, and mean micro-batch size; plus the saturation speedup of
// batched over unbatched serving (the headline number — it must be > 1
// for the batching scheduler to pay for itself). Labels are cross-checked
// across every config: the determinism contract says batch composition
// never changes a reply.
#include <chrono>

#include "bench_util.h"
#include "serve/serve.h"
#include "unfused_model.h"
#include "xbar/fast_noise.h"

int main(int argc, char** argv) {
  using namespace nvm;
  core::RunManifest manifest =
      bench::bench_manifest(argc, argv, "bench_serve");

  const xbar::CrossbarConfig cfg = xbar::xbar_32x32_100k();
  manifest.set_xbar(cfg);
  auto model = std::make_shared<xbar::FastNoiseModel>(cfg);

  const std::int64_t classes = 16, feat = 128;
  Rng wrng(derive_seed(1, 0));
  Tensor w({classes, feat});
  for (auto& v : w.data()) v = static_cast<float>(wrng.uniform(-1.0, 1.0));
  serve::TiledLinearBackend backend(w, model, puma::HwConfig{}, 1.0f);

  const std::int64_t n = scaled(300, 1500);
  Rng xrng(derive_seed(1, 1));
  std::vector<Tensor> requests;
  requests.reserve(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    Tensor x({feat});
    for (auto& v : x.data()) v = static_cast<float>(xrng.uniform());
    requests.push_back(std::move(x));
  }

  core::TablePrinter table({"offered rps", "max_batch", "ok", "shed",
                            "throughput rps", "p50 ms", "p99 ms",
                            "mean batch"});

  // rate 0 = saturation (back-to-back submission, scheduler-limited).
  const double rates[] = {1000.0, 4000.0, 0.0};
  const std::int64_t batches[] = {1, 32};
  std::vector<std::int64_t> ref_labels;
  double sat_rps[2] = {0.0, 0.0};
  bool deterministic = true;

  for (const double rate : rates) {
    for (std::size_t bi = 0; bi < 2; ++bi) {
      serve::ServeOptions opt;
      opt.max_batch = batches[bi];
      opt.flush_us = 200;
      opt.queue_capacity = n;  // admit everything: compare like with like
      serve::Server server(backend, opt);

      serve::TrafficOptions traffic;
      traffic.rate_rps = rate;
      traffic.seed = derive_seed(1, 2);
      const serve::TrafficReport rep =
          serve::run_open_loop(server, requests, traffic);
      server.drain();

      if (ref_labels.empty()) {
        ref_labels = rep.labels;
      } else if (rep.labels != ref_labels) {
        deterministic = false;
      }
      if (rate == 0.0) sat_rps[bi] = rep.throughput_rps;

      const std::string rate_label =
          rate > 0.0 ? std::to_string(static_cast<std::int64_t>(rate))
                     : "saturation";
      table.add_row({rate_label, std::to_string(batches[bi]),
                     std::to_string(rep.ok), std::to_string(rep.shed),
                     core::fmt(static_cast<float>(rep.throughput_rps)),
                     core::fmt(static_cast<float>(rep.p50_ms)),
                     core::fmt(static_cast<float>(rep.p99_ms)),
                     core::fmt(static_cast<float>(rep.mean_batch))});

      const std::string key =
          "b" + std::to_string(batches[bi]) + "_" +
          (rate > 0.0 ? "rate" + rate_label : rate_label) + "_";
      manifest.add_result(key + "throughput_rps", rep.throughput_rps);
      manifest.add_result(key + "p50_ms", rep.p50_ms);
      manifest.add_result(key + "p99_ms", rep.p99_ms);
      manifest.add_result(key + "shed", static_cast<double>(rep.shed));
    }
  }

  table.print("Micro-batching service, fast-noise " + cfg.name + " backend, " +
              std::to_string(classes) + "x" + std::to_string(feat) +
              " classifier, " + std::to_string(n) + " requests");

  // Fused A/B on the serve matmul stage: the same batched logits_block
  // the scheduler issues per micro-batch, on a backend whose tile slots
  // are unfused (each pass rebuilds its code tables) and on the served,
  // fused backend. Bit-identical outputs; the time ratio is the fusion
  // win the perf gate holds at >= 1.2x (plan_matmul_speedup; the
  // plan_matmul_{interp,plan}_ms keys are the unfused and fused arms).
  {
    Rng brng(derive_seed(1, 3));
    Tensor xb({feat, 32});
    for (auto& v : xb.data()) v = static_cast<float>(brng.uniform());
    serve::TiledLinearBackend unfused(
        w, std::make_shared<bench::UnfusedModel>(model), puma::HwConfig{},
        1.0f);
    serve::BatchClassifier* arms[2] = {&unfused, &backend};
    const int reps = static_cast<int>(scaled(60, 400));
    double ms[2] = {0.0, 0.0};
    for (int arm = 0; arm < 2; ++arm) {
      (void)arms[arm]->logits_block(xb);  // warm up
      const auto t0 = std::chrono::steady_clock::now();
      for (int r = 0; r < reps; ++r) (void)arms[arm]->logits_block(xb);
      const std::chrono::duration<double> dt =
          std::chrono::steady_clock::now() - t0;
      ms[arm] = dt.count() * 1e3 / reps;
    }
    const double plan_speedup = ms[1] > 0.0 ? ms[0] / ms[1] : 0.0;
    std::printf("serve matmul stage: unfused %.3f ms, fused %.3f ms "
                "(%.2fx)\n",
                ms[0], ms[1], plan_speedup);
    manifest.add_result("plan_matmul_interp_ms", ms[0]);
    manifest.add_result("plan_matmul_plan_ms", ms[1]);
    manifest.add_result("plan_matmul_speedup", plan_speedup);
  }

  const double speedup = sat_rps[0] > 0.0 ? sat_rps[1] / sat_rps[0] : 0.0;
  std::printf("saturation throughput: batch1 %.0f rps, batch32 %.0f rps "
              "(%.2fx)\n",
              sat_rps[0], sat_rps[1], speedup);
  manifest.add_result("saturation_speedup", speedup);
  manifest.set_note("determinism",
                    deterministic ? "labels identical across configs"
                                  : "LABEL MISMATCH across configs");

  if (!deterministic) {
    std::fprintf(stderr,
                 "FAIL: served labels changed with batch/load config\n");
    return 1;
  }
  if (speedup <= 1.0) {
    std::fprintf(stderr,
                 "FAIL: batched serving (%.0f rps) did not beat batch-1 "
                 "(%.0f rps)\n",
                 sat_rps[1], sat_rps[0]);
    return 1;
  }
  return 0;
}
