#include <thread>

#include "bench.h"
#include "common/rng.h"
#include "serve/serve.h"

namespace paperbench {

std::vector<std::int64_t> poisson_due_ns(const Segment& seg,
                                         std::uint64_t seed,
                                         std::uint64_t segment_index) {
  const std::vector<double> us = nvm::serve::poisson_arrivals_us(
      seg.requests, seg.rate_rps, nvm::derive_seed(seed, segment_index));
  std::vector<std::int64_t> ns;
  ns.reserve(us.size());
  for (double u : us) ns.push_back(static_cast<std::int64_t>(u * 1e3));
  return ns;
}

void wait_until(std::int64_t deadline_ns) {
  // Spin, never sleep: a sleeping client thread leaves its vCPU idle, and
  // on a virtual machine waking an idle vCPU can take milliseconds -- the
  // schedule would slip by more than the latencies it measures. Yielding
  // lets a server thread that shares the core run first.
  while (now_ns() < deadline_ns) std::this_thread::yield();
}

}  // namespace paperbench
