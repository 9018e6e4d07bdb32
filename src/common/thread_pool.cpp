#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>

#include "common/check.h"
#include "common/env.h"
#include "common/metrics.h"

namespace nvm {

namespace {

thread_local int t_parallel_depth = 0;
thread_local ThreadPool* t_override_pool = nullptr;

/// Chunks executed through parallel_chunks (inline, submitter, or worker).
metrics::Counter& pool_chunks_run() {
  static metrics::Counter& c = metrics::counter("pool/chunks_run");
  return c;
}

/// Enqueue -> start latency of queued chunks (ns); the submitter's own
/// chunk and inline/serial execution never wait and are not observed.
metrics::Histogram& pool_queue_wait() {
  static metrics::Histogram& h = metrics::histogram("pool/queue_wait_ns");
  return h;
}

/// Marks the current thread as executing inside a parallel region for the
/// guard's lifetime, so nested parallel calls degrade to inline loops.
struct RegionGuard {
  RegionGuard() { ++t_parallel_depth; }
  ~RegionGuard() { --t_parallel_depth; }
};

std::size_t default_size() {
  const std::int64_t hw =
      std::max(1u, std::thread::hardware_concurrency());
  const std::int64_t n = env_int("NVM_THREADS", hw);
  return static_cast<std::size_t>(std::max<std::int64_t>(1, n));
}

/// Shared fork-join state for one parallel_chunks call. Lives on the
/// submitter's stack; the submitter blocks until `remaining` drains, so
/// worker references into it never dangle.
struct JoinContext {
  explicit JoinContext(std::int64_t chunks) : remaining(chunks) {}

  std::atomic<std::int64_t> remaining;
  std::mutex mu;
  std::condition_variable done;
  std::exception_ptr error;  // first exception wins; guarded by mu

  void run(const ThreadPool::ChunkFn& fn, std::int64_t chunk,
           std::int64_t begin, std::int64_t end) {
    {
      RegionGuard guard;
      try {
        fn(chunk, begin, end);
      } catch (...) {
        std::lock_guard<std::mutex> lock(mu);
        if (!error) error = std::current_exception();
      }
    }
    // Decrement under the lock: the submitter reads `remaining` under the
    // same lock and destroys this object as soon as it sees zero, so the
    // last worker must be done with `mu` and `done` by then.
    std::lock_guard<std::mutex> lock(mu);
    if (remaining.fetch_sub(1, std::memory_order_acq_rel) == 1)
      done.notify_all();
  }
};

}  // namespace

ThreadPool::ThreadPool(std::size_t threads)
    : size_(threads == 0 ? default_size() : threads) {
  // The submitter executes one chunk itself, so size_ - 1 workers suffice
  // for size_ concurrent chunks; size 1 is fully inline and thread-free.
  workers_.reserve(size_ - 1);
  for (std::size_t i = 0; i + 1 < size_; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and nothing left to drain
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

void ThreadPool::parallel_chunks(std::int64_t n, std::int64_t max_chunks,
                                 const ChunkFn& fn) {
  if (n <= 0) return;
  NVM_CHECK_GT(max_chunks, 0);
  const std::int64_t chunks = std::min(max_chunks, n);
  const auto chunk_begin = [n, chunks](std::int64_t c) {
    // floor(c * n / chunks), widened so the product can't overflow int64
    // for huge n (c <= chunks <= n <= 2^63-1). Boundaries are unchanged
    // for every input the narrow formula handled.
    return static_cast<std::int64_t>(static_cast<__int128>(c) * n / chunks);
  };

  if (chunks == 1 || size_ == 1 || in_parallel_region()) {
    // Serial path — same decomposition, same order, zero threading.
    for (std::int64_t c = 0; c < chunks; ++c)
      fn(c, chunk_begin(c), chunk_begin(c + 1));
    pool_chunks_run().add(static_cast<std::uint64_t>(chunks));
    return;
  }

  JoinContext ctx(chunks);
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (std::int64_t c = 1; c < chunks; ++c)
      queue_.emplace_back([&ctx, &fn, c, b = chunk_begin(c),
                           e = chunk_begin(c + 1),
                           queued = std::chrono::steady_clock::now()] {
        pool_queue_wait().observe(static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - queued)
                .count()));
        ctx.run(fn, c, b, e);
      });
  }
  cv_.notify_all();
  pool_chunks_run().add(static_cast<std::uint64_t>(chunks));

  // The submitter is one of the size_ execution contexts: run chunk 0 here.
  ctx.run(fn, 0, chunk_begin(0), chunk_begin(1));

  std::unique_lock<std::mutex> lock(ctx.mu);
  ctx.done.wait(lock, [&ctx] {
    return ctx.remaining.load(std::memory_order_acquire) == 0;
  });
  if (ctx.error) std::rethrow_exception(ctx.error);
}

void ThreadPool::parallel_for(std::int64_t n,
                              const std::function<void(std::int64_t)>& fn) {
  // Self-scheduled: one chunk per execution context, each claiming the
  // next unclaimed index from a shared cursor until the range is drained,
  // so uneven per-index costs (heavy tile slots next to skipped ones)
  // spread over the pool instead of piling onto one static block. On the
  // serial path chunk 0 claims every index in ascending order.
  std::atomic<std::int64_t> next{0};
  parallel_chunks(n, static_cast<std::int64_t>(size_),
                  [&](std::int64_t, std::int64_t, std::int64_t) {
                    for (std::int64_t i = next.fetch_add(
                             1, std::memory_order_relaxed);
                         i < n;
                         i = next.fetch_add(1, std::memory_order_relaxed))
                      fn(i);
                  });
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool(default_size());
  return pool;
}

ThreadPool& ThreadPool::current() {
  return t_override_pool != nullptr ? *t_override_pool : global();
}

bool ThreadPool::in_parallel_region() { return t_parallel_depth > 0; }

ThreadPool::ScopedUse::ScopedUse(ThreadPool& pool) : prev_(t_override_pool) {
  t_override_pool = &pool;
}

ThreadPool::ScopedUse::~ScopedUse() { t_override_pool = prev_; }

void parallel_for(std::int64_t n, const std::function<void(std::int64_t)>& fn) {
  ThreadPool::current().parallel_for(n, fn);
}

void parallel_chunks(std::int64_t n, std::int64_t max_chunks,
                     const ThreadPool::ChunkFn& fn) {
  ThreadPool::current().parallel_chunks(n, max_chunks, fn);
}

}  // namespace nvm
