// Micro-batching inference service: the request path of the repo.
//
// Every earlier entry point is a batch experiment; this layer is the
// deployment story — an always-on analog accelerator answering single
// classification queries (and the interface a query-budgeted black-box
// attacker would actually face). Architecture:
//
//   submit() ──> bounded request queue ──> scheduler thread ──> replies
//                 (admission control:       aggregates up to
//                  Shed when full)          NVM_SERVE_MAX_BATCH requests,
//                                           flushes after NVM_SERVE_FLUSH_US,
//                                           one batched logits_block() per
//                                           micro-batch
//
// The scheduler packs queued single-sample requests into one (features, n)
// block and evaluates it through the batched analog path (TiledMatrix::
// matmul -> per-tile ProgrammedXbar::open_stream() -> mvm_multi_active),
// so serving throughput inherits the PR 4 multi-RHS speedup.
//
// Determinism contract: a reply depends only on the request's features,
// never on what it was batched with — guaranteed when the backend is
// batch-invariant (column k of logits_block(X) is a pure function of
// column k of X). TiledLinearBackend satisfies this with a FIXED input
// scale (per-call dynamic scaling would couple quantization across a
// batch) over models whose streams are stateless (ideal / fast_noise /
// geniex; a warm-starting circuit-solver stream trades this for speed).
// Batch composition, NVM_SERVE_MAX_BATCH, NVM_SERVE_FLUSH_US, and
// NVM_THREADS therefore never change logits or labels — see
// tests/test_serve.cpp and DESIGN.md §12.
//
// Shutdown: drain() (or the destructor) stops admission, serves everything
// already queued (flush deadlines are ignored while draining), fulfills
// every outstanding ticket, and joins the scheduler. No request is lost.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/thread_pool.h"
#include "puma/tiled_mvm.h"
#include "tensor/tensor.h"

namespace nvm::serve {

/// Batched classification backend: features -> logits over a whole
/// micro-batch. Implementations must be batch-invariant (see file
/// comment) for the serving determinism contract to hold, and are only
/// ever called from the server's scheduler thread (no reentrancy needed).
class BatchClassifier {
 public:
  virtual ~BatchClassifier() = default;

  virtual std::int64_t feature_dim() const = 0;
  virtual std::int64_t classes() const = 0;

  /// x_block is (feature_dim, n), one request per column, entries in
  /// [0, input range]; returns (classes, n) logits.
  virtual Tensor logits_block(const Tensor& x_block) = 0;
};

/// Linear classifier resident on crossbar tiles: logits = W x through the
/// tiled, bit-sliced analog GEMM. `input_scale` must be positive — it
/// fixes activation quantization per element so batching cannot change a
/// request's DAC voltages (the batch-invariance requirement).
class TiledLinearBackend final : public BatchClassifier {
 public:
  TiledLinearBackend(const Tensor& w,
                     std::shared_ptr<const xbar::MvmModel> model,
                     puma::HwConfig hw, float input_scale);

  std::int64_t feature_dim() const override { return tiled_.cols(); }
  std::int64_t classes() const override { return tiled_.rows(); }
  Tensor logits_block(const Tensor& x_block) override;

 private:
  puma::TiledMatrix tiled_;
  float input_scale_;
};

/// Terminal state of one request.
enum class ReplyStatus {
  Ok,         ///< served; logits/label are valid
  Shed,       ///< rejected at admission: queue full (backpressure)
  Timeout,    ///< expired in the queue before its batch was assembled
  Cancelled,  ///< cancelled via Ticket::cancel() before dispatch
  Error,      ///< the backend threw while evaluating its batch
  Shutdown,   ///< rejected at admission: server already draining
};
const char* to_string(ReplyStatus s);

/// Per-request serve-path stage breakdown (nanoseconds). The stages tile
/// the request's server-side lifetime: queue_wait (admission -> its batch
/// starts assembling), batch_form (gathering the micro-batch into one RHS
/// block), matmul (the batched analog logits_block call), epilogue
/// (per-column logits scatter + argmax until this reply is fulfilled).
/// batch_form and matmul are properties of the whole micro-batch, shared
/// by every request that rode in it. Exported as serve/stage/* histograms
/// (manifest adds p50/p99) and as trace spans/events.
struct StageBreakdown {
  double queue_wait_ns = 0.0;
  double batch_form_ns = 0.0;
  double matmul_ns = 0.0;
  double epilogue_ns = 0.0;
};

struct Reply {
  ReplyStatus status = ReplyStatus::Shutdown;
  Tensor logits;                ///< (classes), Ok only
  std::int64_t label = -1;      ///< argmax of logits, Ok only
  std::int64_t batch_size = 0;  ///< size of the micro-batch it rode in
  std::int64_t shard = -1;      ///< serving shard (ServeOptions::shard)
  double queue_ns = 0.0;        ///< admission -> batch assembly
  double total_ns = 0.0;        ///< admission -> reply fulfilled
  StageBreakdown stages;        ///< serve-path stage timing, Ok only
};

struct ServeOptions {
  /// Largest micro-batch the scheduler assembles (NVM_SERVE_MAX_BATCH).
  std::int64_t max_batch = 32;
  /// Oldest-request deadline: a partial batch is flushed once its head
  /// request has waited this long (NVM_SERVE_FLUSH_US). 0 flushes
  /// immediately (batches only form while the backend is busy).
  std::int64_t flush_us = 200;
  /// Admission bound: submits beyond this many queued requests are Shed
  /// (NVM_SERVE_QUEUE_CAP).
  std::int64_t queue_capacity = 1024;
  /// Per-request queue timeout; expired requests get a Timeout reply
  /// instead of occupying a batch slot. 0 disables (NVM_SERVE_TIMEOUT_US).
  std::int64_t timeout_us = 0;
  /// Pool the scheduler routes the backend's parallel work through
  /// (nullptr: the NVM_THREADS-sized global pool).
  ThreadPool* pool = nullptr;
  /// Metric/telemetry prefix for this server's series ("serve" ->
  /// serve/requests, serve/batch_size, ...). The cluster sets
  /// "serve/shard<k>" so each shard publishes its own family; servers
  /// sharing a prefix alias the same metrics and tally additively (the
  /// queue-depth gauge aggregates across a shard's per-model servers).
  /// Must be a valid metrics name (lowercase path components).
  std::string metric_scope = "serve";
  /// Shard identity stamped into every Reply (-1: standalone server).
  std::int64_t shard = -1;

  /// Defaults above, overridden by the NVM_SERVE_* environment variables.
  static ServeOptions from_env();
};

namespace detail {
struct Request;
}

/// Asynchronous micro-batching classification server over one backend.
/// submit() is thread-safe; the backend runs on a dedicated scheduler
/// thread owned by the server.
class Server {
 public:
  explicit Server(BatchClassifier& backend,
                  ServeOptions opt = ServeOptions::from_env());
  /// Drains (serves everything admitted) before destruction.
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Handle to one in-flight request. get() blocks until the terminal
  /// reply and may be called repeatedly (the reply is retained).
  class Ticket {
   public:
    Ticket() = default;
    /// Blocks until the request reaches a terminal state.
    Reply get();
    /// Requests cancellation; takes effect only if the scheduler has not
    /// yet dispatched the request into a batch (best effort, never blocks).
    void cancel();
    bool valid() const { return req_ != nullptr; }

   private:
    friend class Server;
    explicit Ticket(std::shared_ptr<detail::Request> req)
        : req_(std::move(req)) {}
    std::shared_ptr<detail::Request> req_;
  };

  /// Enqueues one classification request; `features` must hold exactly
  /// feature_dim() values (any shape). Shed/Shutdown rejections resolve
  /// the ticket immediately.
  Ticket submit(Tensor features);

  /// Ticket already resolved to a terminal `status` without touching any
  /// server — for layers above (the cluster router) that reject a request
  /// before it reaches a shard but still owe the caller a uniform handle.
  static Ticket resolved(ReplyStatus status);

  /// Requests admitted but not yet taken into a micro-batch (the value
  /// behind the <scope>/queue_depth gauge the least-loaded router reads).
  std::int64_t queue_depth() const;

  /// Synchronous convenience: submit() + get().
  Reply classify(Tensor features);

  /// Stops admission, serves every queued request, joins the scheduler.
  /// Idempotent; called by the destructor.
  void drain();

  const ServeOptions& options() const { return opt_; }

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
  ServeOptions opt_;
};

/// Deterministic open-loop Poisson arrival model: arrival i is offset
/// offsets_us[i] microseconds after the stream epoch, the running sum of
/// i.i.d. Exp(rate) gaps where gap i is drawn from Rng(derive_seed(seed,
/// i)) — a pure function of (n, rate_rps, seed), no wall clock anywhere.
/// rate_rps <= 0 degenerates to all-zero offsets (saturation: every
/// request is due immediately).
std::vector<double> poisson_arrivals_us(std::int64_t n, double rate_rps,
                                        std::uint64_t seed);

/// Open-loop traffic run: submits `requests[i]` at its Poisson arrival
/// time (client clock), then collects every reply.
struct TrafficOptions {
  double rate_rps = 2000.0;  ///< offered load; <= 0 submits back-to-back
  std::uint64_t seed = 1;    ///< arrival-model seed (poisson_arrivals_us)
};

struct TrafficReport {
  std::int64_t ok = 0, shed = 0, timed_out = 0, cancelled = 0, errors = 0,
               rejected_shutdown = 0;
  double seconds = 0.0;         ///< first submit -> last reply collected
  double throughput_rps = 0.0;  ///< ok / seconds
  /// Server-side latency percentiles over Ok replies (exact, computed
  /// from per-request measurements, not histogram estimates).
  double p50_ms = 0.0, p99_ms = 0.0;              ///< admission -> reply
  double queue_p50_ms = 0.0, queue_p99_ms = 0.0;  ///< admission -> batch
  double mean_batch = 0.0;  ///< mean micro-batch size over Ok replies
  /// Per-request labels (-1 where not Ok), for determinism checks.
  std::vector<std::int64_t> labels;
};

/// Drives `server` with one open-loop run. Blocks until every submitted
/// request has a terminal reply (the flush deadline guarantees progress
/// without draining the server).
TrafficReport run_open_loop(Server& server, std::span<const Tensor> requests,
                            const TrafficOptions& opt);

/// Nearest-rank q-percentile in milliseconds over nanosecond samples
/// (exact, the estimator behind TrafficReport percentiles; 0 when empty).
double percentile_ms(std::vector<double> samples_ns, double q);

}  // namespace nvm::serve
