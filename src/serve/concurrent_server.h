// Concurrent serving over the ask path (core/pipeline.h). A
// ConcurrentServer owns a worker pool and a sharded prepared-query cache
// and serves questions against whatever EngineSnapshot the engine
// currently publishes:
//
//   request --> admission (bounded queue; saturated => shed kOverloaded)
//           --> expired-in-queue check at dequeue      (kDeadlineExceeded,
//               the doomed request never touches a snapshot)
//           --> snapshot = engine->snapshot()          (lock-free hot path)
//           --> prepared-query cache probe (scope, normalized question),
//               the scope being the caller's domain, empty for an ask
//                 hit:  reuse the memoized domain, parse and plans
//                 miss: ClassifyQuestion (keeps the caller's domain)
//                       + ParseQuestion + PlanQuestion, then memoize
//           --> AnswerQuestion (execute + Rank_Sim rank) on the snapshot,
//               one worker per request, stopped at stage, relaxation-pass
//               and block boundaries when the deadline passes
//               (common/deadline.h)
//
// AskBatch submits each question through AskAsyncInDomain and waits for
// the pool; results keep the input order and are byte-identical
// (CanonicalAskResultString) to what sequential CqadsEngine::Ask produces,
// because stages are deterministic and share no mutable state. Snapshot
// swaps (ingest, compaction, retrain) during a batch are safe: each
// request pins the snapshot it started with, and a cache entry serves only
// while that snapshot has the parse and classifier generations the entry
// was built under (serve/prepared_cache.h).
//
// Deadlines and overload: every request carries a Deadline (explicit, or
// Options::default_budget, or infinite). With no deadline and no queue
// bound — the defaults — behavior is byte-identical to the pre-deadline
// server: no clock reads, no admission state transitions, the parity
// benches pin it. Under pressure every request ends in exactly one of four
// outcomes, counted in stats():
//   answered           ok, full work
//   degraded           ok, exact answers complete but partial (N-1)
//                      retrieval cut short (AskResult::degraded)
//   deadline exceeded  kDeadlineExceeded — expired in queue or mid-pipeline
//   shed               kOverloaded — never admitted, O(1) rejection
#ifndef CQADS_SERVE_CONCURRENT_SERVER_H_
#define CQADS_SERVE_CONCURRENT_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/deadline.h"
#include "common/status.h"
#include "core/cqads_engine.h"
#include "serve/prepared_cache.h"
#include "serve/worker_pool.h"

namespace cqads::serve {

class ConcurrentServer {
 public:
  struct Options {
    std::size_t num_workers = 4;
    bool enable_cache = true;
    PreparedQueryCache::Options cache;
    /// Budget applied to requests that do not carry an explicit deadline.
    /// zero = unlimited (the pre-deadline behavior, and the default).
    std::chrono::microseconds default_budget{0};
    /// Admission control: maximum requests queued-or-executing at once.
    /// A request arriving with the queue full is shed immediately with
    /// kOverloaded — O(1), no snapshot touched, no worker burned — so
    /// overload degrades by shedding instead of collapsing into unbounded
    /// queue growth where every admitted request is late. 0 = unbounded
    /// (the default; synchronous Ask/AskInDomain are never queued and
    /// never shed).
    std::size_t max_queue = 0;
  };

  /// Outcome and queue-health counters since construction. Monotonic;
  /// cheap relaxed atomics, so concurrent snapshots may be slightly torn
  /// (fine for monitoring and benches).
  struct Stats {
    std::uint64_t answered = 0;           ///< ok, full work
    std::uint64_t degraded = 0;           ///< ok, partials cut short
    std::uint64_t deadline_exceeded = 0;  ///< in-queue or mid-pipeline
    std::uint64_t shed = 0;               ///< rejected at admission
    std::uint64_t expired_in_queue = 0;   ///< subset of deadline_exceeded
                                          ///< dropped at dequeue, unexecuted
    std::uint64_t errors = 0;             ///< any other non-OK status
    double max_queue_age_micros = 0.0;    ///< worst admission->dequeue wait
    double total_queue_age_micros = 0.0;  ///< sum over dequeued requests
    std::uint64_t dequeued = 0;           ///< divisor for the mean age
    /// Top-k rank-stage work across every OK request (db::ExecStats rank
    /// counters summed): how much the block-max pruning actually saves in
    /// production traffic, not just in the bench.
    std::uint64_t rank_blocks_visited = 0;
    std::uint64_t rank_blocks_skipped = 0;
    std::uint64_t rank_rows_pruned = 0;
    std::uint64_t rank_threshold_updates = 0;
    /// Eq. 5 scoring work (db::ExecStats rank_rows_scored and
    /// rank_sim_evals summed): rows scored, and similarities computed.
    std::uint64_t rank_rows_scored = 0;
    std::uint64_t rank_sim_evals = 0;
    /// Relaxation fragments read from a base table's fragment memo vs
    /// evaluated by the rank stage (db::ExecStats fragment counters
    /// summed).
    std::uint64_t fragment_hits = 0;
    std::uint64_t fragment_evals = 0;
  };

  /// The engine must outlive the server. The server never mutates it;
  /// domain additions/retrains go through the engine and are picked up by
  /// the next request via the snapshot swap.
  explicit ConcurrentServer(const core::CqadsEngine* engine)
      : ConcurrentServer(engine, Options()) {}
  ConcurrentServer(const core::CqadsEngine* engine, Options options);

  /// Destruction drains the pool: queued async requests still complete
  /// (their callbacks fire) before the workers join — deterministic
  /// teardown under load (see WorkerPool::~WorkerPool).
  ~ConcurrentServer();

  /// Classifies, then answers; a prepared-cache hit reuses the domain its
  /// entry memoized. Thread-safe.
  /// Synchronous calls run on the caller's thread (no queue, no shedding);
  /// the deadline still bounds pipeline/execution work.
  Result<core::AskResult> Ask(const std::string& question) const;
  Result<core::AskResult> Ask(const std::string& question,
                              Deadline deadline) const;

  /// Answers within a known domain (skips classification).
  Result<core::AskResult> AskInDomain(const std::string& domain,
                                      const std::string& question) const;
  Result<core::AskResult> AskInDomain(const std::string& domain,
                                      const std::string& question,
                                      Deadline deadline) const;

  /// Answers a batch on the worker pool. results[i] corresponds to
  /// questions[i] and equals what Ask(questions[i]) returns.
  std::vector<Result<core::AskResult>> AskBatch(
      const std::vector<std::string>& questions) const;

  /// Per-request deadlines; deadlines[i] governs questions[i] (the vectors
  /// must be the same length, or every extra question runs undeadlined).
  /// Entries whose deadline passes while they wait in the queue return
  /// kDeadlineExceeded without executing; the rest are unaffected and stay
  /// byte-identical to sequential Ask.
  std::vector<Result<core::AskResult>> AskBatch(
      const std::vector<std::string>& questions,
      const std::vector<Deadline>& deadlines) const;

  /// Open-loop entry point: admission happens NOW on the caller's thread
  /// (a shed invokes `done` with kOverloaded before returning); otherwise
  /// the request is queued and `done` fires on a worker thread with the
  /// outcome. `done` must not block long — it runs on the serving pool.
  /// An empty `domain` classifies; a non-empty one skips classification.
  /// The network front-end routes both "ask" and "ask_in_domain" through
  /// it, and AskBatch submits every question through it.
  void AskAsyncInDomain(std::string domain, std::string question,
                        Deadline deadline,
                        std::function<void(Result<core::AskResult>)> done)
      const;

  PreparedQueryCache::Stats cache_stats() const { return cache_->stats(); }
  /// Outcome counters; see Stats.
  Stats stats() const;
  /// One JSON object with every counter a fleet scraper wants: the four-
  /// outcome classification, error count, queue depth/age telemetry
  /// (max and mean admission->dequeue wait), prepared-cache hit/miss/
  /// eviction/resident numbers, and the serving configuration (workers,
  /// max_queue, default budget), plus the rank counters and the bytes
  /// resident in the current snapshot's fragment memos
  /// (rank_fragment_bytes). Served by the network front-end as the
  /// "statsz" control method; also useful for logs. Relaxed-atomic reads —
  /// a concurrent snapshot may be slightly torn, like stats().
  std::string StatsJson() const;
  /// Requests admitted but not yet finished dequeuing (the admission
  /// controller's live queue depth).
  std::size_t queue_depth() const {
    return queued_.load(std::memory_order_relaxed);
  }
  std::size_t num_workers() const { return pool_->num_threads(); }
  const Options& options() const { return options_; }

 private:
  Result<core::AskResult> AskImpl(const std::string& domain_hint,
                                  const std::string& question,
                                  Deadline deadline) const;
  /// Applies Options::default_budget to an infinite deadline.
  Deadline EffectiveDeadline(Deadline deadline) const;
  /// Admission: true = a queue slot was taken (release via DequeueStarted).
  bool Admit() const;
  /// Records the queue age and frees the admission slot.
  void DequeueStarted(Deadline::Clock::time_point enqueued) const;
  /// Folds a finished request's outcome into the counters.
  void RecordOutcome(const Result<core::AskResult>& result) const;

  const core::CqadsEngine* engine_;
  Options options_;
  // Internally synchronized; mutable so the logically-const ask path can
  // enqueue work and update the cache.
  mutable std::unique_ptr<PreparedQueryCache> cache_;
  mutable std::unique_ptr<WorkerPool> pool_;

  // Admission + outcome state (all relaxed: monotonic counters and a queue
  // depth whose transient staleness only sheds one request early/late).
  mutable std::atomic<std::size_t> queued_{0};
  mutable std::atomic<std::uint64_t> answered_{0};
  mutable std::atomic<std::uint64_t> degraded_{0};
  mutable std::atomic<std::uint64_t> deadline_exceeded_{0};
  mutable std::atomic<std::uint64_t> shed_{0};
  mutable std::atomic<std::uint64_t> expired_in_queue_{0};
  mutable std::atomic<std::uint64_t> errors_{0};
  mutable std::atomic<std::uint64_t> max_queue_age_us_{0};   ///< integer µs
  mutable std::atomic<std::uint64_t> total_queue_age_us_{0};
  mutable std::atomic<std::uint64_t> dequeued_{0};
  mutable std::atomic<std::uint64_t> rank_blocks_visited_{0};
  mutable std::atomic<std::uint64_t> rank_blocks_skipped_{0};
  mutable std::atomic<std::uint64_t> rank_rows_pruned_{0};
  mutable std::atomic<std::uint64_t> rank_threshold_updates_{0};
  mutable std::atomic<std::uint64_t> rank_rows_scored_{0};
  mutable std::atomic<std::uint64_t> rank_sim_evals_{0};
  mutable std::atomic<std::uint64_t> fragment_hits_{0};
  mutable std::atomic<std::uint64_t> fragment_evals_{0};
};

}  // namespace cqads::serve

#endif  // CQADS_SERVE_CONCURRENT_SERVER_H_
