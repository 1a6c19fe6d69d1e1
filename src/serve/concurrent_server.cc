#include "serve/concurrent_server.h"

#include <chrono>
#include <memory>
#include <utility>

#include "common/json.h"
#include "core/pipeline.h"

namespace cqads::serve {

ConcurrentServer::ConcurrentServer(const core::CqadsEngine* engine,
                                   Options options)
    : engine_(engine),
      options_(options),
      cache_(std::make_unique<PreparedQueryCache>(options.cache)),
      pool_(std::make_unique<WorkerPool>(options.num_workers)) {}

ConcurrentServer::~ConcurrentServer() = default;

Deadline ConcurrentServer::EffectiveDeadline(Deadline deadline) const {
  if (!deadline.is_infinite() || options_.default_budget.count() <= 0) {
    return deadline;
  }
  return Deadline::After(options_.default_budget);
}

bool ConcurrentServer::Admit() const {
  // Optimistic increment with rollback: two relaxed RMWs on the shed path,
  // one on the admit path. A transiently stale depth can shed one request
  // a slot early or admit one late — admission is a load-shedding valve,
  // not an exact semaphore.
  const std::size_t depth =
      queued_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (options_.max_queue > 0 && depth > options_.max_queue) {
    queued_.fetch_sub(1, std::memory_order_relaxed);
    shed_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  return true;
}

void ConcurrentServer::DequeueStarted(
    Deadline::Clock::time_point enqueued) const {
  const auto age_us = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          Deadline::Clock::now() - enqueued)
          .count());
  queued_.fetch_sub(1, std::memory_order_relaxed);
  dequeued_.fetch_add(1, std::memory_order_relaxed);
  total_queue_age_us_.fetch_add(age_us, std::memory_order_relaxed);
  std::uint64_t seen = max_queue_age_us_.load(std::memory_order_relaxed);
  while (age_us > seen && !max_queue_age_us_.compare_exchange_weak(
                              seen, age_us, std::memory_order_relaxed)) {
  }
}

void ConcurrentServer::RecordOutcome(
    const Result<core::AskResult>& result) const {
  if (result.ok()) {
    if (result.value().degraded) {
      degraded_.fetch_add(1, std::memory_order_relaxed);
    } else {
      answered_.fetch_add(1, std::memory_order_relaxed);
    }
    const db::ExecStats& st = result.value().stats;
    if (st.rank_blocks_visited > 0) {
      rank_blocks_visited_.fetch_add(st.rank_blocks_visited,
                                     std::memory_order_relaxed);
    }
    if (st.rank_blocks_skipped > 0) {
      rank_blocks_skipped_.fetch_add(st.rank_blocks_skipped,
                                     std::memory_order_relaxed);
    }
    if (st.rank_rows_pruned > 0) {
      rank_rows_pruned_.fetch_add(st.rank_rows_pruned,
                                  std::memory_order_relaxed);
    }
    if (st.rank_threshold_updates > 0) {
      rank_threshold_updates_.fetch_add(st.rank_threshold_updates,
                                        std::memory_order_relaxed);
    }
    if (st.rank_rows_scored > 0) {
      rank_rows_scored_.fetch_add(st.rank_rows_scored,
                                  std::memory_order_relaxed);
    }
    if (st.rank_sim_evals > 0) {
      rank_sim_evals_.fetch_add(st.rank_sim_evals, std::memory_order_relaxed);
    }
    if (st.fragment_hits > 0) {
      fragment_hits_.fetch_add(st.fragment_hits, std::memory_order_relaxed);
    }
    if (st.fragment_evals > 0) {
      fragment_evals_.fetch_add(st.fragment_evals, std::memory_order_relaxed);
    }
    return;
  }
  switch (result.status().code()) {
    case StatusCode::kDeadlineExceeded:
      deadline_exceeded_.fetch_add(1, std::memory_order_relaxed);
      break;
    case StatusCode::kOverloaded:
      // Counted at the admission site; nothing to do here.
      break;
    default:
      errors_.fetch_add(1, std::memory_order_relaxed);
      break;
  }
}

ConcurrentServer::Stats ConcurrentServer::stats() const {
  Stats s;
  s.answered = answered_.load(std::memory_order_relaxed);
  s.degraded = degraded_.load(std::memory_order_relaxed);
  s.deadline_exceeded = deadline_exceeded_.load(std::memory_order_relaxed);
  s.shed = shed_.load(std::memory_order_relaxed);
  s.expired_in_queue = expired_in_queue_.load(std::memory_order_relaxed);
  s.errors = errors_.load(std::memory_order_relaxed);
  s.max_queue_age_micros =
      static_cast<double>(max_queue_age_us_.load(std::memory_order_relaxed));
  s.total_queue_age_micros =
      static_cast<double>(total_queue_age_us_.load(std::memory_order_relaxed));
  s.dequeued = dequeued_.load(std::memory_order_relaxed);
  s.rank_blocks_visited =
      rank_blocks_visited_.load(std::memory_order_relaxed);
  s.rank_blocks_skipped =
      rank_blocks_skipped_.load(std::memory_order_relaxed);
  s.rank_rows_pruned = rank_rows_pruned_.load(std::memory_order_relaxed);
  s.rank_threshold_updates =
      rank_threshold_updates_.load(std::memory_order_relaxed);
  s.rank_rows_scored = rank_rows_scored_.load(std::memory_order_relaxed);
  s.rank_sim_evals = rank_sim_evals_.load(std::memory_order_relaxed);
  s.fragment_hits = fragment_hits_.load(std::memory_order_relaxed);
  s.fragment_evals = fragment_evals_.load(std::memory_order_relaxed);
  return s;
}

Result<core::AskResult> ConcurrentServer::Ask(
    const std::string& question) const {
  return Ask(question, Deadline::Infinite());
}

Result<core::AskResult> ConcurrentServer::Ask(const std::string& question,
                                              Deadline deadline) const {
  auto result = AskImpl("", question, EffectiveDeadline(deadline));
  RecordOutcome(result);
  return result;
}

Result<core::AskResult> ConcurrentServer::AskInDomain(
    const std::string& domain, const std::string& question) const {
  return AskInDomain(domain, question, Deadline::Infinite());
}

Result<core::AskResult> ConcurrentServer::AskInDomain(
    const std::string& domain, const std::string& question,
    Deadline deadline) const {
  auto result = AskImpl(domain, question, EffectiveDeadline(deadline));
  RecordOutcome(result);
  return result;
}

Result<core::AskResult> ConcurrentServer::AskImpl(
    const std::string& domain, const std::string& question,
    Deadline deadline) const {
  if (question.empty()) {
    return Status::InvalidArgument("empty question");
  }
  // Pin the snapshot for the whole request: concurrent swaps don't affect
  // us, and a cache entry is served only while this snapshot has the
  // generations it was parsed under.
  core::EngineSnapshot::Ptr snap = engine_->snapshot();
  core::QueryContext ctx(question, domain);
  ctx.deadline = deadline;

  // An ask entry memoizes the classified domain too, so the probe comes
  // first and a hit skips classification. An untrained classifier has
  // nothing to probe for: ClassifyQuestion reports it.
  const bool probe = options_.enable_cache &&
                     (!domain.empty() || snap->classifier_trained());
  std::string normalized;
  PreparedQueryCache::Prepared prepared;
  if (probe) {
    normalized = PreparedQueryCache::NormalizeQuestion(question);
    prepared = cache_->Get(*snap, domain, normalized);
  }
  if (prepared.parsed != nullptr) {
    // Shared, not copied: AnswerQuestion reads the immutable memoized
    // ParsedQuestion.
    ctx.domain = std::move(prepared.domain);
    ctx.result.domain = ctx.domain;
  } else {
    CQADS_RETURN_NOT_OK(core::ClassifyQuestion(*snap, &ctx));
    auto fresh = core::ParseQuestion(*snap, &ctx);
    if (!fresh.ok()) return fresh.status();
    CQADS_RETURN_NOT_OK(core::PlanQuestion(*snap, &ctx, &fresh.value()));
    prepared.parsed = std::make_shared<const core::ParsedQuestion>(
        std::move(fresh).value());
    if (probe) {
      cache_->Put(*snap, domain, normalized, ctx.domain, prepared.parsed);
    }
  }
  CQADS_RETURN_NOT_OK(core::AnswerQuestion(*snap, *prepared.parsed, &ctx));
  return std::move(ctx.result);
}

std::vector<Result<core::AskResult>> ConcurrentServer::AskBatch(
    const std::vector<std::string>& questions) const {
  return AskBatch(questions, {});
}

std::vector<Result<core::AskResult>> ConcurrentServer::AskBatch(
    const std::vector<std::string>& questions,
    const std::vector<Deadline>& deadlines) const {
  std::vector<Result<core::AskResult>> results(
      questions.size(), Status::Internal("not executed"));
  for (std::size_t i = 0; i < questions.size(); ++i) {
    AskAsyncInDomain(
        "", questions[i],
        i < deadlines.size() ? deadlines[i] : Deadline::Infinite(),
        [&results, i](Result<core::AskResult> r) {
          results[i] = std::move(r);
        });
  }
  pool_->Wait();
  return results;
}

void ConcurrentServer::AskAsyncInDomain(
    std::string domain, std::string question, Deadline deadline,
    std::function<void(Result<core::AskResult>)> done) const {
  deadline = EffectiveDeadline(deadline);
  if (!Admit()) {
    done(Status::Overloaded("serving queue saturated"));
    return;
  }
  const auto enqueued = Deadline::Clock::now();
  pool_->Submit([this, domain = std::move(domain),
                 question = std::move(question), deadline, enqueued,
                 done = std::move(done)] {
    DequeueStarted(enqueued);
    // A request that expired while queued never executes: dropping it
    // here costs one clock read instead of a full doomed ask.
    if (deadline.expired()) {
      deadline_exceeded_.fetch_add(1, std::memory_order_relaxed);
      expired_in_queue_.fetch_add(1, std::memory_order_relaxed);
      done(Status::DeadlineExceeded("request expired in serving queue"));
      return;
    }
    auto result = AskImpl(domain, question, deadline);
    RecordOutcome(result);
    done(std::move(result));
  });
}

std::string ConcurrentServer::StatsJson() const {
  const Stats s = stats();
  const PreparedQueryCache::Stats c = cache_->stats();
  JsonValue v = JsonValue::Object();
  auto num = [](std::uint64_t n) {
    return JsonValue::Number(static_cast<double>(n));
  };
  v.Set("answered", num(s.answered));
  v.Set("degraded", num(s.degraded));
  v.Set("deadline_exceeded", num(s.deadline_exceeded));
  v.Set("shed", num(s.shed));
  v.Set("expired_in_queue", num(s.expired_in_queue));
  v.Set("errors", num(s.errors));
  v.Set("dequeued", num(s.dequeued));
  v.Set("queue_depth", num(queue_depth()));
  v.Set("max_queue_age_micros", JsonValue::Number(s.max_queue_age_micros));
  v.Set("mean_queue_age_micros",
        JsonValue::Number(s.dequeued > 0
                              ? s.total_queue_age_micros /
                                    static_cast<double>(s.dequeued)
                              : 0.0));
  v.Set("rank_blocks_visited", num(s.rank_blocks_visited));
  v.Set("rank_blocks_skipped", num(s.rank_blocks_skipped));
  v.Set("rank_rows_pruned", num(s.rank_rows_pruned));
  v.Set("rank_threshold_updates", num(s.rank_threshold_updates));
  v.Set("rank_rows_scored", num(s.rank_rows_scored));
  v.Set("rank_sim_evals", num(s.rank_sim_evals));
  v.Set("rank_fragment_hits", num(s.fragment_hits));
  v.Set("rank_fragment_evals", num(s.fragment_evals));
  std::uint64_t fragment_bytes = 0;
  const core::EngineSnapshot::Ptr snapshot = engine_->snapshot();
  for (const std::string& domain : snapshot->Domains()) {
    const db::exec::FragmentMemo* memo =
        snapshot->runtime(domain)->fragment_memo.get();
    if (memo != nullptr) fragment_bytes += memo->resident_bytes();
  }
  v.Set("rank_fragment_bytes", num(fragment_bytes));
  v.Set("cache_hits", num(c.hits));
  v.Set("cache_misses", num(c.misses));
  v.Set("cache_evictions", num(c.evictions));
  v.Set("cache_entries", num(c.entries));
  v.Set("num_workers", num(pool_->num_threads()));
  v.Set("max_queue", num(options_.max_queue));
  v.Set("default_budget_micros",
        num(static_cast<std::uint64_t>(options_.default_budget.count())));
  return v.Dump();
}

}  // namespace cqads::serve
