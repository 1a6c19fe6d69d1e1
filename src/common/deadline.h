// Request budgets. The serving north star is an ad-tech-style 20-50 ms
// decision window where late answers are discarded: a request that misses
// its deadline must release its worker in bounded time instead of finishing
// a doomed scan.
//
// A Deadline is a steady-clock expiry instant carried by the request
// (QueryContext, ConcurrentServer) and checked by the execution layers
// (db/exec delta scans, the rank stage). Default-constructed it is infinite
// and costs nothing to check: the no-deadline hot path never reads the
// clock, which is how byte-identity with the pre-deadline engine is
// preserved. One thread serves a request from start to finish, so no other
// thread needs to learn of the expiry.
//
// Checking discipline: long loops call expired() at natural batch
// boundaries (per pipeline stage, per N-1 relaxation pass, per rank block
// run, per few hundred delta rows) — often enough that a worker is
// reclaimed within one batch's work, rarely enough that the clock never
// shows up in profiles.
#ifndef CQADS_COMMON_DEADLINE_H_
#define CQADS_COMMON_DEADLINE_H_

#include <chrono>

namespace cqads {

/// An absolute steady-clock expiry instant. Copyable, trivially cheap.
/// Default-constructed = infinite (never expires, never reads the clock).
class Deadline {
 public:
  using Clock = std::chrono::steady_clock;

  Deadline() = default;

  /// Never expires.
  static Deadline Infinite() { return Deadline(); }

  /// Expires `budget` from now. A zero or negative budget is already
  /// expired (useful for testing the shed/expiry paths deterministically).
  static Deadline After(Clock::duration budget) {
    return Deadline(Clock::now() + budget);
  }

  /// Expires at `when`.
  static Deadline At(Clock::time_point when) { return Deadline(when); }

  bool is_infinite() const { return infinite_; }

  /// True once the clock passed the expiry instant. Infinite deadlines
  /// return false without reading the clock.
  bool expired() const { return !infinite_ && Clock::now() >= when_; }

  /// Time left; Clock::duration::max() when infinite, never negative.
  Clock::duration remaining() const {
    if (infinite_) return Clock::duration::max();
    const auto now = Clock::now();
    return now >= when_ ? Clock::duration::zero() : when_ - now;
  }

  /// The expiry instant; Clock::time_point::max() when infinite.
  Clock::time_point time_point() const {
    return infinite_ ? Clock::time_point::max() : when_;
  }

  /// The earlier of the two deadlines.
  static Deadline Earlier(const Deadline& a, const Deadline& b) {
    if (a.infinite_) return b;
    if (b.infinite_) return a;
    return Deadline(a.when_ < b.when_ ? a.when_ : b.when_);
  }

 private:
  explicit Deadline(Clock::time_point when) : when_(when), infinite_(false) {}

  Clock::time_point when_{};
  bool infinite_ = true;
};

}  // namespace cqads

#endif  // CQADS_COMMON_DEADLINE_H_
