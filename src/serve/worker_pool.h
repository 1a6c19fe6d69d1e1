// A fixed-size worker pool with a FIFO task queue. Deliberately minimal:
// the ConcurrentServer (and the NetServer wrapping it) runs each request as
// one task on it, and tests drive it directly. A request never fans out
// across workers. Tasks must not throw (library code is exception-free
// across module boundaries; see common/status.h).
#ifndef CQADS_SERVE_WORKER_POOL_H_
#define CQADS_SERVE_WORKER_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace cqads::serve {

class WorkerPool {
 public:
  /// Spawns `num_threads` workers (at least one).
  explicit WorkerPool(std::size_t num_threads);

  /// DRAINS, then joins: every task queued before destruction — including
  /// tasks never started — still RUNS to completion before the workers
  /// exit. That is the contract async serving relies on: a queued
  /// request's completion callback always fires. Pinned by
  /// DestructorRunsQueuedTasks.
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Enqueues a task. Safe from any thread, including from inside a task.
  void Submit(std::function<void()> task);

  /// Blocks until every task submitted so far has finished.
  void Wait();

  std::size_t num_threads() const { return threads_.size(); }

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable work_ready_;
  std::condition_variable all_done_;
  std::deque<std::function<void()>> queue_;
  std::size_t in_flight_ = 0;  ///< queued + currently executing
  bool stopping_ = false;
  std::vector<std::thread> threads_;
};

}  // namespace cqads::serve

#endif  // CQADS_SERVE_WORKER_POOL_H_
