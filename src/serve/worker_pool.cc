#include "serve/worker_pool.h"

#include <utility>

#include "common/failpoint.h"

namespace cqads::serve {

WorkerPool::WorkerPool(std::size_t num_threads) {
  if (num_threads == 0) num_threads = 1;
  threads_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

WorkerPool::~WorkerPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  work_ready_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void WorkerPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
    ++in_flight_;
  }
  work_ready_.notify_one();
}

void WorkerPool::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  all_done_.wait(lock, [this] { return in_flight_ == 0; });
}

void WorkerPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_ready_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping with a drained queue
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    // Chaos hook: arm "worker_pool.task" with a delay to simulate slow /
    // descheduled workers (error injection is meaningless here — a worker
    // cannot fail a task it merely runs).
    CQADS_FAILPOINT_HIT("worker_pool.task");
    task();
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (--in_flight_ == 0) all_done_.notify_all();
    }
  }
}

}  // namespace cqads::serve
