#pragma once

/// \file thread_pool.h
/// Work-stealing thread pool for replica fan-out.
///
/// Shape: one bounded-LIFO deque per worker; submission round-robins
/// across the deques; an idle worker first drains its own deque from
/// the back (cache-warm), then steals from its siblings' fronts (oldest
/// first, minimizing contention with the victim). A shared
/// condition_variable parks workers when the whole pool is drained.
///
/// Determinism note: the pool makes **no ordering promises** — tasks
/// complete in whatever order the hardware schedules them. Callers that
/// need reproducible results (the replica engine, run_cells) must write
/// into pre-assigned slots and reduce in index order afterwards; nothing
/// in this file may be the source of run-to-run variation.

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace icollect::runner {

class ThreadPool {
 public:
  using Task = std::function<void()>;

  /// Spawns `threads` workers (>= 1; 0 is clamped to 1).
  explicit ThreadPool(std::size_t threads);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Drains outstanding work, then joins every worker.
  ~ThreadPool();

  /// Enqueue one task. Thread-safe; may be called from worker threads.
  void submit(Task task);

  /// Block until every submitted task has finished executing.
  void wait_idle();

  /// Submit `count` tasks `fn(0) .. fn(count-1)` and wait for all.
  void parallel_for(std::size_t count,
                    const std::function<void(std::size_t)>& fn);

  [[nodiscard]] std::size_t size() const noexcept {
    return workers_.size();
  }

  /// Job count for CLIs: `requested` if > 0, else hardware concurrency
  /// (at least 1).
  [[nodiscard]] static std::size_t resolve_jobs(long requested) noexcept;

 private:
  struct Worker {
    std::deque<Task> queue;
    std::mutex mutex;
  };

  void worker_loop(std::size_t self);
  [[nodiscard]] bool try_run_one(std::size_t self);

  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::thread> threads_;

  std::mutex sleep_mutex_;
  std::condition_variable work_cv_;   // queued work may be available
  std::condition_variable idle_cv_;   // pending_ dropped to zero
  std::size_t queued_ = 0;            // tasks sitting in deques
  std::size_t pending_ = 0;           // queued + currently running
  std::size_t next_ = 0;              // round-robin submission cursor
  bool stop_ = false;
};

}  // namespace icollect::runner
