// A small fixed-size worker pool for fanning out independent branch
// executions (and any other embarrassingly parallel platform work).
//
// Design constraints, in order:
//   * determinism stays with the caller — the pool only runs tasks; callers
//     that need reproducible results submit independent work and merge in a
//     fixed order (see BranchExecutor::run_branches);
//   * exceptions propagate — submit() returns a std::future and a throwing
//     task surfaces at future.get(), never in a worker;
//   * clean shutdown — the destructor refuses new work, runs everything
//     already queued, and joins every worker.
#pragma once

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace turret {

/// Worker count the platform uses when the caller does not say otherwise:
/// set_default_jobs() override, else the TURRET_JOBS environment variable,
/// else hardware_concurrency (minimum 1).
unsigned default_jobs();

/// Programmatic override for default_jobs() (CLI --jobs flag, tests forcing
/// serial vs parallel runs). 0 restores the env/hardware default.
void set_default_jobs(unsigned jobs);

/// Id of the pool worker running the calling thread: 1..size() on a worker,
/// 0 on any thread that is not a pool worker (main, detached helpers). Ids
/// are per-pool, so wall-clock trace lanes stay small and stable; they are
/// informational only — no platform logic may branch on them.
unsigned current_worker_id();

class ThreadPool {
 public:
  /// `workers` == 0 means default_jobs().
  explicit ThreadPool(unsigned workers = 0);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Runs every task already queued, then joins all workers.
  ~ThreadPool();

  unsigned size() const { return static_cast<unsigned>(threads_.size()); }

  /// Queue `fn` for execution on a worker. The returned future yields fn's
  /// result or rethrows its exception.
  template <typename F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<std::decay_t<F>>> {
    return submit_to(queue_, std::forward<F>(fn));
  }

  /// submit(), but ahead of every task queued by submit(): workers take
  /// front submissions first, in the order they were made. A caller about
  /// to block on work uses it so that work it queued speculatively earlier
  /// never delays what it waits for.
  template <typename F>
  auto submit_front(F&& fn)
      -> std::future<std::invoke_result_t<std::decay_t<F>>> {
    return submit_to(front_, std::forward<F>(fn));
  }

 private:
  using Queue = std::deque<std::function<void()>>;

  template <typename F>
  auto submit_to(Queue& q, F&& fn)
      -> std::future<std::invoke_result_t<std::decay_t<F>>> {
    using R = std::invoke_result_t<std::decay_t<F>>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> fut = task->get_future();
    enqueue(q, [task] { (*task)(); });
    return fut;
  }

  void enqueue(Queue& q, std::function<void()> task);
  void worker_loop(unsigned worker_id);

  std::mutex mu_;
  std::condition_variable cv_;
  Queue front_;  ///< submit_front() tasks, taken before queue_
  Queue queue_;
  bool shutdown_ = false;  ///< no new submissions; drain and exit
  std::vector<std::thread> threads_;
};

}  // namespace turret
