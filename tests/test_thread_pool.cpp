// Worker-pool tests: task completion, result/exception propagation through
// futures, shutdown-with-queued-tasks semantics, and the jobs knob.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.h"

namespace turret {
namespace {

TEST(ThreadPool, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::atomic<int> ran{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.submit([&ran] { ran.fetch_add(1); }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(ran.load(), 100);
}

TEST(ThreadPool, FuturesCarryResults) {
  ThreadPool pool(2);
  auto f1 = pool.submit([] { return 6 * 7; });
  auto f2 = pool.submit([] { return std::string("turret"); });
  EXPECT_EQ(f1.get(), 42);
  EXPECT_EQ(f2.get(), "turret");
}

TEST(ThreadPool, ExceptionsPropagateThroughFutures) {
  ThreadPool pool(2);
  auto ok = pool.submit([] { return 1; });
  auto bad = pool.submit([]() -> int {
    throw std::runtime_error("branch exploded");
  });
  EXPECT_EQ(ok.get(), 1);
  EXPECT_THROW(bad.get(), std::runtime_error);
}

TEST(ThreadPool, FrontSubmitsRunBeforeQueuedTasks) {
  ThreadPool pool(1);
  std::promise<void> release;
  std::mutex mu;
  std::vector<std::string> order;
  const auto record = [&](std::string name) {
    return [&, name] {
      std::lock_guard<std::mutex> lock(mu);
      order.push_back(name);
    };
  };
  // The single worker blocks until every task below is queued.
  auto gate = pool.submit([f = release.get_future().share()] { f.wait(); });
  std::vector<std::future<void>> futures;
  futures.push_back(pool.submit(record("queued-1")));
  futures.push_back(pool.submit(record("queued-2")));
  futures.push_back(pool.submit_front(record("front-1")));
  futures.push_back(pool.submit(record("queued-3")));
  futures.push_back(pool.submit_front(record("front-2")));
  release.set_value();
  gate.get();
  for (auto& f : futures) f.get();
  EXPECT_EQ(order, (std::vector<std::string>{"front-1", "front-2", "queued-1",
                                             "queued-2", "queued-3"}));
}

TEST(ThreadPool, ShutdownRunsTasksStillQueued) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(1);
    // The first task occupies the single worker; the rest pile up in the
    // queue and must still run during destruction.
    pool.submit([] {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    });
    for (int i = 0; i < 20; ++i) {
      pool.submit([&ran] { ran.fetch_add(1); });
    }
  }  // ~ThreadPool drains the queue, then joins
  EXPECT_EQ(ran.load(), 20);
}

TEST(ThreadPool, DefaultJobsHonoursOverrideThenHardware) {
  set_default_jobs(3);
  EXPECT_EQ(default_jobs(), 3u);
  ThreadPool pool;  // 0 = default
  EXPECT_EQ(pool.size(), 3u);
  set_default_jobs(0);
  EXPECT_GE(default_jobs(), 1u);
}

}  // namespace
}  // namespace turret
