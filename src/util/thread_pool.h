// Shared fixed-size thread pool with a dynamically chunked ParallelFor.
//
// The build pipeline needs the same parallel shape in two places — the
// per-partition cover builds in hopi/build.cc and the speculative
// candidate evaluation inside a single cover build in twohop/builder.cc —
// so the mechanics live here once: a task-queue pool (no work stealing;
// indices are claimed from one atomic counter, which keeps heterogeneous
// task sizes balanced) with an error channel that replaces the previous
// ad-hoc std::vector<std::thread> loops, where a throwing worker called
// std::terminate and a failed Status was only discovered serially after
// join.
//
// Determinism contract: ParallelFor runs fn(i) for every index exactly
// once, in unspecified order. Callers that need reproducible results must
// make fn(i) a pure function of i (see Rng::Fork for per-index random
// streams) writing to disjoint slots.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "util/status.h"

namespace hopi {

/// A pool of `num_threads - 1` worker threads; the thread calling
/// ParallelFor participates as worker 0, so a pool constructed with n
/// runs loops on exactly n threads (and a pool of 1 spawns nothing and
/// degrades to a serial loop).
///
/// One *parallel* loop runs at a time. A second ParallelFor — whether
/// called concurrently from another thread or reentrantly from inside a
/// task of the same pool — does not block and does not corrupt the
/// running loop: it detects the busy pool and degrades to an inline
/// serial loop on the calling thread, preserving the error-channel
/// semantics. So a pool never deadlocks or corrupts a loop when it is
/// shared by several threads or called from inside its own tasks, at
/// the cost of the loser running serially; callers that want
/// guaranteed nested parallelism use a separate, smaller pool (see the
/// thread budget split in hopi/build.cc).
class ThreadPool {
 public:
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of threads that execute a ParallelFor, including the caller.
  size_t NumWorkers() const { return workers_.size() + 1; }

  /// Runs fn(i, worker) for every i in [begin, end), where worker is the
  /// executing thread's id in [0, NumWorkers()) — use it to index
  /// per-thread scratch. Blocks until every index has been claimed and
  /// every started task has finished.
  ///
  /// Error channel: the first failure cancels all not-yet-started tasks.
  /// A non-OK Status is returned (when several tasks fail concurrently,
  /// the one with the lowest index among those that ran wins, so a
  /// deterministic fault yields a deterministic report); an exception is
  /// rethrown on the calling thread instead of terminating the process.
  Status ParallelFor(size_t begin, size_t end,
                     const std::function<Status(size_t, size_t)>& fn);

  /// As above for tasks that don't need the worker id.
  Status ParallelFor(size_t begin, size_t end,
                     const std::function<Status(size_t)>& fn);

 private:
  struct Job;

  void WorkerLoop(size_t worker);

  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::shared_ptr<Job> job_;  // current loop, null when idle
  uint64_t job_seq_ = 0;      // bumped per loop so a worker never rejoins
                              // a loop it already finished
  bool stop_ = false;
  // Claimed by the one ParallelFor that may use the workers; a
  // concurrent or reentrant call that loses the claim runs inline.
  std::atomic<bool> loop_active_{false};
};

}  // namespace hopi
