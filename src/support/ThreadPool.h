//===- ThreadPool.h - Fixed-size worker pool -------------------*- C++ -*-===//
//
// Part of POSE. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small fixed-size worker pool built for level-synchronous parallelism:
/// parallelFor(N, Body) runs Body(0..N-1) across the worker threads plus
/// the calling thread and returns once every index has finished. Indices
/// are claimed one at a time under the pool mutex, the right trade-off for
/// this project's coarse work items (a function copy, a phase application
/// and a canonicalization per index); there is no work stealing or
/// chunking to tune, and no allocation per call.
///
/// The pool is deliberately not a general task system: one parallelFor
/// runs at a time, submitting from inside Body deadlocks by design, and
/// determinism is the caller's job (each index must write only its own
/// output slot; the enumerator commits those slots in frontier order
/// under its own mutex as they finish).
///
//===----------------------------------------------------------------------===//

#ifndef POSE_SUPPORT_THREADPOOL_H
#define POSE_SUPPORT_THREADPOOL_H

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace pose {

class ThreadPool {
public:
  /// Spawns \p WorkerCount background threads. The calling thread also
  /// executes work, so a pool built with jobs - 1 workers runs jobs
  /// threads in total; WorkerCount == 0 degrades to inline execution with
  /// no threads and no locking.
  explicit ThreadPool(unsigned WorkerCount);
  ~ThreadPool();

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  /// Total threads that execute work (the workers plus the caller).
  unsigned threads() const {
    return static_cast<unsigned>(Workers.size()) + 1;
  }

  /// Runs Body(I) for every I in [0, Count), distributing indices across
  /// the workers and the calling thread; returns after all have finished.
  /// An exception thrown by Body is captured (every index is still
  /// attempted), and the first one is rethrown here on the submitting
  /// thread once the job has drained — never std::terminate on a worker.
  /// The pool stays usable after a throwing job.
  void parallelFor(size_t Count, const std::function<void(size_t)> &Body);

private:
  void workerLoop();
  /// Runs Body(I), capturing an escaping exception into FirstError (the
  /// first one wins). Called without M held.
  void runIndex(const std::function<void(size_t)> &Body, size_t I);

  std::vector<std::thread> Workers;
  std::mutex M;
  std::condition_variable WakeWorkers;
  std::condition_variable JobDone;
  /// All job state below is guarded by M. Job is non-null only while a
  /// parallelFor is in flight; workers snapshot it under the lock and may
  /// dereference it only between claiming an index and reporting that
  /// index done (parallelFor cannot return inside that window because
  /// Pending is still nonzero).
  const std::function<void(size_t)> *Job = nullptr;
  size_t Count = 0;   ///< Indices in the current job.
  size_t Next = 0;    ///< Next unclaimed index.
  size_t Pending = 0; ///< Claimed-or-unclaimed indices not yet finished.
  uint64_t Generation = 0; ///< Bumped per job so workers notice new work.
  bool ShuttingDown = false;
  /// First exception thrown by any Body this job (guarded by M); moved
  /// out and rethrown by parallelFor after the job drains.
  std::exception_ptr FirstError;
};

} // namespace pose

#endif // POSE_SUPPORT_THREADPOOL_H
