// A small work-stealing thread pool for fan-out model evaluation.
//
// The ModelEngine (repro/engine) evaluates many independent co-schedule
// candidates per batch; each candidate is CPU-bound and takes a few
// microseconds to a few milliseconds depending on the co-schedule size,
// so dynamic load balancing matters more than queueing sophistication.
// Each worker owns a deque: it pops its own tasks LIFO (cache-warm) and
// steals FIFO from victims when empty. parallel_for() additionally lets
// the *calling* thread participate, so a pool is never slower than the
// plain loop it replaces, and a pool of size 1 degenerates to serial
// execution on the caller plus one helper.
//
// Guarantees relied on by the engine's determinism tests: tasks receive
// only their index, workers never reorder a task's internal work, and
// parallel_for returns only after every index in [0, n) ran exactly
// once (rethrowing the first task exception, if any).
//
// Concurrency invariants are declared with clang thread-safety
// annotations (see repro/common/thread_annotations.hpp): each Queue's
// deque is guarded by that queue's mutex, and the scheduler state
// (pending_, next_queue_, stopping_) by sleep_mutex_. The two are
// never held together — every sleep_mutex_ critical section ends
// before a queue mutex is taken and vice versa — so there is no lock
// order to maintain.
#pragma once

#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "repro/common/mutex.hpp"
#include "repro/common/thread_annotations.hpp"

namespace repro::common {

class ThreadPool {
 public:
  /// `threads` = 0 picks one worker per hardware thread (at least 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads (excluding callers joining parallel_for).
  std::size_t size() const { return workers_.size(); }

  /// Fire-and-forget task; runs on some worker. Safe to call from
  /// worker threads (nested submission feeds the submitter's own deque,
  /// which is what makes the stealing useful).
  void submit(std::function<void()> task);

  /// Run body(i) for every i in [0, n), distributing indices over the
  /// workers *and* the calling thread, and block until all have
  /// completed. Indices are claimed dynamically (work stealing at item
  /// granularity), so uneven per-index cost balances automatically.
  /// The first exception thrown by any body(i) is rethrown here after
  /// all claimed work has drained.
  void parallel_for(std::size_t n,
                    const std::function<void(std::size_t)>& body);

  /// Default worker count: hardware_concurrency, at least 1.
  static std::size_t default_threads();

 private:
  struct Queue {
    Mutex mutex;
    std::deque<std::function<void()>> tasks REPRO_GUARDED_BY(mutex);
  };

  void worker_loop(std::size_t self);
  bool try_run_one(std::size_t self);
  bool pop_own(std::size_t self, std::function<void()>& out);
  bool steal(std::size_t thief, std::function<void()>& out);

  // queues_ and workers_ are sized in the constructor and never
  // resized afterwards; only the elements behind Queue::mutex mutate.
  std::vector<std::unique_ptr<Queue>> queues_ REPRO_CONST_AFTER_INIT;
  std::vector<std::thread> workers_;

  Mutex sleep_mutex_;
  CondVar sleep_cv_;
  /// Tasks submitted but not yet started.
  std::size_t pending_ REPRO_GUARDED_BY(sleep_mutex_) = 0;
  /// Round-robin cursor for external submitters.
  std::size_t next_queue_ REPRO_GUARDED_BY(sleep_mutex_) = 0;
  bool stopping_ REPRO_GUARDED_BY(sleep_mutex_) = false;
};

/// Run body(i) for every i in [0, n) under the `threads` convention of
/// the option structs: 1 runs the indices in order on the caller and
/// creates no pool; any other value runs them on a ThreadPool of that
/// many workers (0 = one per hardware thread) built for this call. A
/// body that writes only result slot i gives output independent of
/// `threads`. The first exception thrown by a body propagates.
void for_each_index(std::size_t threads, std::size_t n,
                    const std::function<void(std::size_t)>& body);

}  // namespace repro::common
