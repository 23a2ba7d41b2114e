#include "repro/common/thread_pool.hpp"

#include <atomic>
#include <exception>
#include <memory>

#include "repro/common/ensure.hpp"

namespace repro::common {

namespace {

/// Identity of the current thread within a pool; lets nested submit()
/// calls feed the submitting worker's own deque.
struct WorkerIdentity {
  const ThreadPool* pool = nullptr;
  std::size_t index = 0;
};
thread_local WorkerIdentity tls_worker;

}  // namespace

std::size_t ThreadPool::default_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

ThreadPool::ThreadPool(std::size_t threads) {
  const std::size_t n = threads == 0 ? default_threads() : threads;
  queues_.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    queues_.push_back(std::make_unique<Queue>());
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    workers_.emplace_back([this, i] { worker_loop(i); });
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(sleep_mutex_);
    stopping_ = true;
  }
  sleep_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  REPRO_ENSURE(static_cast<bool>(task), "empty task");
  std::size_t target;
  {
    MutexLock lock(sleep_mutex_);
    REPRO_ENSURE(!stopping_, "submit on a stopping pool");
    target = (tls_worker.pool == this) ? tls_worker.index
                                       : next_queue_++ % queues_.size();
    ++pending_;
  }
  {
    MutexLock lock(queues_[target]->mutex);
    queues_[target]->tasks.push_back(std::move(task));
  }
  sleep_cv_.notify_one();
}

bool ThreadPool::pop_own(std::size_t self, std::function<void()>& out) {
  Queue& q = *queues_[self];
  MutexLock lock(q.mutex);
  if (q.tasks.empty()) return false;
  out = std::move(q.tasks.back());  // LIFO: freshest (cache-warm) first
  q.tasks.pop_back();
  return true;
}

bool ThreadPool::steal(std::size_t thief, std::function<void()>& out) {
  const std::size_t n = queues_.size();
  for (std::size_t hop = 1; hop < n; ++hop) {
    Queue& q = *queues_[(thief + hop) % n];
    MutexLock lock(q.mutex);
    if (q.tasks.empty()) continue;
    out = std::move(q.tasks.front());  // FIFO: oldest, least contended end
    q.tasks.pop_front();
    return true;
  }
  return false;
}

bool ThreadPool::try_run_one(std::size_t self) {
  std::function<void()> task;
  if (!pop_own(self, task) && !steal(self, task)) return false;
  {
    MutexLock lock(sleep_mutex_);
    --pending_;
  }
  task();
  return true;
}

void ThreadPool::worker_loop(std::size_t self) {
  tls_worker = {this, self};
  while (true) {
    if (try_run_one(self)) continue;
    MutexLock lock(sleep_mutex_);
    if (pending_ > 0) continue;  // raced with a submit; go claim it
    if (stopping_) return;       // queues drained, shutting down
    sleep_cv_.wait(sleep_mutex_, [this]() REPRO_REQUIRES(sleep_mutex_) {
      return pending_ > 0 || stopping_;
    });
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& body) {
  if (n == 0) return;
  REPRO_ENSURE(static_cast<bool>(body), "empty body");

  struct ForState {
    const std::function<void(std::size_t)>* body = nullptr;
    std::size_t limit REPRO_CONST_AFTER_INIT = 0;
    std::atomic<std::size_t> next{0};
    // Named distinctly from ThreadPool::Queue::mutex so every lock
    // site resolves unambiguously in the lock/order pass.
    Mutex done_mutex;
    CondVar done_cv;
    std::size_t completed REPRO_GUARDED_BY(done_mutex) = 0;
    std::exception_ptr error REPRO_GUARDED_BY(done_mutex);
  };
  auto state = std::make_shared<ForState>();
  state->body = &body;
  state->limit = n;

  // Claim loop shared by the caller and the helper tasks: indices are
  // handed out one atomic fetch at a time, so load imbalance between
  // candidates self-corrects. Once every index is claimed the loop body
  // is never dereferenced again, which keeps `body` (a reference owned
  // by this frame) safe even while helper closures are still unwinding.
  auto drain = [](const std::shared_ptr<ForState>& s) {
    while (true) {
      // relaxed: each index is claimed exactly once by atomicity
      // alone; the done_mutex lock below orders the results.
      const std::size_t i = s->next.fetch_add(1, std::memory_order_relaxed);
      if (i >= s->limit) return;
      std::exception_ptr error;
      try {
        (*s->body)(i);
      } catch (...) {
        error = std::current_exception();
      }
      MutexLock lock(s->done_mutex);
      if (error && !s->error) s->error = error;
      if (++s->completed == s->limit) s->done_cv.notify_all();
    }
  };

  const std::size_t helpers = std::min(workers_.size(), n);
  for (std::size_t h = 0; h < helpers; ++h)
    submit([state, drain] { drain(state); });
  drain(state);

  MutexLock lock(state->done_mutex);
  state->done_cv.wait(state->done_mutex,
                      [&]() REPRO_REQUIRES(state->done_mutex) {
                        return state->completed == state->limit;
                      });
  if (state->error) std::rethrow_exception(state->error);
}

void for_each_index(std::size_t threads, std::size_t n,
                    const std::function<void(std::size_t)>& body) {
  if (threads == 1 || n <= 1) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }
  ThreadPool pool(threads);
  pool.parallel_for(n, body);
}

}  // namespace repro::common
