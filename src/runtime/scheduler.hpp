// Multi-threaded executor for TaskGraph: per-worker priority queues with
// locality-first scheduling (a completed task's newly-ready successors go to
// the finishing worker, approximating PARSEC's data-reuse heuristic) and
// work stealing for load balance. Thieves steal from the *cold* end of a
// victim's queue: the priorities are upward ranks (critical-path lengths,
// upward_ranks in task_graph.hpp), so racing the victim for its hottest
// entry would invert the CP-first policy — the victim keeps its
// critical-path work, the thief takes the task whose delay costs the
// makespan least.
//
// Idle workers sleep on a condition variable. The wakeup protocol is
// lost-wakeup-free: a worker snapshots work_signal_ *before* probing the
// queues, and every producer bumps the signal under idle_mtx_ before
// notifying, so a push that lands between a failed pop/steal and the wait
// is always visible to the wait predicate.
//
// Failure propagation (docs/ROBUSTNESS.md): a task that throws aborts the
// run — no further tasks start, in-flight tasks on other workers finish,
// and the first exception is rethrown to the caller of run() on the
// submitting thread. Exceptions never cross silently into worker threads
// (which would std::terminate) and a failed run never reports success.
#pragma once

#include <condition_variable>
#include <exception>
#include <memory>
#include <mutex>
#include <set>
#include <vector>

#include "runtime/task_graph.hpp"

namespace tbsvd {

/// Index of the Scheduler worker (or run_serial pseudo-worker 0) executing
/// on the calling thread, -1 on non-worker threads. Task bodies use this to
/// pick per-worker resources (e.g. the batched serving path's workspace
/// arenas) without any locking.
[[nodiscard]] int current_worker() noexcept;

namespace detail {
/// RAII scope marking the calling thread as worker `wid` for
/// current_worker(); restores the previous id on destruction (nested
/// run_serial inside a worker task keeps the outer id's arena valid until
/// the inner scope ends).
class WorkerIdScope {
 public:
  explicit WorkerIdScope(int wid) noexcept;
  ~WorkerIdScope();
  WorkerIdScope(const WorkerIdScope&) = delete;
  WorkerIdScope& operator=(const WorkerIdScope&) = delete;

 private:
  int prev_;
};
}  // namespace detail

class Scheduler {
 public:
  Scheduler(TaskGraph& graph, int num_threads);

  /// Runs the graph to completion; fills the graph's trace.
  void run();

 private:
  friend struct SchedulerTestPeer;  // white-box steal/pop policy tests

  struct Entry {
    int priority;
    int task_id;  // tie-break: lower id (earlier submission) first
    // Orders the queue hottest-first: *begin() is the entry the owner pops,
    // *rbegin() the cold end a thief steals.
    bool operator<(const Entry& o) const noexcept {
      if (priority != o.priority) return priority > o.priority;
      return task_id < o.task_id;
    }
  };

  struct WorkerQueue {
    std::mutex mtx;
    std::multiset<Entry> entries;  // both-end access (pop hot, steal cold)
  };

  void worker_loop(int wid);
  void push_task(int wid, int task_id);
  bool try_pop(int wid, int& task_id);
  bool try_steal(int thief, int& task_id);

  TaskGraph& graph_;
  int nthreads_;
  std::vector<std::unique_ptr<WorkerQueue>> queues_;
  std::vector<std::atomic<int>> indegree_;
  std::atomic<std::size_t> remaining_{0};
  std::mutex idle_mtx_;
  std::condition_variable idle_cv_;
  std::atomic<int> work_signal_{0};
  std::vector<Trace> worker_traces_;
  double t0_ = 0.0;
  std::atomic<bool> aborted_{false};
  std::mutex error_mtx_;
  std::exception_ptr first_error_;  // first task failure, rethrown by run()
};

}  // namespace tbsvd
