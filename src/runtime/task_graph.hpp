// Tile-superscalar task graph: tasks declare which data they Read / Write /
// ReadWrite; true dependencies are derived so that the parallel execution is
// equivalent to executing tasks in submission order (sequential consistency),
// exactly the contract PARSEC gives DPLASMA's algorithm writers.
//
// Usage:
//   TaskGraph g;
//   g.submit("GEQRT", [=]{ ... }, {{akk, Access::ReadWrite},
//                                  {tkk, Access::Write}}, /*priority=*/10);
//   g.run(nthreads);   // or g.run_serial() for a reference execution
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <initializer_list>
#include <unordered_map>
#include <vector>

#include "runtime/trace.hpp"

namespace tbsvd {

enum class Access : std::uint8_t { Read, Write, ReadWrite };

/// One declared data access. The key is any stable address identifying the
/// datum (e.g. a tile's base pointer); the runtime never dereferences it.
struct DataRef {
  const void* key;
  Access access;
};

/// Derives superscalar dependencies from a stream of task data-access
/// declarations. Shared between the execution runtime (TaskGraph) and the
/// critical-path analyzer (cp/dag_analysis), so both see identical DAGs.
class DepTracker {
 public:
  /// Registers task `id`'s accesses; appends the ids of its predecessors
  /// (deduplicated) to `preds`.
  void register_task(int id, const DataRef* refs, std::size_t nrefs,
                     std::vector<int>& preds);

  void clear() { state_.clear(); }

 private:
  struct DataState {
    int last_writer = -1;
    std::vector<int> readers;  // readers since last_writer
  };
  std::unordered_map<const void*, DataState> state_;
};

/// Upward rank of every task of a DAG whose ids are a topological order
/// (submission order is one): rank[i] = weight[i] + max over successors s
/// of rank[s], the weighted length of the longest path from task i to a
/// sink. Scheduling ready tasks by decreasing rank is critical-path-first
/// list scheduling (Bouwmeester-Langou; the source paper's Section IV).
/// `successors(i)` returns an iterable of ids greater than i. This one
/// reverse sweep serves the executor and the schedule simulators.
template <class Successors>
[[nodiscard]] std::vector<double> upward_ranks(
    const std::vector<double>& weight, const Successors& successors) {
  std::vector<double> rank(weight.size(), 0.0);
  for (std::size_t i = weight.size(); i-- > 0;) {
    double best = 0.0;
    for (int s : successors(static_cast<int>(i))) {
      best = std::max(best, rank[s]);
    }
    rank[i] = weight[i] + best;
  }
  return rank;
}

/// Quantizes ranks to TaskGraph priorities in [0, 2^20]: the largest rank
/// maps to 2^20, zero to 0 (all zeros when every rank is zero).
[[nodiscard]] std::vector<int> rank_priorities(const std::vector<double>& rank);

/// Static task DAG with named tasks, priorities and trace collection.
class TaskGraph {
 public:
  using TaskFn = std::function<void()>;

  TaskGraph() = default;
  TaskGraph(const TaskGraph&) = delete;
  TaskGraph& operator=(const TaskGraph&) = delete;

  /// Submit a task. Higher priority runs earlier among ready tasks.
  /// Returns the task id (submission index).
  int submit(const char* name, TaskFn fn, std::initializer_list<DataRef> refs,
             int priority = 0);
  int submit(const char* name, TaskFn fn, const std::vector<DataRef>& refs,
             int priority = 0);

  [[nodiscard]] std::size_t size() const noexcept { return tasks_.size(); }

  /// Replaces every submitted task's priority by its quantized upward rank
  /// under `weight` (one entry per task), read off the graph's own
  /// successor lists.
  void prioritize_by_rank(const std::vector<double>& weight);

  /// Execute with `num_threads` workers (>= 1). Blocks until completion.
  /// May be called once per graph.
  void run(int num_threads);

  /// Execute sequentially in submission order (reference semantics).
  void run_serial();

  [[nodiscard]] const Trace& trace() const noexcept { return trace_; }

  /// Read-only structural access (used by tests and the DAG analyzer).
  [[nodiscard]] const std::vector<int>& successors(int id) const {
    return tasks_[id].successors;
  }
  [[nodiscard]] int indegree(int id) const { return tasks_[id].indegree; }
  [[nodiscard]] const char* name(int id) const { return tasks_[id].name; }
  [[nodiscard]] int priority(int id) const { return tasks_[id].priority; }

 private:
  friend class Scheduler;

  struct Task {
    TaskFn fn;
    const char* name = "";
    int priority = 0;
    int indegree = 0;
    std::vector<int> successors;
  };

  int submit_impl(const char* name, TaskFn fn, const DataRef* refs,
                  std::size_t nrefs, int priority);

  std::deque<Task> tasks_;
  DepTracker deps_;
  std::vector<int> pred_scratch_;
  Trace trace_;
  bool executed_ = false;
};

}  // namespace tbsvd
