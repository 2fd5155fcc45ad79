#include "runtime/task_graph.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/timer.hpp"
#include "runtime/scheduler.hpp"

namespace tbsvd {

void DepTracker::register_task(int id, const DataRef* refs, std::size_t nrefs,
                               std::vector<int>& preds) {
  for (std::size_t r = 0; r < nrefs; ++r) {
    const DataRef& ref = refs[r];
    DataState& st = state_[ref.key];
    switch (ref.access) {
      case Access::Read:
        if (st.last_writer >= 0) preds.push_back(st.last_writer);
        st.readers.push_back(id);
        break;
      case Access::Write:
      case Access::ReadWrite:
        if (st.last_writer >= 0) preds.push_back(st.last_writer);
        for (int rd : st.readers) preds.push_back(rd);
        st.readers.clear();
        st.last_writer = id;
        break;
    }
  }
  std::sort(preds.begin(), preds.end());
  preds.erase(std::unique(preds.begin(), preds.end()), preds.end());
  // A task may both read and write the same key in one declaration list;
  // never depend on itself.
  preds.erase(std::remove(preds.begin(), preds.end(), id), preds.end());
}

std::vector<int> rank_priorities(const std::vector<double>& rank) {
  std::vector<int> prio(rank.size(), 0);
  const double max_rank =
      rank.empty() ? 0.0 : *std::max_element(rank.begin(), rank.end());
  if (max_rank > 0.0) {
    for (std::size_t i = 0; i < rank.size(); ++i) {
      prio[i] = static_cast<int>(rank[i] / max_rank * (1 << 20));
    }
  }
  return prio;
}

int TaskGraph::submit_impl(const char* name, TaskFn fn, const DataRef* refs,
                           std::size_t nrefs, int priority) {
  TBSVD_CHECK(!executed_, "cannot submit to an executed TaskGraph");
  const int id = static_cast<int>(tasks_.size());
  tasks_.emplace_back();
  Task& t = tasks_.back();
  t.fn = std::move(fn);
  t.name = name;
  t.priority = priority;

  pred_scratch_.clear();
  deps_.register_task(id, refs, nrefs, pred_scratch_);
  t.indegree = static_cast<int>(pred_scratch_.size());
  for (int p : pred_scratch_) tasks_[p].successors.push_back(id);
  return id;
}

int TaskGraph::submit(const char* name, TaskFn fn,
                      std::initializer_list<DataRef> refs, int priority) {
  return submit_impl(name, std::move(fn), refs.begin(), refs.size(), priority);
}

int TaskGraph::submit(const char* name, TaskFn fn,
                      const std::vector<DataRef>& refs, int priority) {
  return submit_impl(name, std::move(fn), refs.data(), refs.size(), priority);
}

void TaskGraph::prioritize_by_rank(const std::vector<double>& weight) {
  TBSVD_CHECK(weight.size() == tasks_.size(),
              "prioritize_by_rank: need one weight per task");
  const std::vector<int> prio = rank_priorities(upward_ranks(
      weight, [this](int i) -> const std::vector<int>& {
        return tasks_[i].successors;
      }));
  for (std::size_t i = 0; i < tasks_.size(); ++i) tasks_[i].priority = prio[i];
}

void TaskGraph::run(int num_threads) {
  TBSVD_CHECK(!executed_, "TaskGraph already executed");
  TBSVD_CHECK(num_threads >= 1, "need at least one thread");
  executed_ = true;
  Scheduler sched(*this, num_threads);
  sched.run();
}

void TaskGraph::run_serial() {
  TBSVD_CHECK(!executed_, "TaskGraph already executed");
  executed_ = true;
  // Serial execution acts as pseudo-worker 0 so task bodies that select
  // per-worker resources via current_worker() behave identically on the
  // reference path; the scope restores any enclosing worker id on exit.
  detail::WorkerIdScope worker_scope(0);
  trace_.reserve(tasks_.size());
  const double t0 = WallTimer::now();
  for (std::size_t i = 0; i < tasks_.size(); ++i) {
    TraceEvent ev;
    ev.task_id = static_cast<int>(i);
    ev.worker = 0;
    ev.name = tasks_[i].name;
    ev.t_start = WallTimer::now() - t0;
    tasks_[i].fn();
    ev.t_end = WallTimer::now() - t0;
    trace_.record(ev);
  }
}

}  // namespace tbsvd
