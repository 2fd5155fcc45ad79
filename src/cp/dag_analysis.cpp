#include "cp/dag_analysis.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "runtime/task_graph.hpp"

namespace tbsvd {

namespace {

// Symbolic data key for a tile access: packs (grid, part, i, j) into a
// fake pointer so DepTracker derives dependencies without real storage.
const void* symbolic_key(Grid g, Part part, int i, int j) {
  const auto v = (static_cast<std::uintptr_t>(static_cast<unsigned>(g) + 1)
                  << 58) |
                 (static_cast<std::uintptr_t>(static_cast<unsigned>(part))
                  << 56) |
                 (static_cast<std::uintptr_t>(static_cast<unsigned>(i))
                  << 28) |
                 static_cast<std::uintptr_t>(static_cast<unsigned>(j));
  return reinterpret_cast<const void*>(v);
}

}  // namespace

OpCost unit_cost() {
  return [](const TileOp& t) { return op_weight_units(t.op); };
}

void build_dag(const std::vector<TileOp>& ops,
               std::vector<std::vector<int>>& preds) {
  preds.assign(ops.size(), {});
  DepTracker tracker;
  std::vector<TileAccess> acc;
  std::vector<DataRef> refs;
  for (std::size_t id = 0; id < ops.size(); ++id) {
    acc.clear();
    op_accesses(ops[id], acc);
    refs.clear();
    for (const TileAccess& a : acc) {
      refs.push_back(
          DataRef{symbolic_key(a.grid, a.part, a.i, a.j), a.access});
    }
    tracker.register_task(static_cast<int>(id), refs.data(), refs.size(),
                          preds[id]);
  }
}

DagStats analyze_dag(const std::vector<TileOp>& ops, const OpCost& cost) {
  std::vector<std::vector<int>> preds;
  build_dag(ops, preds);

  DagStats st;
  st.ntasks = ops.size();
  std::vector<double> finish(ops.size(), 0.0);
  std::vector<double> start(ops.size(), 0.0);
  for (std::size_t i = 0; i < ops.size(); ++i) {
    double ready = 0.0;
    for (int p : preds[i]) ready = std::max(ready, finish[p]);
    const double w = cost(ops[i]);
    start[i] = ready;
    finish[i] = ready + w;
    st.total_work += w;
    st.nedges += preds[i].size();
    st.critical_path = std::max(st.critical_path, finish[i]);
  }
  // Max parallelism of the ASAP schedule: sweep start/end events.
  std::vector<std::pair<double, int>> events;
  events.reserve(2 * ops.size());
  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (finish[i] > start[i]) {
      events.emplace_back(start[i], +1);
      events.emplace_back(finish[i], -1);
    }
  }
  std::sort(events.begin(), events.end(),
            [](const auto& a, const auto& b) {
              if (a.first != b.first) return a.first < b.first;
              return a.second < b.second;  // process ends before starts
            });
  int width = 0;
  for (const auto& [t, delta] : events) {
    width += delta;
    st.max_width = std::max(st.max_width, width);
  }
  return st;
}

}  // namespace tbsvd
