#include "cp/dist_sim.hpp"

#include <algorithm>
#include <queue>

#include "common/check.hpp"
#include "runtime/task_graph.hpp"

namespace tbsvd {

DistSimResult simulate_distributed(const std::vector<TileOp>& ops,
                                   const Distribution& dist,
                                   const DistSimParams& params,
                                   const OpCost& cost) {
  const std::size_t n = ops.size();
  DistSimResult res;
  if (n == 0) return res;

  std::vector<std::vector<int>> preds;
  build_dag(ops, preds);
  std::vector<std::vector<int>> succs(n);
  std::vector<int> indeg(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    indeg[i] = static_cast<int>(preds[i].size());
    for (int p : preds[i]) succs[p].push_back(static_cast<int>(i));
  }

  // Owner-compute placement.
  std::vector<int> node(n);
  for (std::size_t i = 0; i < n; ++i) {
    int ti, tj;
    op_output_tile(ops[i], ti, tj);
    node[i] = dist.owner(ti, tj);
  }

  std::vector<double> w(n);
  for (std::size_t i = 0; i < n; ++i) {
    w[i] = cost(ops[i]);
    res.total_work += w[i];
  }
  // Critical-path ranks ignoring communication (good priorities anyway).
  const std::vector<double> rank =
      upward_ranks(w, [&succs](int i) -> const std::vector<int>& {
        return succs[i];
      });

  const double edge_cost = params.edge_cost();
  std::vector<double> ready_time(n, 0.0);

  struct ReadyEntry {
    double rank;
    int id;
    bool operator<(const ReadyEntry& o) const noexcept {
      if (rank != o.rank) return rank < o.rank;
      return id > o.id;
    }
  };
  struct Event {
    double t;
    int id;
    bool arrival;  // false = completion
    bool operator>(const Event& o) const noexcept { return t > o.t; }
  };

  const int nnodes = dist.nodes();
  std::vector<std::priority_queue<ReadyEntry>> ready(nnodes);
  std::vector<int> free_cores(nnodes, params.cores_per_node);
  std::priority_queue<Event, std::vector<Event>, std::greater<>> events;

  for (std::size_t i = 0; i < n; ++i) {
    if (indeg[i] == 0) ready[node[i]].push({rank[i], static_cast<int>(i)});
  }

  double now = 0.0;
  std::size_t done = 0;
  auto dispatch = [&] {
    for (int nd = 0; nd < nnodes; ++nd) {
      while (free_cores[nd] > 0 && !ready[nd].empty()) {
        const int id = ready[nd].top().id;
        ready[nd].pop();
        --free_cores[nd];
        events.push({now + w[id], id, false});
      }
    }
  };

  dispatch();
  while (done < n) {
    TBSVD_CHECK(!events.empty(), "distributed simulator stalled");
    now = events.top().t;
    while (!events.empty() && events.top().t <= now) {
      const Event ev = events.top();
      events.pop();
      if (ev.arrival) {
        ready[node[ev.id]].push({rank[ev.id], ev.id});
        continue;
      }
      // Completion of ev.id on its node.
      ++free_cores[node[ev.id]];
      ++done;
      for (int s : succs[ev.id]) {
        const bool cross = node[s] != node[ev.id];
        const double arrive = now + (cross ? edge_cost : 0.0);
        if (cross) {
          res.comm_volume_bytes += params.tile_bytes();
          ++res.cross_edges;
        }
        ready_time[s] = std::max(ready_time[s], arrive);
        if (--indeg[s] == 0) {
          if (ready_time[s] <= now) {
            ready[node[s]].push({rank[s], s});
          } else {
            events.push({ready_time[s], s, true});
          }
        }
      }
    }
    dispatch();
  }
  res.makespan = now;
  return res;
}

}  // namespace tbsvd
