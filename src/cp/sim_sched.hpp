// Bounded-resource list scheduling over TileOp DAGs: predicts the makespan
// of a P-core execution of exactly the task graph the runtime would run.
// Used to reproduce the paper's 24-core shared-memory experiments (Fig. 2)
// on hardware with fewer cores, driven by measured kernel times.
#pragma once

#include "cp/dag_analysis.hpp"

namespace tbsvd {

struct SimResult {
  double makespan = 0.0;
  double total_work = 0.0;
  double utilization = 0.0;  ///< total_work / (makespan * nprocs)
};

/// Event-driven list scheduling with `nprocs` identical workers and zero
/// communication cost: simulate_distributed on a single node. Priority =
/// upward rank (longest path to a sink, runtime/task_graph.hpp), the same
/// critical-path order the executor uses, tie-broken by submission order.
[[nodiscard]] SimResult simulate_schedule(const std::vector<TileOp>& ops,
                                          int nprocs,
                                          const OpCost& cost = unit_cost());

}  // namespace tbsvd
