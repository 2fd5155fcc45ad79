// DAG analysis over TileOp streams: exact critical paths with unbounded
// resources (Table-I weights) and bounded-resource list scheduling. Both
// consume the same op streams as the execution runtime, so analyzed and
// executed DAGs are identical by construction.
#pragma once

#include <functional>
#include <vector>

#include "core/tile_ops.hpp"

namespace tbsvd {

/// Per-op cost model. Defaults to Table-I unit weights; benchmarks swap in
/// measured per-kernel seconds to predict wall-clock schedules.
using OpCost = std::function<double(const TileOp&)>;

/// Table-I weights in units of nb^3/3 flops.
[[nodiscard]] OpCost unit_cost();

struct DagStats {
  double critical_path = 0.0;  ///< longest weighted path, unbounded procs
  double total_work = 0.0;     ///< sum of all task weights
  std::size_t ntasks = 0;
  std::size_t nedges = 0;
  int max_width = 0;  ///< max tasks simultaneously running (unbounded ASAP)
};

/// Longest-path analysis with unlimited processors and zero communication
/// (the paper's critical-path model).
[[nodiscard]] DagStats analyze_dag(const std::vector<TileOp>& ops,
                                   const OpCost& cost = unit_cost());

/// Build predecessor lists exactly as the runtime would.
void build_dag(const std::vector<TileOp>& ops,
               std::vector<std::vector<int>>& preds);

}  // namespace tbsvd
