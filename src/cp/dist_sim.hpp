// Distributed-memory simulator: list scheduling with nodes of P cores,
// owner-compute task placement (a task runs on the node owning its output
// tile under the 2D block-cyclic distribution) and an alpha-beta network
// model for every DAG edge that crosses a node boundary — the substitute
// for the paper's 25-node InfiniBand runs (Figures 3 and 4).
#pragma once

#include "cp/dag_analysis.hpp"
#include "tile/distribution.hpp"

namespace tbsvd {

struct DistSimParams {
  int cores_per_node = 24;     ///< miriel: 2x12-core Haswell
  double alpha = 2.0e-6;       ///< per-message latency (s)
  double beta = 1.0 / 4.0e9;   ///< inverse bandwidth (s/byte); QDR ~40Gb/s
  /// Built-in tile size: the paper's tuned 160.
  static constexpr int kDefaultNb = 160;
  /// Tile size (message = nb*nb doubles); 0 = kDefaultNb.
  int nb = 0;
  /// The tile size actually simulated: nb if explicitly set, else 160.
  [[nodiscard]] int resolved_nb() const noexcept {
    return nb > 0 ? nb : kDefaultNb;
  }
  double tile_bytes() const {
    const double n = resolved_nb();
    return 8.0 * n * n;
  }
  double edge_cost() const { return alpha + tile_bytes() * beta; }
};

struct DistSimResult {
  double makespan = 0.0;
  double total_work = 0.0;
  double comm_volume_bytes = 0.0;  ///< total bytes crossing node boundaries
  std::size_t cross_edges = 0;
};

/// Simulate an op stream on the given process grid. `cost` returns the
/// task execution time in seconds.
[[nodiscard]] DistSimResult simulate_distributed(
    const std::vector<TileOp>& ops, const Distribution& dist,
    const DistSimParams& params, const OpCost& cost);

}  // namespace tbsvd
