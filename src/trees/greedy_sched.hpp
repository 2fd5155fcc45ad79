// True (pipelined) GREEDY elimination ordering for the tiled QR
// factorization, after Bouwmeester et al. and Cosnard-Muller-Robert: rather
// than a fixed binomial tree per panel, rows are paired as soon as they
// become available, which lets consecutive panels overlap deeply. This is
// the ordering behind the paper's QR-GRE(p, q) = 22q + o(q) result and is
// what makes R-BIDIAG's critical path beat BIDIAG's on tall-and-skinny
// matrices (Sections IV.B-C).
//
// The schedule is computed by an event-driven ASAP simulation with
// unbounded processors and Table-I weights (op_weight_units: GEQRT 4,
// UNMQR 6, TTQRT 2, TTMQR 6); only the resulting pairing order is kept — the actual critical
// path is recomputed exactly by the DAG analyzer from the emitted ops.
#pragma once

#include <vector>

#include "trees/tree.hpp"

namespace tbsvd {

struct GreedyQrSchedule {
  /// For tile column k: eliminations (piv, row) in simulated start order,
  /// all of TT kind (every row is triangularized at column entry). Indices
  /// are absolute tile rows (the pivot of the final survivor is row k).
  std::vector<std::vector<Elim>> column_elims;
  /// Weighted makespan of the ASAP simulation (units of nb^3/3).
  double simulated_cp = 0.0;
};

/// Greedy pipelined schedule for the QR factorization of a p x q tile grid.
[[nodiscard]] GreedyQrSchedule greedy_qr_schedule(int p, int q);

}  // namespace tbsvd
