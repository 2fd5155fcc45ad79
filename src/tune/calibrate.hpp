// Measured per-kernel timing: the cost model that turns schedule simulation
// and critical-path analysis into wall-clock predictions.
//
// calibrate_kernels times the six tile-kernel families at one (nb, ib) on
// the current machine; measured_cost wraps the resulting table as an OpCost
// for cp/dag_analysis, cp/crossover and cp/dist_sim. Only the benches price
// ops by measured cost; the executor ranks ready tasks by the Table-I
// units (op_weight_units).
#pragma once

#include <map>

#include "core/tile_ops.hpp"
#include "cp/dag_analysis.hpp"

namespace tbsvd::tune {

/// Measured seconds per tile kernel at (nb, ib), best of `reps` runs.
/// Templated over the scalar so the float series calibrate with float
/// kernel times; the LQ mirrors share the QR costs (verified by
/// tests/test_lq_kernels).
template <class T = double>
std::map<Op, double> calibrate_kernels(int nb, int ib, int reps = 3);

/// Cost model from a calibration table (value-captured copy).
[[nodiscard]] OpCost measured_cost(const std::map<Op, double>& table);

/// Measured GEMM (NN, nb x nb x nb) throughput in GFlop/s, the backend
/// rate the kernel times are compared against.
template <class T = double>
double calibrate_gemm_gflops(int nb, int reps = 3);

}  // namespace tbsvd::tune
