// Algorithm generators: produce the TileOp streams of the paper's
// algorithms for a p x q tile grid.
//
//   build_hqr_ops      — tiled QR factorization QR(p, q) (Algorithm 1)
//   build_bidiag_ops   — BIDIAG:  QR(1) LQ(1) QR(2) ... QR(q)  (Section III.B)
//   build_rbidiag_ops  — R-BIDIAG: QR(p,q) then LQ(1) QR(2) ... QR(q) on the
//                        top q x q block (Section III.C); the overlap between
//                        the tail of the QR factorization and the head of the
//                        bidiagonalization emerges from the data flow.
//
// The streams are valid sequential orders: executing ops one by one in
// order is correct, and the superscalar runtime extracts all parallelism.
// They carry no scheduling priorities: the executor ranks the task graph
// it builds from the stream (upward ranks, runtime/task_graph.hpp).
//
// AlgConfig keeps Greedy as its default because it describes the paper's
// model (critical paths, simulated schedules), where Greedy has the
// shortest Table-I critical path. The drivers (ge2bnd, tsqr) default to
// the Auto tree with ncores = kAutoTargetWorkers instead: measured, one
// TSQRT per tile beats Greedy's GEQRT + TTQRT pair, and Auto ran faster
// than Greedy at every P = 1..4 on the fig2 shapes (docs/PERF.md).
#pragma once

#include <vector>

#include "core/tile_ops.hpp"
#include "tile/distribution.hpp"
#include "trees/hier_tree.hpp"
#include "trees/tree.hpp"

namespace tbsvd {

struct AlgConfig {
  TreeKind qr_tree = TreeKind::Greedy;
  TreeKind lq_tree = TreeKind::Greedy;
  /// Consumed by the Auto tree: target parallelism = gamma * ncores. The
  /// drivers set kAutoTargetWorkers here, never their thread count.
  int ncores = 1;
  double gamma = 2.0;
  /// Optional 2D block-cyclic distribution: when set, panels use the
  /// hierarchical tree (local tree per grid row/column + top-level tree,
  /// flat for FlatTS/FlatTT, binomial for Greedy/Auto, as in the paper).
  const Distribution* dist = nullptr;
};

/// Tiled QR factorization of a p x q grid (p >= q not required; steps run
/// to min(p, q)).
[[nodiscard]] std::vector<TileOp> build_hqr_ops(int p, int q,
                                                const AlgConfig& cfg);

/// BIDIAG on a p x q grid, p >= q: full -> band bidiagonal.
[[nodiscard]] std::vector<TileOp> build_bidiag_ops(int p, int q,
                                                   const AlgConfig& cfg);

/// R-BIDIAG on a p x q grid, p >= q: QR(p, q) then band bidiagonalization
/// of the q x q R factor.
[[nodiscard]] std::vector<TileOp> build_rbidiag_ops(int p, int q,
                                                    const AlgConfig& cfg);

/// Crossover rule used by the `Auto` algorithm selection: R-BIDIAG when
/// 3p >= 5q, i.e. Chan's flop crossover m >= 5/3 n expressed on the tile
/// grid (Elemental uses m >= 1.2 n). The critical-path study (Section
/// IV.C, delta_s in [5, 8]) still favours BIDIAG at that ratio, but the
/// flop and communication savings favour R-BIDIAG in practice.
[[nodiscard]] bool prefer_rbidiag(int p, int q) noexcept;

}  // namespace tbsvd
