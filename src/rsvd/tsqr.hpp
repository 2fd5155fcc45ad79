// Tall-skinny QR (TSQR) driver: factors a dense m x n matrix (m >= n)
// through the tiled QR machinery — TS/TT recursive panel kernels under a
// configurable reduction tree (Greedy binomial by default, the
// communication-optimal shape of Demmel et al.'s TSQR; FlatTS/FlatTT/Auto
// as in the paper's Section III) — executed on the work-stealing Scheduler
// through execute_tile_ops, so ready tasks run critical-path first (upward
// ranks of the task graph) exactly as in the GE2BND pipeline.
//
// The result keeps the factorization implicit: the tiled matrix holds R
// plus the Householder tiles, the T grids hold the block-reflector
// triangles, and the op stream records the elimination order. r() extracts
// the explicit n x n R; tsqr_apply_q / tsqr_form_q replay the recorded QR
// panel transforms on C (forward with Trans::Yes for Q^T C, reverse with
// Trans::No for Q C), so the m x m Q is never materialized — the
// randomized range-finder (rsvd.hpp) only ever needs the thin factor.
// The replay is itself a tile DAG: one task per (panel op, tile column of
// C), reading and writing the C tiles the op touches, so the reduction
// tree's row tiles fan out over the workers and the result is bitwise the
// same for every thread count.
//
// Padding contract: inputs are zero-padded to tile multiples internally.
// Reflectors computed from exactly-zero padding rows are exactly zero, so
// the padded orthogonal factor is block-diagonal over [real rows | padding]
// and the thin m x n factor returned by tsqr_form_q satisfies A = Q R with
// orthonormal columns — padding never leaks into results.
//
// Hazard contract (docs/ROBUSTNESS.md): inputs are scanned once up front;
// NaN/Inf throws numerical_hazard_error. Option misuse (wide input,
// nthreads < 1, negative nb/ib) throws invalid_argument_error.
#pragma once

#include <cstddef>
#include <vector>

#include "core/ge2bnd.hpp"
#include "lac/blas.hpp"
#include "lac/dense.hpp"
#include "tile/tile_matrix.hpp"
#include "trees/tree.hpp"

namespace tbsvd {

struct TsqrOptions {
  /// Reduction tree combining the per-panel tile rows (paper Section III).
  TreeKind tree = TreeKind::Greedy;
  /// Tile size; an explicit value wins. 0 splits the n panel columns into
  /// q = max(1, round(n / tuned nb)) tile columns and takes
  /// nb = max(16, n / q rounded up to a multiple of 8), where the tuned nb
  /// is the active calibration's, or 64 when none is loaded. Tile kernels
  /// cost O(nb^3) whether or not the columns are real, so a sketch panel
  /// must not pad up to a mostly empty tile: 72 columns give one 72-wide
  /// tile, 100 give two of 56, 40 stay 40, and 256 keep 64.
  int nb = 0;
  /// Inner blocking; 0 resolves to the tuned ib (historical 32), capped
  /// at nb.
  int ib = 0;
  int nthreads = 1;    ///< executor workers (>= 1)
  double gamma = 2.0;  ///< Auto-tree parallelism target multiplier
};

/// A factored TSQR: the tiled matrix (R + Householder tiles, padded to
/// tile multiples), the T grids, and the op stream that produced them —
/// the implicit-Q handle. Keep it alive to apply or form Q.
template <class T>
struct TsqrFactorsT {
  TileMatrixT<T> A;
  TFactorsT<T> t;
  std::vector<TileOp> ops;
  int ib = 32;
  int m = 0;  ///< unpadded input rows
  int n = 0;  ///< unpadded input cols
  std::size_t ntasks = 0;  ///< executor tasks of the factorization

  /// The explicit n x n upper-triangular R.
  [[nodiscard]] MatrixT<T> r() const;
};

using TsqrFactors = TsqrFactorsT<double>;

/// Factor dense A (m >= n >= 1). The input is copied (padded) into tiled
/// storage; A itself is not modified.
template <class T>
TsqrFactorsT<T> tsqr(ConstMatrixViewT<T> A, const TsqrOptions& opts = {});

/// Apply the implicit factor to C (f.m rows) in place:
///   Trans::Yes  C := Q^T C  (panel ops replayed forward),
///   Trans::No   C := Q C    (replayed in reverse).
/// Q here is the full orthogonal factor of the padded problem restricted
/// to the leading f.m rows: after Q^T C the leading f.n rows carry the
/// R-space coefficients (all a least-squares solve consumes); for Q C the
/// thin-factor semantics hold when C's rows beyond f.n are zero. The
/// replay runs as a tile DAG on nthreads workers (bitwise the same result
/// for every nthreads).
template <class T>
void tsqr_apply_q(const TsqrFactorsT<T>& f, Trans trans, MatrixViewT<T> C,
                  int nthreads = 1);

/// The explicit thin factor: m x n Q with orthonormal columns and
/// A = Q * R (the tile-DAG replay of Q applied to [I_n; 0]).
template <class T>
MatrixT<T> tsqr_form_q(const TsqrFactorsT<T>& f, int nthreads = 1);

}  // namespace tbsvd
