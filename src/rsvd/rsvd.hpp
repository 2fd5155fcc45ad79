// Randomized truncated SVD (Halko–Martinsson–Tropp randomized range
// finder) on the tile stack: Gaussian sketch of k + oversample columns
// (src/common/rng, deterministic from the seed), TSQR orthonormalization
// (tsqr.hpp — the grid-sized Auto reduction tree on the work-stealing
// executor),
// optional power iterations with TSQR re-orthonormalization after every
// product, then a small SVD of the projected matrix through the shared
// Chan staging, preQR + GEBRD + BD2VAL (baseline/chan.hpp).
//
// Every tall stage runs on `nthreads` workers. The m x n x l products
// (A Omega, A^T Y, A Qz, A^T Q) and the U product split A's rows into fixed
// 1024-row chunks, one serial gemm each; the A^T products sum their
// per-chunk partials in chunk order. The chunk size does not depend on
// nthreads, so values and factors are bitwise identical for every thread
// count. The products read the input in place unless the guard below has
// to scale it, in which case they read one scaled working copy.
//
// The factors come from a one-sided Jacobi on the projected matrix. Its
// convergence test compares |a_pq| against eps * sqrt(a_pp) * sqrt(a_qq),
// never sqrt(a_pp * a_qq), so it holds at every representable input scale.
//
// Defaults: oversample = 8 additional sketch columns (clamped so the
// sketch never exceeds n) and power_iters = 1 subspace iteration — the
// standard HMT recommendation for decaying spectra, accurate to ~1e-9
// relative on top-k values of low-rank-plus-noise inputs in double. Raise
// power_iters to 2+ for nearly flat spectra (each iteration doubles the
// residual decay exponent at the cost of two more A-products + TSQRs);
// oversample = 0 selects the built-in 8.
//
// Hazard contract (docs/ROBUSTNESS.md), the full drivers' SafeScaling
// guard: NaN/Inf
// input throws numerical_hazard_error; k outside [1, min(m, n)] and other
// option misuse throws invalid_argument_error; extreme norms are brought
// into the per-precision safe range up front (dlascl protocol) and the
// values are unscaled on exit, flagged in SvdInfo. Fault-injection site:
// `rsvd.sketch_poison` (NaN into the sketch before the first TSQR).
#pragma once

#include <cstdint>
#include <vector>

#include "band/bd2val.hpp"
#include "core/svd.hpp"
#include "lac/dense.hpp"
#include "rsvd/tsqr.hpp"

namespace tbsvd {

struct GesvdTruncatedOptions {
  /// Extra sketch columns beyond k; 0 = the built-in 8.
  int oversample = 0;
  /// Subspace (power) iterations; each one multiplies the residual decay
  /// exponent by 2 at the cost of two more A-products + TSQRs. The
  /// default 1 suits decaying spectra; use 2+ when the spectrum is flat.
  int power_iters = 1;
  /// Sketch seed; runs are deterministic given (seed, shape, options).
  std::uint64_t seed = 0x5EEDBA5EDULL;
  TreeKind tree = TreeKind::Auto;  ///< TSQR reduction tree (tsqr.hpp)
  int nb = 0;        ///< TSQR tile size (0 = tsqr.hpp's sketch-width rule)
  int ib = 0;        ///< inner blocking (0 = the built-in 32)
  int nthreads = 1;  ///< executor workers (>= 1)
  /// Also form the truncated factors: U (m x k) and V (n x k) with
  /// A ~= U diag(values) V^T.
  bool want_factors = false;
  Bd2valOptions bd2val;
};

template <class T>
struct TruncatedSvdT {
  std::vector<double> values;  ///< top-k singular values, descending
  MatrixT<T> U;                ///< m x k left factor (want_factors only)
  MatrixT<T> V;                ///< n x k right factor (want_factors only)
  SvdInfo info;
};

using TruncatedSvd = TruncatedSvdT<double>;

/// Top-k singular values (and optional factors) of dense A, m >= n >= 1
/// (transpose first for wide inputs; the spectrum is transpose-invariant
/// and the factors swap). The input is not modified, and not copied unless
/// its norm lies outside the safe range.
template <class T>
TruncatedSvdT<T> gesvd_truncated(ConstMatrixViewT<T> A, int k,
                                 const GesvdTruncatedOptions& opts = {});

}  // namespace tbsvd
