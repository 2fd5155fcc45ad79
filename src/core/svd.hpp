// GE2VAL: singular values of a general dense matrix via the paper's
// pipeline GE2BND (tiled, parallel) + BND2BD (bulge chasing) + BD2VAL
// (dqds on the bidiagonal). Templated over the scalar type T in {float,
// double}; singular values are always returned in double (float results
// embed exactly), while every pipeline stage runs in T arithmetic.
//
// Hazard contract (docs/ROBUSTNESS.md), run through the SafeScaling guard
// (common/hazard.hpp): the input is scanned once up front — NaN/Inf
// throws numerical_hazard_error; a max-norm outside the per-precision safe
// range [svd_safe_min<T>(), svd_safe_max<T>()] is scaled into it before
// the reduction (LAPACK dgesvd/dlascl protocol) and the singular values
// are unscaled on exit, flagged in SvdInfo. When dqds in BD2VAL runs out
// of its transform budget or fails, the solve degrades to Sturm bisection
// (Status::Degraded) instead of failing.
#pragma once

#include <vector>

#include "band/bd2val.hpp"
#include "common/error.hpp"
#include "core/ge2bnd.hpp"
#include "lac/dense.hpp"

namespace tbsvd {

struct GesvdOptions {
  /// GE2BND's options; ge2bnd.nthreads also bounds BND2BD's sweep
  /// pipeline (band/bnd2bd.hpp), whose result does not depend on it.
  Ge2bndOptions ge2bnd;
  /// Tile size used when tiling a dense input; 0 resolves to the active
  /// calibration's tuned nb (capped near the problem size so small inputs
  /// never pad up to a large tuned tile) and to the historical 64 when no
  /// calibration is loaded.
  int nb = 0;
  Bd2valOptions bd2val;
};

struct GesvdTimings {
  double ge2bnd_seconds = 0.0;
  double bnd2bd_seconds = 0.0;
  double bd2val_seconds = 0.0;
  std::size_t ge2bnd_tasks = 0;
  [[nodiscard]] double total() const noexcept {
    return ge2bnd_seconds + bnd2bd_seconds + bd2val_seconds;
  }
};

/// Per-solve diagnostics: what the hazard-hardening layer did. status is
/// Ok on the clean path and Degraded when a fallback produced the (still
/// correct) result; hazards that cannot be absorbed throw instead.
struct SvdInfo {
  Status status = Status::Ok;
  bool scaled = false;       ///< safe pre-scaling was applied
  double scale_from = 0.0;   ///< input max-norm (valid when scaled)
  double scale_to = 0.0;     ///< safe-range target norm (valid when scaled)
  long long qr_iterations = 0;   ///< BD2VAL dqds transforms (rejected included)
  bool bisection_fallback = false;  ///< BD2VAL degraded to Sturm bisection
  std::size_t ge2bnd_tasks = 0;

  /// True when the returned values are trustworthy — a flagged degraded
  /// solve (e.g. the Sturm bisection fallback) still produced a correct
  /// spectrum, just off the primary path.
  [[nodiscard]] bool ok() const noexcept {
    return status == Status::Ok || status == Status::Degraded;
  }
};

/// Singular values (descending) of a dense m x n matrix, m >= n. The input
/// is padded to tile multiples internally (zero rows/columns add exactly
/// zero singular values, which are trimmed from the result); the padded
/// tiles are what an extreme norm scales (reported via info).
template <class T>
std::vector<double> gesvd_values(ConstMatrixViewT<T> A,
                                 const GesvdOptions& opts,
                                 GesvdTimings* timings = nullptr,
                                 SvdInfo* info = nullptr);

}  // namespace tbsvd
