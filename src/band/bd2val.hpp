// BD2VAL: singular values of an upper bidiagonal matrix. Templated over
// the scalar type T in {float, double}; deflation thresholds, shift tests
// and the bisection fallback all use numeric_limits<T>-derived constants,
// so the float instantiation converges to float accuracy rather than
// spinning toward double tolerances.
//
// Primary path: the differential qd algorithm with shifts (dqds;
// Fernando-Parlett 1994, Parlett-Marques 2000), ported from LAPACK
// xLASQ1-xLASQ6. That is what LAPACK's xBDSQR runs when no singular
// vectors are wanted, and it is the right algorithm for a values-only
// solve: its inner loop has no square root and no rotation, and it finds
// every singular value to high relative accuracy. The bidiagonal is scaled
// so its largest entry is sqrt(eps/safmin) and squared into a qd array;
// each transform reads one half of that array and writes the other, so a
// rejected shift is retried from intact data.
//
// Fallback: when the transform budget runs out or dqds fails, the driver
// hands the input (d, e) to the Sturm-bisection oracle (band/sturm.hpp),
// which always terminates. The fallback is flagged in Bd2valInfo; with
// allow_bisection_fallback = false it throws convergence_error instead.
// Non-finite input throws numerical_hazard_error up front (NaN never
// deflates, so iterating on it would spin). Contract details:
// docs/ROBUSTNESS.md.
#pragma once

#include <vector>

#include "band/bnd2bd.hpp"
#include "common/error.hpp"

namespace tbsvd {

struct Bd2valOptions {
  /// dqds transform budget: max_sweeps_per_value * n transforms plus a
  /// small fixed slack (dqds takes about 4 per value on typical input,
  /// more on spectra spanning many decades). >= 0; 0 leaves only the
  /// slack, which forces the bisection fallback on any nontrivial matrix
  /// — useful for exercising the degraded path.
  int max_sweeps_per_value = 30;
  bool allow_bisection_fallback = true;
};

/// Diagnostics for one bd2val solve.
struct Bd2valInfo {
  Status status = Status::Ok;  ///< Ok, or Degraded when bisection ran
  /// dqds transforms run, rejected shifts included (the name is kept so
  /// callers compile unchanged).
  long long qr_iterations = 0;
  bool bisection_fallback = false;
};

/// Singular values of the bidiagonal (d, e), sorted descending.
template <class T>
std::vector<T> bd2val(std::vector<T> d, std::vector<T> e,
                      const Bd2valOptions& opts = {},
                      Bd2valInfo* info = nullptr);

template <class T>
inline std::vector<T> bd2val(const BidiagonalT<T>& b,
                             const Bd2valOptions& opts = {},
                             Bd2valInfo* info = nullptr) {
  return bd2val<T>(b.d, b.e, opts, info);
}

}  // namespace tbsvd
