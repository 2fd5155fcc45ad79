// Numerical-hazard detection and LAPACK-style safe scaling, templated over
// the storage scalar T in {float, double}.
//
// The SVD drivers scan their input once up front: NaN/Inf throws
// numerical_hazard_error immediately (iterating on non-finite data can
// spin forever), and matrices whose max-norm falls outside
// [svd_safe_min<T>(), svd_safe_max<T>()] are scaled into that range before
// the reduction and the singular values unscaled on exit — the
// dgesvd/dlascl protocol, which keeps every intermediate quantity (norms,
// Gram entries, shifts) representable without overflow or destructive
// underflow. The bounds are numeric_limits<T>-derived, so the float path
// gets float-sized safety margins (smlnum ~ 9.1e-13, bignum ~ 1.1e12)
// instead of the double ones. Scaling is exact up to one rounding per
// entry, so scaled solves carry full relative accuracy; drivers flag it in
// their SvdInfo. Every driver runs the protocol through one SafeScaling
// guard. See docs/ROBUSTNESS.md for the full contract.
#pragma once

#include <cstddef>
#include <vector>

#include "lac/dense.hpp"

namespace tbsvd {

struct SvdInfo;
struct Bd2valInfo;

/// One-pass scan result: finiteness and the max absolute entry (held in
/// double regardless of the scanned precision — float magnitudes embed
/// exactly).
struct ExtremeScan {
  bool finite = true;
  double amax = 0.0;
};

template <class T>
[[nodiscard]] ExtremeScan scan_extremes(const T* x, std::size_t n) noexcept;
template <class T>
[[nodiscard]] ExtremeScan scan_extremes(ConstMatrixViewT<T> A) noexcept;

template <class T>
[[nodiscard]] bool all_finite(const T* x, std::size_t n) noexcept;
template <class T>
[[nodiscard]] bool all_finite(ConstMatrixViewT<T> A) noexcept;

/// Safe-range bounds for SVD reductions in precision T: smlnum =
/// sqrt(safe_min)/eps and bignum = 1/smlnum, exactly LAPACK dgesvd's
/// choices (~6.7e-138 / 1.5e137 in IEEE double; ~9.1e-13 / 1.1e12 in IEEE
/// float). Norms inside [smlnum, bignum] square without hazard. The
/// defaulted parameter keeps the historical double call sites unchanged.
template <class T = double>
[[nodiscard]] double svd_safe_min() noexcept;
template <class T = double>
[[nodiscard]] double svd_safe_max() noexcept;

/// Target norm for amax: svd_safe_min<T>() if amax underflows the safe
/// range, svd_safe_max<T>() if it overflows, amax itself (no scaling)
/// otherwise. amax must be finite and > 0.
template <class T = double>
[[nodiscard]] double svd_safe_target(double amax) noexcept;

/// x := x * (cto/cfrom) computed dlascl-style: the multiplier is applied in
/// over/underflow-free steps, never forming a ratio outside T's
/// representable range (the chip-away unit is numeric_limits<T>::min, so a
/// float array is never multiplied through a denormal-crushing double
/// step). cfrom must be nonzero and finite, cto finite; both are given in
/// double but must be representable in T.
template <class T>
void scale_stepwise(T* x, std::size_t n, double cfrom, double cto);
template <class T>
void scale_stepwise(MatrixViewT<T> A, double cfrom, double cto);
template <class T>
void scale_stepwise(std::vector<T>& x, double cfrom, double cto);

/// The dgesvd protocol of a singular-value driver, in one place. The
/// constructor scans the input view once: NaN/Inf throws
/// numerical_hazard_error naming `driver`, and a max-norm outside the safe
/// range picks the svd_safe_target. The driver then scale()s its own
/// working storage (no extra copy) and hands the computed spectrum to
/// finish(), which unscales it.
template <class T>
class SafeScaling {
 public:
  SafeScaling(ConstMatrixViewT<T> A, const char* driver);

  /// W := W * (target / amax) when the input norm lies outside the safe
  /// range; a no-op otherwise.
  void scale(MatrixViewT<T> W) const;

  /// svt in double, unscaled when scale() scales. A non-null info receives
  /// the scaling (scaled, scale_from, scale_to) and bi's status,
  /// qr_iterations (dqds transforms) and bisection_fallback; its other
  /// fields are untouched.
  [[nodiscard]] std::vector<double> finish(const std::vector<T>& svt,
                                           const Bd2valInfo& bi,
                                           SvdInfo* info) const;

  /// True when the input norm lies outside the safe range, so scale()
  /// scales; a driver may read the input in place when this is false.
  [[nodiscard]] bool active() const noexcept { return to_ != from_; }

 private:

  double from_ = 0.0;  ///< input max-norm
  double to_ = 0.0;    ///< safe-range target (== from_ when inactive)
};

}  // namespace tbsvd
