#include "common/hazard.hpp"

#include <cmath>
#include <limits>
#include <string>

#include "band/bd2val.hpp"
#include "common/check.hpp"
#include "common/error.hpp"
#include "core/svd.hpp"

namespace tbsvd {

template <class T>
ExtremeScan scan_extremes(const T* x, std::size_t n) noexcept {
  ExtremeScan s;
  for (std::size_t i = 0; i < n; ++i) {
    const T v = x[i];
    if (!std::isfinite(v)) s.finite = false;
    const double a = std::fabs(static_cast<double>(v));
    if (a > s.amax) s.amax = a;  // NaN fails the compare, amax stays finite
  }
  return s;
}

template <class T>
ExtremeScan scan_extremes(ConstMatrixViewT<T> A) noexcept {
  ExtremeScan s;
  for (int j = 0; j < A.n; ++j) {
    const ExtremeScan c =
        scan_extremes<T>(A.col(j), static_cast<std::size_t>(A.m));
    s.finite = s.finite && c.finite;
    if (c.amax > s.amax) s.amax = c.amax;
  }
  return s;
}

template <class T>
bool all_finite(const T* x, std::size_t n) noexcept {
  return scan_extremes<T>(x, n).finite;
}

template <class T>
bool all_finite(ConstMatrixViewT<T> A) noexcept {
  return scan_extremes<T>(A).finite;
}

template <class T>
double svd_safe_min() noexcept {
  static const double v =
      std::sqrt(static_cast<double>(std::numeric_limits<T>::min())) /
      static_cast<double>(std::numeric_limits<T>::epsilon());
  return v;
}

template <class T>
double svd_safe_max() noexcept {
  return 1.0 / svd_safe_min<T>();
}

template <class T>
double svd_safe_target(double amax) noexcept {
  if (amax > 0.0 && amax < svd_safe_min<T>()) return svd_safe_min<T>();
  if (amax > svd_safe_max<T>()) return svd_safe_max<T>();
  return amax;
}

template <class T>
void scale_stepwise(T* x, std::size_t n, double cfrom, double cto) {
  TBSVD_CHECK(cfrom != 0.0 && std::isfinite(cfrom) && std::isfinite(cto),
              "scale_stepwise: cfrom must be nonzero finite, cto finite");
  // LAPACK dlascl: chip away at cto/cfrom with factors of smlnum/bignum so
  // no intermediate multiplier over- or underflows *in precision T* — the
  // chip unit is T's smallest normal, so float data is never pushed through
  // a sub-float-range multiplier.
  const double smlnum = static_cast<double>(std::numeric_limits<T>::min());
  const double bignum = 1.0 / smlnum;
  double cfromc = cfrom, ctoc = cto;
  bool done = false;
  while (!done) {
    double mul;
    const double cfrom1 = cfromc * smlnum;
    if (cfrom1 == cfromc) {
      // cfromc is infinity-like; the ratio is exact (0, NaN-free by check).
      mul = ctoc / cfromc;
      done = true;
    } else {
      const double cto1 = ctoc / bignum;
      if (cto1 == ctoc) {
        // ctoc is 0 or infinity-like: multiplying by it is final.
        mul = ctoc;
        done = true;
        cfromc = 1.0;
      } else if (std::fabs(cfrom1) > std::fabs(ctoc) && ctoc != 0.0) {
        mul = smlnum;
        cfromc = cfrom1;
      } else if (std::fabs(cto1) > std::fabs(cfromc)) {
        mul = bignum;
        ctoc = cto1;
      } else {
        mul = ctoc / cfromc;
        done = true;
      }
    }
    for (std::size_t i = 0; i < n; ++i)
      x[i] = static_cast<T>(static_cast<double>(x[i]) * mul);
  }
}

template <class T>
void scale_stepwise(MatrixViewT<T> A, double cfrom, double cto) {
  if (A.m == A.ld) {
    scale_stepwise<T>(A.a, static_cast<std::size_t>(A.m) * A.n, cfrom, cto);
    return;
  }
  for (int j = 0; j < A.n; ++j) {
    scale_stepwise<T>(A.col(j), static_cast<std::size_t>(A.m), cfrom, cto);
  }
}

template <class T>
void scale_stepwise(std::vector<T>& x, double cfrom, double cto) {
  scale_stepwise<T>(x.data(), x.size(), cfrom, cto);
}

template <class T>
SafeScaling<T>::SafeScaling(ConstMatrixViewT<T> A, const char* driver) {
  const ExtremeScan scan = scan_extremes<T>(A);
  if (!scan.finite) {
    throw numerical_hazard_error(std::string(driver) +
                                 ": non-finite entry in input");
  }
  from_ = scan.amax;
  to_ = svd_safe_target<T>(scan.amax);
}

template <class T>
void SafeScaling<T>::scale(MatrixViewT<T> W) const {
  if (active()) scale_stepwise<T>(W, from_, to_);
}

template <class T>
std::vector<double> SafeScaling<T>::finish(const std::vector<T>& svt,
                                           const Bd2valInfo& bi,
                                           SvdInfo* info) const {
  std::vector<double> sv(svt.begin(), svt.end());
  if (active()) scale_stepwise<double>(sv, to_, from_);
  if (info != nullptr) {
    if (active()) {
      info->scaled = true;
      info->scale_from = from_;
      info->scale_to = to_;
    }
    info->status = bi.status;
    info->qr_iterations = bi.qr_iterations;
    info->bisection_fallback = bi.bisection_fallback;
  }
  return sv;
}

#define TBSVD_INSTANTIATE_HAZARD(T)                                          \
  template ExtremeScan scan_extremes<T>(const T*, std::size_t) noexcept;     \
  template ExtremeScan scan_extremes<T>(ConstMatrixViewT<T>) noexcept;       \
  template bool all_finite<T>(const T*, std::size_t) noexcept;               \
  template bool all_finite<T>(ConstMatrixViewT<T>) noexcept;                 \
  template double svd_safe_min<T>() noexcept;                                \
  template double svd_safe_max<T>() noexcept;                                \
  template double svd_safe_target<T>(double) noexcept;                       \
  template void scale_stepwise<T>(T*, std::size_t, double, double);          \
  template void scale_stepwise<T>(MatrixViewT<T>, double, double);           \
  template void scale_stepwise<T>(std::vector<T>&, double, double);          \
  template class SafeScaling<T>;

TBSVD_INSTANTIATE_HAZARD(float)
TBSVD_INSTANTIATE_HAZARD(double)

#undef TBSVD_INSTANTIATE_HAZARD

}  // namespace tbsvd
