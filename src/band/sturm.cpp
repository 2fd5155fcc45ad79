#include "band/sturm.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.hpp"
#include "common/hazard.hpp"

namespace tbsvd {

template <class T>
int tgk_sturm_count(const std::vector<T>& d, const std::vector<T>& e,
                    T x) noexcept {
  // TGK off-diagonal sequence: d[0], e[0], d[1], e[1], ..., d[n-1].
  // Pivot handling follows LAPACK dstebz: near-zero pivots are clamped to
  // -pivmin (and counted), which keeps the count monotone in x.
  const int n = static_cast<int>(d.size());
  const int N = 2 * n;
  T bmax2 = T(1);
  for (T v : d) bmax2 = std::max(bmax2, v * v);
  for (int i = 0; i + 1 < n; ++i) bmax2 = std::max(bmax2, e[i] * e[i]);
  const T pivmin = std::numeric_limits<T>::min() * bmax2;

  int count = 0;
  T q = -x;  // first diagonal entry of TGK is 0
  if (std::fabs(q) <= pivmin) q = -pivmin;
  if (q <= T(0)) ++count;
  for (int k = 1; k < N; ++k) {
    const T b = (k % 2 == 1) ? d[(k - 1) / 2] : e[k / 2 - 1];
    q = -x - b * b / q;
    if (std::fabs(q) <= pivmin) q = -pivmin;
    if (q <= T(0)) ++count;
  }
  return count;
}

template <class T>
std::vector<T> sturm_singular_values(const std::vector<T>& d,
                                     const std::vector<T>& e) {
  const int n = static_cast<int>(d.size());
  TBSVD_CHECK(static_cast<int>(e.size()) >= std::max(0, n - 1),
              "sturm: e must have n-1 entries");
  if (n == 0) return {};
  if (!all_finite(d.data(), d.size()) ||
      !all_finite(e.data(), static_cast<std::size_t>(n - 1))) {
    // A NaN pivot poisons every Sturm count, making the bisection bounds
    // meaningless; fail typed instead of returning garbage.
    throw numerical_hazard_error("sturm: non-finite entry in bidiagonal");
  }

  // Gershgorin-style upper bound on sigma_max.
  T bound = T(0);
  for (int i = 0; i < n; ++i) {
    T s = std::fabs(d[i]);
    if (i > 0) s += std::fabs(e[i - 1]);
    if (i + 1 < n) s += std::fabs(e[i]);
    bound = std::max(bound, s);
  }
  bound = std::max(bound, std::numeric_limits<T>::min()) * T(1.0000001);

  const T eps = std::numeric_limits<T>::epsilon();
  std::vector<T> sv(n);
  // Singular value sigma_k (descending, k = 0 largest) satisfies:
  // #eigenvalues of TGK < x equals n + #(sigma < x) for x > 0.
  for (int k = 0; k < n; ++k) {
    // Find x such that exactly (n - 1 - k) singular values are < x ...
    // bisect for the (k+1)-th largest.
    T lo = T(0), hi = bound;
    const int want = n + (n - 1 - k);  // count threshold separating sigma_k
    for (int it = 0; it < 160 && hi - lo > eps * bound; ++it) {
      const T mid = T(0.5) * (lo + hi);
      if (tgk_sturm_count<T>(d, e, mid) > want) {
        hi = mid;
      } else {
        lo = mid;
      }
    }
    sv[k] = T(0.5) * (lo + hi);
  }
  std::sort(sv.begin(), sv.end(), std::greater<>());
  return sv;
}

#define TBSVD_INSTANTIATE_STURM(T)                                       \
  template int tgk_sturm_count<T>(const std::vector<T>&,                 \
                                  const std::vector<T>&, T) noexcept;    \
  template std::vector<T> sturm_singular_values<T>(const std::vector<T>&, \
                                                   const std::vector<T>&);

TBSVD_INSTANTIATE_STURM(float)
TBSVD_INSTANTIATE_STURM(double)

#undef TBSVD_INSTANTIATE_STURM

}  // namespace tbsvd
