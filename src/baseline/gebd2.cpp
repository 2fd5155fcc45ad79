#include "baseline/gebd2.hpp"

#include <algorithm>

#include "band/bd2val.hpp"
#include "common/check.hpp"
#include "common/hazard.hpp"
#include "lac/blas.hpp"
#include "lac/householder.hpp"

namespace tbsvd {

template <class T>
void gebd2(MatrixViewT<T> A, std::vector<T>& d, std::vector<T>& e) {
  const int m = A.m, n = A.n;
  TBSVD_CHECK(m >= n, "gebd2 requires m >= n");
  d.assign(n, T(0));
  e.assign(std::max(0, n - 1), T(0));

  for (int j = 0; j < n; ++j) {
    // Column reflector annihilating A(j+1:m, j).
    const T tauq =
        larfg<T>(m - j, A(j, j), &A(std::min(j + 1, m - 1), j), 1);
    d[j] = A(j, j);
    if (j < n - 1) {
      if (tauq != T(0)) {
        const T ajj = A(j, j);
        A(j, j) = T(1);
        larf_left<T>(tauq, &A(j, j), 1, A.block(j, j + 1, m - j, n - j - 1));
        A(j, j) = ajj;
      }
      // Row reflector annihilating A(j, j+2:n).
      const T taup =
          larfg<T>(n - j - 1, A(j, j + 1),
                   &A(j, std::min(j + 2, n - 1)), A.ld);
      e[j] = A(j, j + 1);
      if (j < m - 1 && taup != T(0)) {
        const T ajj1 = A(j, j + 1);
        A(j, j + 1) = T(1);
        larf_right<T>(taup, &A(j, j + 1), A.ld,
                      A.block(j + 1, j + 1, m - j - 1, n - j - 1));
        A(j, j + 1) = ajj1;
      }
    }
  }
}

template <class T>
std::vector<double> gebd2_singular_values(ConstMatrixViewT<T> A) {
  TBSVD_CHECK(A.m >= A.n, "gebd2_singular_values requires m >= n");
  if (A.n == 0) return {};
  const SafeScaling<T> guard(A, "gebd2_singular_values");
  MatrixT<T> W(A.m, A.n);
  copy<T>(A, W.view());
  guard.scale(W.view());
  std::vector<T> d, e;
  gebd2<T>(W.view(), d, e);
  Bd2valInfo bi;
  return guard.finish(bd2val<T>(std::move(d), std::move(e), {}, &bi), bi,
                      nullptr);
}

#define TBSVD_INSTANTIATE_GEBD2(T)                                       \
  template void gebd2<T>(MatrixViewT<T>, std::vector<T>&, std::vector<T>&); \
  template std::vector<double> gebd2_singular_values<T>(ConstMatrixViewT<T>);

TBSVD_INSTANTIATE_GEBD2(float)
TBSVD_INSTANTIATE_GEBD2(double)

#undef TBSVD_INSTANTIATE_GEBD2

}  // namespace tbsvd
