#include "lac/jacobi_svd.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "lac/blas.hpp"
#include "common/check.hpp"

namespace tbsvd {

template <class T>
std::vector<double> jacobi_singular_values(ConstMatrixViewT<T> A,
                                           int max_sweeps) {
  // Work on a double copy W with rows >= cols (float entries embed
  // exactly), scaled exactly by a power of two so its largest entry lies in
  // [1, 2): the squared column norms below then neither overflow nor
  // underflow at any input scale, and the singular values are unscaled
  // exactly on exit.
  const double amax = norm_max<T>(A);
  const int e = (amax > 0.0 && std::isfinite(amax)) ? std::ilogb(amax) : 0;
  const bool flip = A.m < A.n;
  const int m = flip ? A.n : A.m;
  const int n = flip ? A.m : A.n;
  Matrix W(m, n);
  for (int j = 0; j < A.n; ++j) {
    for (int i = 0; i < A.m; ++i) {
      const double v = std::ldexp(static_cast<double>(A(i, j)), -e);
      if (flip) {
        W.view()(j, i) = v;
      } else {
        W.view()(i, j) = v;
      }
    }
  }

  const double eps = std::numeric_limits<double>::epsilon();
  const double tol = 10.0 * eps;
  bool converged = false;
  for (int sweep = 0; sweep < max_sweeps && !converged; ++sweep) {
    converged = true;
    for (int p = 0; p < n - 1; ++p) {
      for (int q = p + 1; q < n; ++q) {
        double* cp = W.view().col(p);
        double* cq = W.view().col(q);
        const double app = dot(m, cp, 1, cp, 1);
        const double aqq = dot(m, cq, 1, cq, 1);
        const double apq = dot(m, cp, 1, cq, 1);
        // sqrt(app) * sqrt(aqq), not sqrt(app * aqq): the product of two
        // squared norms of graded columns can still underflow.
        if (std::fabs(apq) <= tol * std::sqrt(app) * std::sqrt(aqq)) continue;
        converged = false;
        // Jacobi rotation diagonalizing [[app, apq], [apq, aqq]].
        const double zeta = (aqq - app) / (2.0 * apq);
        const double t = std::copysign(
            1.0 / (std::fabs(zeta) + std::sqrt(1.0 + zeta * zeta)), zeta);
        const double c = 1.0 / std::sqrt(1.0 + t * t);
        const double s = c * t;
        for (int i = 0; i < m; ++i) {
          const double wp = cp[i], wq = cq[i];
          cp[i] = c * wp - s * wq;
          cq[i] = s * wp + c * wq;
        }
      }
    }
  }

  std::vector<double> sv(n);
  for (int j = 0; j < n; ++j) {
    sv[j] = std::ldexp(nrm2(m, W.view().col(j), 1), e);
  }
  std::sort(sv.begin(), sv.end(), std::greater<>());
  return sv;
}

template std::vector<double> jacobi_singular_values<float>(
    ConstMatrixViewT<float>, int);
template std::vector<double> jacobi_singular_values<double>(
    ConstMatrixViewT<double>, int);

}  // namespace tbsvd
