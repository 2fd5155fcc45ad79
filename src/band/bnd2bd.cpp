#include "band/bnd2bd.hpp"

#include <algorithm>
#include <limits>

#include "common/check.hpp"
#include "common/fault.hpp"
#include "lac/householder.hpp"

namespace tbsvd {

namespace {

// Generate the reflector annihilating x[1..len) against x[0] (stride inc),
// apply it through `apply` with x[0] temporarily set to 1 (the v(0) == 1
// convention of larf_*), then leave beta in x[0] and zeros in the tail.
template <class T, class Apply>
void reflect(int len, T* x, int inc, Apply apply) {
  const T tau = larfg<T>(len, x[0], x + inc, inc);
  if (tau == T(0)) return;
  const T beta = x[0];
  x[0] = T(1);
  apply(tau, x);
  x[0] = beta;
  for (int k = 1; k < len; ++k) x[k * inc] = T(0);
}

}  // namespace

template <class T>
BidiagonalT<T> bnd2bd(const BandMatrixT<T>& B) {
  TBSVD_CHECK(B.kl() == 0, "bnd2bd expects an upper-band matrix (kl = 0)");
  const int n = B.n();
  const int b = B.ku();
  BidiagonalT<T> out;
  out.d.resize(n, T(0));
  out.e.resize(std::max(0, n - 1), T(0));

  // Working band: b subdiagonals for the lower fill of a right reflector,
  // 2b superdiagonals for the upper bulge of a left reflector.
  BandMatrixT<T> W(n, b, 2 * b);
  for (int j = 0; j < n; ++j) {
    for (int i = std::max(0, j - b); i <= j; ++i) W.at(i, j) = B.get(i, j);
  }
  std::vector<T> work(static_cast<std::size_t>(2 * b));
  for (int s = 0; b >= 2 && s + 1 < n; ++s) {
    for (int r = s, c = s + 1; c < n; r = c, c += b) {
      const int L = std::min(b, n - c);
      if (L < 2) break;
      // Right reflector: row r keeps only column c of [c, c + L). Its
      // columns reach rows r+1 .. c+L-1 and leave lower fill below (c, c).
      const int rlast = std::min(n - 1, c + L - 1);
      MatrixViewT<T> row = W.view(r, c, 1, L);
      reflect<T>(L, row.a, row.ld, [&](T tau, const T* v) {
        larf_right<T>(tau, v, row.ld, W.view(r + 1, c, rlast - r, L),
                      work.data());
      });
      // Left reflector: column c keeps only row c of [c, c + L). Its rows
      // reach columns c+1 .. c+L-1+b; row c's part past c+b is the bulge
      // the next step's right reflector removes.
      const int clast = std::min(n - 1, c + L - 1 + b);
      MatrixViewT<T> col = W.view(c, c, L, 1);
      reflect<T>(L, col.a, 1, [&](T tau, const T* v) {
        larf_left<T>(tau, v, 1, W.view(c, c + 1, L, clast - c), work.data());
      });
    }
  }
  for (int i = 0; i < n; ++i) out.d[i] = W.get(i, i);
  for (int i = 0; i + 1 < n; ++i) out.e[i] = W.get(i, i + 1);
  if (n > 0 && TBSVD_FAULT_FIRE("band.bnd2bd.poison_nan")) {
    out.d[0] = std::numeric_limits<T>::quiet_NaN();
  }
  return out;
}

template BidiagonalT<float> bnd2bd<float>(const BandMatrixT<float>&);
template BidiagonalT<double> bnd2bd<double>(const BandMatrixT<double>&);

}  // namespace tbsvd
