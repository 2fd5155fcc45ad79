#include "lac/qr_ref.hpp"

#include <algorithm>
#include <vector>

#include "lac/blas.hpp"
#include "lac/householder.hpp"

namespace tbsvd {

template <class T>
void geqr2(MatrixViewT<T> A, T* tau) {
  const int m = A.m, n = A.n;
  const int k = std::min(m, n);
  for (int j = 0; j < k; ++j) {
    tau[j] = larfg<T>(m - j, A(j, j), &A(std::min(j + 1, m - 1), j), 1);
    if (j < n - 1 && tau[j] != T(0)) {
      const T ajj = A(j, j);
      A(j, j) = T(1);
      larf_left<T>(tau[j], &A(j, j), 1, A.block(j, j + 1, m - j, n - j - 1));
      A(j, j) = ajj;
    }
  }
}

template <class T>
void geqrf(MatrixViewT<T> A, T* tau, int nb) {
  const int m = A.m, n = A.n;
  const int k = std::min(m, n);
  TBSVD_CHECK(nb >= 1, "geqrf: nb must be >= 1");
  MatrixT<T> Tf(nb, nb);
  MatrixT<T> work;
  for (int j = 0; j < k; j += nb) {
    const int jb = std::min(nb, k - j);
    MatrixViewT<T> panel = A.block(j, j, m - j, jb);
    geqr2<T>(panel, tau + j);
    if (j + jb < n) {
      larft<T>(panel, tau + j, Tf.view());
      larfb<T>(Side::Left, Trans::Yes, panel,
               ConstMatrixViewT<T>{Tf.data(), jb, jb, Tf.rows()},
               A.block(j, j + jb, m - j, n - j - jb), work);
    }
  }
}

template <class T>
void orgqr(ConstMatrixViewT<T> A, const T* tau, int k, MatrixViewT<T> Q) {
  const int m = Q.m, ncols = Q.n;
  TBSVD_CHECK(ncols >= k && A.m == m, "orgqr shape mismatch");
  for (int j = 0; j < ncols; ++j) {
    T* qj = Q.col(j);
    for (int i = 0; i < m; ++i) qj[i] = T(0);
    Q(j, j) = T(1);
  }
  std::vector<T> v(m);
  // Apply H_1 ... H_k to I, backward: Q := H_1 (H_2 (... H_k I)).
  for (int j = k - 1; j >= 0; --j) {
    v[0] = T(1);
    for (int i = 1; i < m - j; ++i) v[i] = A(j + i, j);
    larf_left<T>(tau[j], v.data(), 1, Q.block(j, j, m - j, ncols - j));
  }
}

template <class T>
void gelq2(MatrixViewT<T> A, T* tau) {
  const int m = A.m, n = A.n;
  const int k = std::min(m, n);
  for (int i = 0; i < k; ++i) {
    tau[i] = larfg<T>(n - i, A(i, i), &A(i, std::min(i + 1, n - 1)), A.ld);
    if (i < m - 1 && tau[i] != T(0)) {
      const T aii = A(i, i);
      A(i, i) = T(1);
      larf_right<T>(tau[i], &A(i, i), A.ld,
                    A.block(i + 1, i, m - i - 1, n - i));
      A(i, i) = aii;
    }
  }
}

template <class T>
void orglq(ConstMatrixViewT<T> A, const T* tau, int k, MatrixViewT<T> Q) {
  const int nrows = Q.m, n = Q.n;
  TBSVD_CHECK(nrows >= k && A.n == n, "orglq shape mismatch");
  for (int j = 0; j < n; ++j) {
    T* qj = Q.col(j);
    for (int i = 0; i < nrows; ++i) qj[i] = T(0);
  }
  for (int i = 0; i < std::min(nrows, n); ++i) Q(i, i) = T(1);
  std::vector<T> v(n);
  for (int i = k - 1; i >= 0; --i) {
    v[0] = T(1);
    for (int j = 1; j < n - i; ++j) v[j] = A(i, i + j);
    larf_right<T>(tau[i], v.data(), 1, Q.block(i, i, nrows - i, n - i));
  }
}

template <class T>
void ormqr_left(Trans trans, ConstMatrixViewT<T> A, const T* tau, int k,
                MatrixViewT<T> C) {
  TBSVD_CHECK(A.m == C.m, "ormqr_left shape mismatch");
  const int m = C.m;
  std::vector<T> v(m);
  // Q = H_1 ... H_k. Q^T C applies H_1 first; Q C applies H_k first.
  const bool forward = (trans == Trans::Yes);
  for (int idx = 0; idx < k; ++idx) {
    const int j = forward ? idx : k - 1 - idx;
    v[0] = T(1);
    for (int i = 1; i < m - j; ++i) v[i] = A(j + i, j);
    larf_left<T>(tau[j], v.data(), 1, C.block(j, 0, m - j, C.n));
  }
}

#define TBSVD_INSTANTIATE_QR_REF(T)                                          \
  template void geqr2<T>(MatrixViewT<T>, T*);                                \
  template void geqrf<T>(MatrixViewT<T>, T*, int);                           \
  template void orgqr<T>(ConstMatrixViewT<T>, const T*, int, MatrixViewT<T>); \
  template void gelq2<T>(MatrixViewT<T>, T*);                                \
  template void orglq<T>(ConstMatrixViewT<T>, const T*, int, MatrixViewT<T>); \
  template void ormqr_left<T>(Trans, ConstMatrixViewT<T>, const T*, int,     \
                              MatrixViewT<T>);

TBSVD_INSTANTIATE_QR_REF(float)
TBSVD_INSTANTIATE_QR_REF(double)

#undef TBSVD_INSTANTIATE_QR_REF

}  // namespace tbsvd
