#include "baseline/gebrd.hpp"

#include <algorithm>
#include <thread>

#include "band/bd2val.hpp"
#include "baseline/gebd2.hpp"
#include "common/check.hpp"
#include "common/hazard.hpp"
#include "lac/blas.hpp"
#include "lac/householder.hpp"

namespace tbsvd {

template <class T>
void labrd(MatrixViewT<T> A, int kb, T* d, T* e, T* tauq, T* taup,
           MatrixViewT<T> X, MatrixViewT<T> Y) {
  const int m = A.m, n = A.n;
  TBSVD_CHECK(m >= n && kb >= 1 && kb <= n, "labrd: bad panel");
  TBSVD_CHECK(X.m >= m && X.n >= kb && Y.m >= n && Y.n >= kb,
              "labrd: X/Y too small");

  for (int i = 0; i < kb; ++i) {
    // Update A(i:m, i) with the previous reflectors of the panel.
    if (i > 0) {
      gemv<T>(Trans::No, T(-1), A.block(i, 0, m - i, i), &Y(i, 0), Y.ld,
              T(1), &A(i, i), 1);
      gemv<T>(Trans::No, T(-1), X.block(i, 0, m - i, i), &A(0, i), 1, T(1),
              &A(i, i), 1);
    }
    // Column reflector annihilating A(i+1:m, i).
    tauq[i] = larfg<T>(m - i, A(i, i), &A(std::min(i + 1, m - 1), i), 1);
    d[i] = A(i, i);
    if (i >= n - 1) continue;
    A(i, i) = T(1);

    // Y(i+1:n, i) = tauq * (A(i:m, i+1:n)^T u_i - cross terms).
    gemv<T>(Trans::Yes, T(1), A.block(i, i + 1, m - i, n - i - 1), &A(i, i),
            1, T(0), &Y(i + 1, i), 1);
    if (i > 0) {
      gemv<T>(Trans::Yes, T(1), A.block(i, 0, m - i, i), &A(i, i), 1, T(0),
              &Y(0, i), 1);
      gemv<T>(Trans::No, T(-1), Y.block(i + 1, 0, n - i - 1, i), &Y(0, i), 1,
              T(1), &Y(i + 1, i), 1);
      gemv<T>(Trans::Yes, T(1), X.block(i, 0, m - i, i), &A(i, i), 1, T(0),
              &Y(0, i), 1);
      gemv<T>(Trans::Yes, T(-1), A.block(0, i + 1, i, n - i - 1), &Y(0, i),
              1, T(1), &Y(i + 1, i), 1);
    }
    scal<T>(n - i - 1, tauq[i], &Y(i + 1, i), 1);

    // Update row A(i, i+1:n).
    gemv<T>(Trans::No, T(-1), Y.block(i + 1, 0, n - i - 1, i + 1), &A(i, 0),
            A.ld, T(1), &A(i, i + 1), A.ld);
    if (i > 0) {
      gemv<T>(Trans::Yes, T(-1), A.block(0, i + 1, i, n - i - 1), &X(i, 0),
              X.ld, T(1), &A(i, i + 1), A.ld);
    }
    // Row reflector annihilating A(i, i+2:n).
    taup[i] = larfg<T>(n - i - 1, A(i, i + 1),
                       &A(i, std::min(i + 2, n - 1)), A.ld);
    e[i] = A(i, i + 1);
    A(i, i + 1) = T(1);

    // X(i+1:m, i) = taup * (A(i+1:m, i+1:n) v_i - cross terms).
    gemv<T>(Trans::No, T(1), A.block(i + 1, i + 1, m - i - 1, n - i - 1),
            &A(i, i + 1), A.ld, T(0), &X(i + 1, i), 1);
    gemv<T>(Trans::Yes, T(1), Y.block(i + 1, 0, n - i - 1, i + 1),
            &A(i, i + 1), A.ld, T(0), &X(0, i), 1);
    gemv<T>(Trans::No, T(-1), A.block(i + 1, 0, m - i - 1, i + 1), &X(0, i),
            1, T(1), &X(i + 1, i), 1);
    if (i > 0) {
      gemv<T>(Trans::No, T(1), A.block(0, i + 1, i, n - i - 1),
              &A(i, i + 1), A.ld, T(0), &X(0, i), 1);
      gemv<T>(Trans::No, T(-1), X.block(i + 1, 0, m - i - 1, i), &X(0, i), 1,
              T(1), &X(i + 1, i), 1);
    }
    scal<T>(m - i - 1, taup[i], &X(i + 1, i), 1);
  }
}

namespace {

// C -= A * op(B), with columns of C partitioned across threads (emulating
// a multithreaded-BLAS trailing update).
template <class T>
void threaded_gemm_sub(ConstMatrixViewT<T> A, ConstMatrixViewT<T> B,
                       Trans tb, MatrixViewT<T> C, int nthreads) {
  if (nthreads <= 1 || C.n < 2 * nthreads) {
    gemm<T>(Trans::No, tb, T(-1), A, B, T(1), C);
    return;
  }
  std::vector<std::thread> ths;
  const int chunk = (C.n + nthreads - 1) / nthreads;
  for (int t = 0; t < nthreads; ++t) {
    const int j0 = t * chunk;
    if (j0 >= C.n) break;
    const int jn = std::min(chunk, C.n - j0);
    ths.emplace_back([=] {
      ConstMatrixViewT<T> Bt = (tb == Trans::No) ? B.block(0, j0, B.m, jn)
                                                 : B.block(j0, 0, jn, B.n);
      MatrixViewT<T> Ct = C.block(0, j0, C.m, jn);
      gemm<T>(Trans::No, tb, T(-1), A, Bt, T(1), Ct);
    });
  }
  for (auto& th : ths) th.join();
}

}  // namespace

template <class T>
void gebrd(MatrixViewT<T> A, std::vector<T>& d, std::vector<T>& e,
           const GebrdOptions& opts) {
  const int m = A.m, n = A.n;
  TBSVD_CHECK(m >= n, "gebrd requires m >= n");
  TBSVD_CHECK(opts.nb >= 1, "gebrd: nb must be >= 1");
  d.assign(n, T(0));
  e.assign(std::max(0, n - 1), T(0));

  const int nb = opts.nb;
  MatrixT<T> X(m, nb), Y(n, nb);
  std::vector<T> tauq(nb), taup(nb);

  int i0 = 0;
  // Blocked phase with LABRD panels + Level-3 trailing updates.
  while (n - i0 > 2 * nb) {
    MatrixViewT<T> Asub = A.block(i0, i0, m - i0, n - i0);
    MatrixViewT<T> Xv = X.view().block(0, 0, m - i0, nb);
    MatrixViewT<T> Yv = Y.view().block(0, 0, n - i0, nb);
    labrd<T>(Asub, nb, d.data() + i0, e.data() + i0, tauq.data(),
             taup.data(), Xv, Yv);
    // Trailing update: A22 -= U Y^T + X V^T.
    const int mm = m - i0 - nb, nn = n - i0 - nb;
    MatrixViewT<T> A22 = Asub.block(nb, nb, mm, nn);
    threaded_gemm_sub<T>(Asub.block(nb, 0, mm, nb),
                         ConstMatrixViewT<T>{Yv.block(nb, 0, nn, nb)},
                         Trans::Yes, A22, opts.nthreads);
    threaded_gemm_sub<T>(ConstMatrixViewT<T>{Xv.block(nb, 0, mm, nb)},
                         Asub.block(0, nb, nb, nn), Trans::No, A22,
                         opts.nthreads);
    // Restore the bidiagonal entries overwritten with implicit ones.
    for (int j = 0; j < nb; ++j) {
      A(i0 + j, i0 + j) = d[i0 + j];
      if (i0 + j < n - 1) A(i0 + j, i0 + j + 1) = e[i0 + j];
    }
    i0 += nb;
  }
  // Unblocked remainder.
  if (i0 < n) {
    std::vector<T> dr, er;
    gebd2<T>(A.block(i0, i0, m - i0, n - i0), dr, er);
    for (int j = 0; j + i0 < n; ++j) d[i0 + j] = dr[j];
    for (int j = 0; j + i0 < n - 1; ++j) e[i0 + j] = er[j];
  }
}

template <class T>
std::vector<double> gebrd_singular_values(ConstMatrixViewT<T> A,
                                          const GebrdOptions& opts) {
  TBSVD_CHECK(A.m >= A.n, "gebrd_singular_values requires m >= n");
  if (A.n == 0) return {};
  const SafeScaling<T> guard(A, "gebrd_singular_values");
  MatrixT<T> W(A.m, A.n);
  copy<T>(A, W.view());
  guard.scale(W.view());
  std::vector<T> d, e;
  gebrd<T>(W.view(), d, e, opts);
  Bd2valInfo bi;
  return guard.finish(bd2val<T>(std::move(d), std::move(e), {}, &bi), bi,
                      nullptr);
}

#define TBSVD_INSTANTIATE_GEBRD(T)                                        \
  template void labrd<T>(MatrixViewT<T>, int, T*, T*, T*, T*,             \
                         MatrixViewT<T>, MatrixViewT<T>);                 \
  template void gebrd<T>(MatrixViewT<T>, std::vector<T>&, std::vector<T>&, \
                         const GebrdOptions&);                            \
  template std::vector<double> gebrd_singular_values<T>(                  \
      ConstMatrixViewT<T>, const GebrdOptions&);

TBSVD_INSTANTIATE_GEBRD(float)
TBSVD_INSTANTIATE_GEBRD(double)

#undef TBSVD_INSTANTIATE_GEBRD

}  // namespace tbsvd
