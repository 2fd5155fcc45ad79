#include "lac/householder.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace tbsvd {

template <class T>
T larfg(int n, T& alpha, T* x, int incx) noexcept {
  if (n <= 1) return T(0);
  T xnorm = nrm2<T>(n - 1, x, incx);
  if (xnorm == T(0)) return T(0);

  // beta = -sign(alpha) * ||(alpha, x)||, computed with scaling protection.
  const T a = alpha;
  T beta = -std::copysign(std::hypot(a, xnorm), a);

  // Rescale if beta is dangerously small (mirrors dlarfg's safmin loop).
  const T safmin =
      std::numeric_limits<T>::min() / std::numeric_limits<T>::epsilon();
  int kount = 0;
  T alpha_s = a, xnorm_s = xnorm, beta_s = beta;
  if (std::fabs(beta) < safmin) {
    const T rsafmn = T(1) / safmin;
    while (std::fabs(beta_s) < safmin && kount < 20) {
      ++kount;
      scal<T>(n - 1, rsafmn, x, incx);
      beta_s *= rsafmn;
      alpha_s *= rsafmn;
      xnorm_s *= rsafmn;
    }
    xnorm_s = nrm2<T>(n - 1, x, incx);
    beta_s = -std::copysign(std::hypot(alpha_s, xnorm_s), alpha_s);
  }
  const T tau = (beta_s - alpha_s) / beta_s;
  scal<T>(n - 1, T(1) / (alpha_s - beta_s), x, incx);
  for (int k = 0; k < kount; ++k) beta_s *= safmin;
  alpha = beta_s;
  return tau;
}

template <class T>
void larf_left(T tau, const T* v, int incv, MatrixViewT<T> C) {
  if (tau == T(0)) return;
  const int m = C.m, n = C.n;
  // One pass per column: its dot with v (dot()'s multi-chain reduction)
  // and the axpy that follows both run while the column sits in L1.
  for (int j = 0; j < n; ++j) {
    T* cj = C.col(j);
    const T twj = tau * dot<T>(m, cj, 1, v, incv);
    if (twj == T(0)) continue;
    if (incv == 1) {
      for (int i = 0; i < m; ++i) cj[i] -= twj * v[i];
    } else {
      for (int i = 0; i < m; ++i) cj[i] -= twj * v[i * incv];
    }
  }
}

template <class T>
void larf_right(T tau, const T* v, int incv, MatrixViewT<T> C) {
  if (tau == T(0)) return;
  const int m = C.m, n = C.n;
  // Row slabs small enough that w := C v and C -= tau w v^T both read the
  // slab from L1; each row's arithmetic is the same as one full-height pass.
  constexpr int kSlab = 32;
  for (int i0 = 0; i0 < m; i0 += kSlab) {
    const int mb = std::min(kSlab, m - i0);
    T w[kSlab] = {};
    for (int j = 0; j < n; ++j) {
      const T vj = v[j * incv];
      if (vj == T(0)) continue;
      const T* cj = C.col(j) + i0;
      for (int i = 0; i < mb; ++i) w[i] += vj * cj[i];
    }
    for (int j = 0; j < n; ++j) {
      const T tvj = tau * v[j * incv];
      if (tvj == T(0)) continue;
      T* cj = C.col(j) + i0;
      for (int i = 0; i < mb; ++i) cj[i] -= tvj * w[i];
    }
  }
}

template <class T>
void larft(ConstMatrixViewT<T> V, const T* tau, MatrixViewT<T> Tm) {
  const int n = V.m, k = V.n;
  TBSVD_CHECK(Tm.m >= k && Tm.n >= k, "larft: T too small");
  for (int i = 0; i < k; ++i) {
    if (tau[i] == T(0)) {
      for (int j = 0; j < i; ++j) Tm(j, i) = T(0);
    } else {
      // T(0:i, i) = -tau_i * V(:, 0:i)^T * v_i, with v_i = [0_i; 1; V(i+1:, i)].
      for (int j = 0; j < i; ++j) Tm(j, i) = -tau[i] * V(i, j);
      if (i + 1 < n) {
        ConstMatrixViewT<T> Vtail = V.block(i + 1, 0, n - i - 1, i);
        gemv<T>(Trans::Yes, -tau[i], Vtail, V.col(i) + i + 1, 1, T(1),
                Tm.col(i), 1);
      }
      // T(0:i, i) := T(0:i, 0:i) * T(0:i, i)
      if (i > 0) {
        MatrixViewT<T> ti{Tm.col(i), i, 1, Tm.ld};
        trmm_left<T>(UpLo::Upper, Trans::No, Diag::NonUnit,
                     ConstMatrixViewT<T>{Tm.a, i, i, Tm.ld}, ti);
      }
    }
    Tm(i, i) = tau[i];
  }
}

template <class T>
void larfb(Side side, Trans trans, ConstMatrixViewT<T> V,
           ConstMatrixViewT<T> Tm, MatrixViewT<T> C, MatrixT<T>& work) {
  const int k = V.n;
  if (k == 0) return;
  if (side == Side::Left) {
    TBSVD_CHECK(V.m == C.m, "larfb left: V/C row mismatch");
    const int n = C.n;
    // W (k x n) := V^T C = V1^T C1 + V2^T C2. Workspace grows per dimension
    // so alternating call shapes never shrink-and-reallocate it.
    if (work.rows() < k || work.cols() < n) {
      work = MatrixT<T>(std::max(work.rows(), k), std::max(work.cols(), n));
    }
    MatrixViewT<T> W = work.view().block(0, 0, k, n);
    copy<T>(C.block(0, 0, k, n), W);
    trmm_left<T>(UpLo::Lower, Trans::Yes, Diag::Unit, V.block(0, 0, k, k), W);
    if (V.m > k) {
      gemm<T>(Trans::Yes, Trans::No, T(1), V.block(k, 0, V.m - k, k),
              C.block(k, 0, C.m - k, n), T(1), W);
    }
    // W := op(T) W.
    trmm_left<T>(UpLo::Upper, trans, Diag::NonUnit, Tm.block(0, 0, k, k), W);
    // C2 -= V2 W, then C1 -= V1 W with the triangular product formed in
    // place (W is dead afterwards, so no second workspace is needed).
    if (V.m > k) {
      gemm<T>(Trans::No, Trans::No, T(-1), V.block(k, 0, V.m - k, k), W, T(1),
              C.block(k, 0, C.m - k, n));
    }
    trmm_left<T>(UpLo::Lower, Trans::No, Diag::Unit, V.block(0, 0, k, k), W);
    for (int j = 0; j < n; ++j) {
      T* cj = C.col(j);
      const T* wj = W.col(j);
      for (int i = 0; i < k; ++i) cj[i] -= wj[i];
    }
  } else {
    TBSVD_CHECK(V.m == C.n, "larfb right: V/C col mismatch");
    const int m = C.m;
    // W (m x k) := C V = C1 V1 + C2 V2.
    if (work.rows() < m || work.cols() < k) {
      work = MatrixT<T>(std::max(work.rows(), m), std::max(work.cols(), k));
    }
    MatrixViewT<T> W = work.view().block(0, 0, m, k);
    copy<T>(C.block(0, 0, m, k), W);
    trmm_right<T>(UpLo::Lower, Trans::No, Diag::Unit, W, V.block(0, 0, k, k));
    if (V.m > k) {
      gemm<T>(Trans::No, Trans::No, T(1), C.block(0, k, m, C.n - k),
              V.block(k, 0, V.m - k, k), T(1), W);
    }
    // W := W op(T). Note: right-multiplication by (I - V T V^T)^H uses T^H.
    trmm_right<T>(UpLo::Upper, trans, Diag::NonUnit, W, Tm.block(0, 0, k, k));
    // C2 -= W V2^T, then C1 -= W V1^T with the triangular product in place.
    if (V.m > k) {
      gemm<T>(Trans::No, Trans::Yes, T(-1), W, V.block(k, 0, V.m - k, k),
              T(1), C.block(0, k, m, C.n - k));
    }
    trmm_right<T>(UpLo::Lower, Trans::Yes, Diag::Unit, W, V.block(0, 0, k, k));
    for (int j = 0; j < k; ++j) {
      T* cj = C.col(j);
      const T* wj = W.col(j);
      for (int i = 0; i < m; ++i) cj[i] -= wj[i];
    }
  }
}

template <class T>
void larfb_left_t(Trans trans, ConstMatrixViewT<T> V, ConstMatrixViewT<T> Tm,
                  MatrixViewT<T> C, MatrixT<T>& work) {
  const int k = V.n;
  const int m = C.m, n = C.n;
  if (k == 0 || n == 0) return;
  TBSVD_CHECK(V.m == m, "larfb_left_t: V/C row mismatch");
  if (work.rows() < n || work.cols() < k) {
    work = MatrixT<T>(std::max(work.rows(), n), std::max(work.cols(), k));
  }
  // W (n x k) := (V^T C)^T = C1^T V1 + C2^T V2.
  MatrixViewT<T> W = work.view().block(0, 0, n, k);
  transpose<T>(C.block(0, 0, k, n), W);
  trmm_right<T>(UpLo::Lower, Trans::No, Diag::Unit, W, V.block(0, 0, k, k));
  if (m > k) {
    gemm<T>(Trans::Yes, Trans::No, T(1), C.block(k, 0, m - k, n),
            V.block(k, 0, m - k, k), T(1), W);
  }
  // W := W op(T)^T  (the transpose of larfb's W := op(T) W).
  trmm_right<T>(UpLo::Upper, trans == Trans::Yes ? Trans::No : Trans::Yes,
                Diag::NonUnit, W, Tm.block(0, 0, k, k));
  // C2 -= V2 W^T, then C1 -= (W V1^T)^T with the triangular product formed
  // in place (W is dead afterwards).
  if (m > k) {
    gemm<T>(Trans::No, Trans::Yes, T(-1), V.block(k, 0, m - k, k), W, T(1),
            C.block(k, 0, m - k, n));
  }
  trmm_right<T>(UpLo::Lower, Trans::Yes, Diag::Unit, W, V.block(0, 0, k, k));
  sub_transposed<T>(C.block(0, 0, k, n), W);
}

template <class T>
void larfb_right_rows(Trans trans, ConstMatrixViewT<T> V,
                      ConstMatrixViewT<T> Tm, MatrixViewT<T> C,
                      MatrixT<T>& work) {
  const int k = V.m, n = V.n;
  const int mc = C.m;
  if (k == 0 || mc == 0) return;
  TBSVD_CHECK(C.n == n, "larfb_right_rows: V/C column mismatch");
  if (work.rows() < mc || work.cols() < k) {
    work = MatrixT<T>(std::max(work.rows(), mc), std::max(work.cols(), k));
  }
  // W (mc x k) := C1 V1u + C2 V2^T.
  MatrixViewT<T> W = work.view().block(0, 0, mc, k);
  MatrixViewT<T> Ca = C.block(0, 0, mc, k);
  copy<T>(Ca, W);
  trmm_right<T>(UpLo::Upper, Trans::Yes, Diag::Unit, W, V.block(0, 0, k, k));
  const int ntail = n - k;
  if (ntail > 0) {
    gemm<T>(Trans::No, Trans::Yes, T(1), C.block(0, k, mc, ntail),
            V.block(0, k, k, ntail), T(1), W);
  }
  // Forward application (Trans::Yes) uses T; backward uses T^T.
  trmm_right<T>(UpLo::Upper, trans == Trans::Yes ? Trans::No : Trans::Yes,
                Diag::NonUnit, W, Tm.block(0, 0, k, k));
  // Tail block first (it needs the untouched W), then the triangular
  // product in place — W is dead afterwards, so no copy.
  if (ntail > 0) {
    gemm<T>(Trans::No, Trans::No, T(-1), W, V.block(0, k, k, ntail), T(1),
            C.block(0, k, mc, ntail));
  }
  trmm_right<T>(UpLo::Upper, Trans::No, Diag::Unit, W, V.block(0, 0, k, k));
  sub_inplace<T>(Ca, W);
}

template <class T>
void larfb_ts(Side side, Trans trans, ConstMatrixViewT<T> V,
              ConstMatrixViewT<T> Tm, MatrixViewT<T> C1, MatrixViewT<T> C2,
              MatrixT<T>& work) {
  const Trans ttrans = (trans == Trans::Yes) ? Trans::No : Trans::Yes;
  if (side == Side::Left) {
    const int k = V.n, nc = C1.n;
    if (k == 0 || nc == 0) return;
    TBSVD_CHECK(C1.m == k && C2.m == V.m && C2.n == nc,
                "larfb_ts left: shape mismatch");
    if (work.rows() < nc || work.cols() < k) {
      work = MatrixT<T>(std::max(work.rows(), nc), std::max(work.cols(), k));
    }
    // W (nc x k) := (C1 + V^T C2)^T, transposed so the T product rides the
    // vectorizable trmm_right sweep.
    MatrixViewT<T> W = work.view().block(0, 0, nc, k);
    transpose<T>(C1, W);
    gemm<T>(Trans::Yes, Trans::No, T(1), C2, V, T(1), W);
    trmm_right<T>(UpLo::Upper, ttrans, Diag::NonUnit, W, Tm.block(0, 0, k, k));
    sub_transposed<T>(C1, W);
    gemm<T>(Trans::No, Trans::Yes, T(-1), V, W, T(1), C2);
  } else {
    const int k = V.m, mc = C1.m;
    if (k == 0 || mc == 0) return;
    TBSVD_CHECK(C1.n == k && C2.m == mc && C2.n == V.n,
                "larfb_ts right: shape mismatch");
    if (work.rows() < mc || work.cols() < k) {
      work = MatrixT<T>(std::max(work.rows(), mc), std::max(work.cols(), k));
    }
    // W (mc x k) := C1 + C2 V^T (already the fast orientation).
    MatrixViewT<T> W = work.view().block(0, 0, mc, k);
    copy<T>(C1, W);
    gemm<T>(Trans::No, Trans::Yes, T(1), C2, V, T(1), W);
    trmm_right<T>(UpLo::Upper, ttrans, Diag::NonUnit, W, Tm.block(0, 0, k, k));
    sub_inplace<T>(C1, W);
    gemm<T>(Trans::No, Trans::No, T(-1), W, V, T(1), C2);
  }
}

template <class T>
void larfb_tt(Side side, Trans trans, ConstMatrixViewT<T> V,
              ConstMatrixViewT<T> Tm, MatrixViewT<T> C1, MatrixViewT<T> C2,
              int off, MatrixT<T>& work) {
  const Trans ttrans = (trans == Trans::Yes) ? Trans::No : Trans::Yes;
  if (side == Side::Left) {
    const int k = V.n, nc = C1.n;
    if (k == 0 || nc == 0) return;
    TBSVD_CHECK(V.m == off + k && C1.m == k && C2.m == off + k && C2.n == nc,
                "larfb_tt left: shape mismatch");
    if (work.rows() < nc || work.cols() < k) {
      work = MatrixT<T>(std::max(work.rows(), nc), std::max(work.cols(), k));
    }
    // W (nc x k) := (C1 + V^T C2)^T; the V product integrates only over
    // each column's support rows 0..off+c (mask applied during packing).
    MatrixViewT<T> W = work.view().block(0, 0, nc, k);
    transpose<T>(C1, W);
    gemm_trap<T>(Trans::Yes, Trans::No, T(1), C2, V, T(1), W, TrapSide::B,
                 UpLo::Upper, off);
    trmm_right<T>(UpLo::Upper, ttrans, Diag::NonUnit, W, Tm.block(0, 0, k, k));
    sub_transposed<T>(C1, W);
    gemm_trap<T>(Trans::No, Trans::Yes, T(-1), V, W, T(1), C2, TrapSide::A,
                 UpLo::Upper, off);
  } else {
    const int k = V.m, mc = C1.m;
    if (k == 0 || mc == 0) return;
    TBSVD_CHECK(V.n == off + k && C1.n == k && C2.m == mc && C2.n == off + k,
                "larfb_tt right: shape mismatch");
    if (work.rows() < mc || work.cols() < k) {
      work = MatrixT<T>(std::max(work.rows(), mc), std::max(work.cols(), k));
    }
    // W (mc x k) := C1 + C2 V^T over each row's support columns 0..off+r.
    MatrixViewT<T> W = work.view().block(0, 0, mc, k);
    copy<T>(C1, W);
    gemm_trap<T>(Trans::No, Trans::Yes, T(1), C2, V, T(1), W, TrapSide::B,
                 UpLo::Lower, off);
    trmm_right<T>(UpLo::Upper, ttrans, Diag::NonUnit, W, Tm.block(0, 0, k, k));
    sub_inplace<T>(C1, W);
    gemm_trap<T>(Trans::No, Trans::No, T(-1), W, V, T(1), C2, TrapSide::B,
                 UpLo::Lower, off);
  }
}

#define TBSVD_INSTANTIATE_HOUSEHOLDER(T)                                     \
  template T larfg<T>(int, T&, T*, int) noexcept;                            \
  template void larf_left<T>(T, const T*, int, MatrixViewT<T>);             \
  template void larf_right<T>(T, const T*, int, MatrixViewT<T>);            \
  template void larft<T>(ConstMatrixViewT<T>, const T*, MatrixViewT<T>);     \
  template void larfb<T>(Side, Trans, ConstMatrixViewT<T>,                   \
                         ConstMatrixViewT<T>, MatrixViewT<T>, MatrixT<T>&);  \
  template void larfb_left_t<T>(Trans, ConstMatrixViewT<T>,                  \
                                ConstMatrixViewT<T>, MatrixViewT<T>,         \
                                MatrixT<T>&);                                \
  template void larfb_right_rows<T>(Trans, ConstMatrixViewT<T>,              \
                                    ConstMatrixViewT<T>, MatrixViewT<T>,     \
                                    MatrixT<T>&);                            \
  template void larfb_ts<T>(Side, Trans, ConstMatrixViewT<T>,                \
                            ConstMatrixViewT<T>, MatrixViewT<T>,             \
                            MatrixViewT<T>, MatrixT<T>&);                    \
  template void larfb_tt<T>(Side, Trans, ConstMatrixViewT<T>,                \
                            ConstMatrixViewT<T>, MatrixViewT<T>,             \
                            MatrixViewT<T>, int, MatrixT<T>&);

TBSVD_INSTANTIATE_HOUSEHOLDER(float)
TBSVD_INSTANTIATE_HOUSEHOLDER(double)

#undef TBSVD_INSTANTIATE_HOUSEHOLDER

}  // namespace tbsvd
