#include "lac/qr_rec.hpp"

#include <algorithm>
#include <new>
#include <vector>

#include "common/check.hpp"
#include "common/fault.hpp"
#include "lac/householder.hpp"

namespace tbsvd {

namespace {

// Per-thread scratch, grow-only, one instance per scalar type, shared
// across every recursion depth: each buffer's contents are fully consumed
// before the routine returns to its caller, so depths never hold live data
// concurrently. Sized by the widest use at the current depth.
template <class T>
std::vector<T>& g_tau() {
  thread_local std::vector<T> v;
  return v;
}
template <class T>
std::vector<T>& g_merge() {
  thread_local std::vector<T> v;
  return v;
}
template <class T>
MatrixT<T>& g_larfb_work() {
  thread_local MatrixT<T> w;
  return w;
}

template <class T>
T* scratch(std::vector<T>& v, std::size_t n) {
  if (TBSVD_FAULT_FIRE("lac.qr_rec.alloc_fail")) throw std::bad_alloc();
  if (v.size() < n) v.resize(n);
  return v.data();
}

// T's upper k x k triangle := 0 (the empty-edge identity-reflector case).
template <class T>
void zero_t_triangle(MatrixViewT<T> Tm, int k) {
  for (int j = 0; j < k; ++j)
    for (int i = 0; i <= j; ++i) Tm(i, j) = T(0);
}

// Writes T(0:h, h:h+k2) := -op, consuming the merge buffer G in place.
template <class T>
void store_merge_block(MatrixViewT<T> Tm, ConstMatrixViewT<T> G, int h,
                       int k2) {
  for (int j = 0; j < k2; ++j) {
    for (int i = 0; i < h; ++i) Tm(i, h + j) = -G(i, j);
  }
}

// ---------------------------------------------------------------------------
// Base cases: the classical unblocked sweeps (identical arithmetic to the
// pre-recursive kernel panel loops), plus the in-place T accumulation.
// ---------------------------------------------------------------------------

// Unblocked QR of A applied to all n columns; T := larft of the k vectors.
template <class T>
void base_geqrf(MatrixViewT<T> A, MatrixViewT<T> Tm) {
  const int m = A.m, n = A.n;
  const int k = std::min(m, n);
  T* tau = scratch(g_tau<T>(), static_cast<std::size_t>(k));
  for (int j = 0; j < k; ++j) {
    tau[j] = larfg<T>(m - j, A(j, j), &A(std::min(j + 1, m - 1), j), 1);
    if (j < n - 1 && tau[j] != T(0)) {
      const T ajj = A(j, j);
      A(j, j) = T(1);
      larf_left<T>(tau[j], &A(j, j), 1, A.block(j, j + 1, m - j, n - j - 1));
      A(j, j) = ajj;
    }
  }
  larft<T>(ConstMatrixViewT<T>{A.a, m, k, A.ld}, tau, Tm);
}

// Unblocked LQ of A applied to all m rows; T via the row-storage larft.
template <class T>
void base_gelqf(MatrixViewT<T> A, MatrixViewT<T> Tm) {
  const int m = A.m, n = A.n;
  const int k = std::min(m, n);
  T* tau = scratch(g_tau<T>(), static_cast<std::size_t>(k));
  for (int i = 0; i < k; ++i) {
    tau[i] = larfg<T>(n - i, A(i, i), &A(i, std::min(i + 1, n - 1)), A.ld);
    for (int ii = i + 1; ii < m; ++ii) {
      T w = A(ii, i) +
            dot<T>(n - i - 1, &A(i, i + 1), A.ld, &A(ii, i + 1), A.ld);
      w *= tau[i];
      A(ii, i) -= w;
      axpy<T>(n - i - 1, -w, &A(i, i + 1), A.ld, &A(ii, i + 1), A.ld);
    }
  }
  for (int i = 0; i < k; ++i) {
    if (i > 0) {
      for (int p = 0; p < i; ++p) {
        Tm(p, i) = -tau[i] * (A(p, i) + dot<T>(n - i - 1, &A(p, i + 1), A.ld,
                                               &A(i, i + 1), A.ld));
      }
      MatrixViewT<T> tcol{Tm.col(i), i, 1, Tm.ld};
      trmm_left<T>(UpLo::Upper, Trans::No, Diag::NonUnit,
                   ConstMatrixViewT<T>{Tm.a, i, i, Tm.ld}, tcol);
    }
    Tm(i, i) = tau[i];
  }
}

// Unblocked TSQRT panel: reflector j = [e_j; V(:, j)] annihilates V column
// j against the diagonal of R; T from the V-tail Gram (identity parts of
// distinct reflectors are orthogonal and drop out).
template <class T>
void base_tsqrf(MatrixViewT<T> R, MatrixViewT<T> V, MatrixViewT<T> Tm) {
  const int k = R.n, m2 = V.m;
  T* tau = scratch(g_tau<T>(), static_cast<std::size_t>(std::max(k, 1)));
  for (int j = 0; j < k; ++j) {
    tau[j] = larfg<T>(m2 + 1, R(j, j), V.col(j), 1);
    for (int jj = j + 1; jj < k; ++jj) {
      T w = R(j, jj) + dot<T>(m2, V.col(j), 1, V.col(jj), 1);
      w *= tau[j];
      R(j, jj) -= w;
      axpy<T>(m2, -w, V.col(j), 1, V.col(jj), 1);
    }
  }
  for (int j = 0; j < k; ++j) {
    if (j > 0) {
      for (int p = 0; p < j; ++p) Tm(p, j) = T(0);
      gemv<T>(Trans::Yes, -tau[j], ConstMatrixViewT<T>{V.col(0), m2, j, V.ld},
              V.col(j), 1, T(1), Tm.col(j), 1);
      MatrixViewT<T> tcol{Tm.col(j), j, 1, Tm.ld};
      trmm_left<T>(UpLo::Upper, Trans::No, Diag::NonUnit,
                   ConstMatrixViewT<T>{Tm.a, j, j, Tm.ld}, tcol);
    }
    Tm(j, j) = tau[j];
  }
}

// Unblocked TTQRT panel at column offset `off`: reflector l = [e_l; V(:, l)]
// with tail support rows 0..off+l; the within-panel updates and the T Gram
// integrate over the shorter of each pair's supports, so storage below the
// trapezoid is never touched.
template <class T>
void base_ttqrf(MatrixViewT<T> R, MatrixViewT<T> V, MatrixViewT<T> Tm,
                int off) {
  const int k = R.n;
  T* tau = scratch(g_tau<T>(), static_cast<std::size_t>(std::max(k, 1)));
  for (int l = 0; l < k; ++l) {
    tau[l] = larfg<T>(off + l + 2, R(l, l), V.col(l), 1);
    for (int jj = l + 1; jj < k; ++jj) {
      T w = R(l, jj) + dot<T>(off + l + 1, V.col(l), 1, V.col(jj), 1);
      w *= tau[l];
      R(l, jj) -= w;
      axpy<T>(off + l + 1, -w, V.col(l), 1, V.col(jj), 1);
    }
  }
  for (int l = 0; l < k; ++l) {
    if (l > 0) {
      for (int p = 0; p < l; ++p) {
        Tm(p, l) = -tau[l] * dot<T>(off + p + 1, V.col(p), 1, V.col(l), 1);
      }
      MatrixViewT<T> tcol{Tm.col(l), l, 1, Tm.ld};
      trmm_left<T>(UpLo::Upper, Trans::No, Diag::NonUnit,
                   ConstMatrixViewT<T>{Tm.a, l, l, Tm.ld}, tcol);
    }
    Tm(l, l) = tau[l];
  }
}

// Row mirror of base_ttqrf for a TTLQT panel at row offset `off`: row l's
// reflector tail has support columns 0..off+l.
template <class T>
void base_ttlqf(MatrixViewT<T> L, MatrixViewT<T> V, MatrixViewT<T> Tm,
                int off) {
  const int k = L.m;
  T* tau = scratch(g_tau<T>(), static_cast<std::size_t>(std::max(k, 1)));
  for (int l = 0; l < k; ++l) {
    tau[l] = larfg<T>(off + l + 2, L(l, l), &V(l, 0), V.ld);
    for (int ii = l + 1; ii < k; ++ii) {
      T w = L(ii, l) + dot<T>(off + l + 1, &V(l, 0), V.ld, &V(ii, 0), V.ld);
      w *= tau[l];
      L(ii, l) -= w;
      axpy<T>(off + l + 1, -w, &V(l, 0), V.ld, &V(ii, 0), V.ld);
    }
  }
  for (int l = 0; l < k; ++l) {
    if (l > 0) {
      for (int p = 0; p < l; ++p) {
        Tm(p, l) =
            -tau[l] * dot<T>(off + p + 1, &V(p, 0), V.ld, &V(l, 0), V.ld);
      }
      MatrixViewT<T> tcol{Tm.col(l), l, 1, Tm.ld};
      trmm_left<T>(UpLo::Upper, Trans::No, Diag::NonUnit,
                   ConstMatrixViewT<T>{Tm.a, l, l, Tm.ld}, tcol);
    }
    Tm(l, l) = tau[l];
  }
}

// Row mirror of base_tsqrf for a TSLQT panel [L | V].
template <class T>
void base_tslqf(MatrixViewT<T> L, MatrixViewT<T> V, MatrixViewT<T> Tm) {
  const int k = L.m, m2 = V.n;
  T* tau = scratch(g_tau<T>(), static_cast<std::size_t>(std::max(k, 1)));
  for (int i = 0; i < k; ++i) {
    tau[i] = larfg<T>(m2 + 1, L(i, i), &V(i, 0), V.ld);
    for (int ii = i + 1; ii < k; ++ii) {
      T w = L(ii, i) + dot<T>(m2, &V(i, 0), V.ld, &V(ii, 0), V.ld);
      w *= tau[i];
      L(ii, i) -= w;
      axpy<T>(m2, -w, &V(i, 0), V.ld, &V(ii, 0), V.ld);
    }
  }
  for (int i = 0; i < k; ++i) {
    if (i > 0) {
      for (int p = 0; p < i; ++p) {
        Tm(p, i) = -tau[i] * dot<T>(m2, &V(p, 0), V.ld, &V(i, 0), V.ld);
      }
      MatrixViewT<T> tcol{Tm.col(i), i, 1, Tm.ld};
      trmm_left<T>(UpLo::Upper, Trans::No, Diag::NonUnit,
                   ConstMatrixViewT<T>{Tm.a, i, i, Tm.ld}, tcol);
    }
    Tm(i, i) = tau[i];
  }
}

}  // namespace

template <class T>
void geqrf_rec(MatrixViewT<T> A, MatrixViewT<T> Tm, int base) {
  const int m = A.m, n = A.n;
  const int k = std::min(m, n);
  if (k == 0) return;
  TBSVD_CHECK(base >= 1 && Tm.m >= k && Tm.n >= k,
              "geqrf_rec: bad base or T");
  if (k <= base) {
    base_geqrf<T>(A, Tm);
    return;
  }
  const int h = k / 2;
  const int k2 = k - h;
  MatrixViewT<T> A1 = A.block(0, 0, m, h);
  MatrixViewT<T> T11 = Tm.block(0, 0, h, h);
  geqrf_rec<T>(A1, T11, base);
  // Q1^T onto everything right of the split (the k2 columns still to be
  // factored plus any extra columns beyond k).
  larfb_left_t<T>(Trans::Yes, A1, T11, A.block(0, h, m, n - h),
                  g_larfb_work<T>());
  MatrixViewT<T> T22 = Tm.block(h, h, k2, k2);
  geqrf_rec<T>(A.block(h, h, m - h, n - h), T22, base);
  // T12 = -T11 (V1^T V2) T22. V2 lives in rows h..m, so V1's top h rows
  // drop out: the cross-Gram is B1^T V21u (triangular top of V2) plus a
  // dense gemm over the common tails.
  MatrixViewT<T> G{
      scratch(g_merge<T>(), static_cast<std::size_t>(h) * k2), h, k2, h};
  transpose<T>(A.block(h, 0, k2, h), G);
  trmm_right<T>(UpLo::Lower, Trans::No, Diag::Unit, G,
                A.block(h, h, k2, k2));
  if (m - h > k2) {
    gemm<T>(Trans::Yes, Trans::No, T(1), A.block(h + k2, 0, m - h - k2, h),
            A.block(h + k2, h, m - h - k2, k2), T(1), G);
  }
  trmm_left<T>(UpLo::Upper, Trans::No, Diag::NonUnit, T11, G);
  trmm_right<T>(UpLo::Upper, Trans::No, Diag::NonUnit, G, T22);
  store_merge_block<T>(Tm, G, h, k2);
}

template <class T>
void gelqf_rec(MatrixViewT<T> A, MatrixViewT<T> Tm, int base) {
  const int m = A.m, n = A.n;
  const int k = std::min(m, n);
  if (k == 0) return;
  TBSVD_CHECK(base >= 1 && Tm.m >= k && Tm.n >= k,
              "gelqf_rec: bad base or T");
  if (k <= base) {
    base_gelqf<T>(A, Tm);
    return;
  }
  const int h = k / 2;
  const int k2 = k - h;
  MatrixViewT<T> V1 = A.block(0, 0, h, n);
  MatrixViewT<T> T11 = Tm.block(0, 0, h, h);
  gelqf_rec<T>(V1, T11, base);
  // Apply the top block reflector to all rows below the split (same product
  // sequence as the gelqt/unmlq trailing update, forward orientation).
  larfb_right_rows<T>(Trans::Yes, V1, T11, A.block(h, 0, m - h, n),
                      g_larfb_work<T>());
  MatrixViewT<T> T22 = Tm.block(h, h, k2, k2);
  gelqf_rec<T>(A.block(h, h, m - h, n - h), T22, base);
  // T12 = -T11 (V1 V2^T) T22 over columns h..n (V2's support).
  MatrixViewT<T> G{
      scratch(g_merge<T>(), static_cast<std::size_t>(h) * k2), h, k2, h};
  copy<T>(A.block(0, h, h, k2), G);
  trmm_right<T>(UpLo::Upper, Trans::Yes, Diag::Unit, G,
                A.block(h, h, k2, k2));
  if (n - h > k2) {
    gemm<T>(Trans::No, Trans::Yes, T(1), A.block(0, h + k2, h, n - h - k2),
            A.block(h, h + k2, k2, n - h - k2), T(1), G);
  }
  trmm_left<T>(UpLo::Upper, Trans::No, Diag::NonUnit, T11, G);
  trmm_right<T>(UpLo::Upper, Trans::No, Diag::NonUnit, G, T22);
  store_merge_block<T>(Tm, G, h, k2);
}

template <class T>
void tsqrf_rec(MatrixViewT<T> R, MatrixViewT<T> V, MatrixViewT<T> Tm,
               int base) {
  const int k = R.n, m2 = V.m;
  TBSVD_CHECK(R.m == k && V.n == k, "tsqrf_rec: shape mismatch");
  if (k == 0) return;
  TBSVD_CHECK(base >= 1 && Tm.m >= k && Tm.n >= k,
              "tsqrf_rec: bad base or T");
  if (m2 == 0) {
    // Empty-edge tile: nothing to annihilate, every tau is 0 and the block
    // reflector is the identity. R is untouched; T's triangle is zero.
    // (V may be a null-backed 0-row view — it must not be dereferenced.)
    zero_t_triangle<T>(Tm, k);
    return;
  }
  if (k <= base) {
    base_tsqrf<T>(R, V, Tm);
    return;
  }
  const int h = k / 2;
  const int k2 = k - h;
  MatrixViewT<T> VL = V.block(0, 0, m2, h);
  MatrixViewT<T> T11 = Tm.block(0, 0, h, h);
  tsqrf_rec<T>(R.block(0, 0, h, h), VL, T11, base);
  // Apply the left block reflector to the right columns of [R; V]: the
  // unit parts of the left reflectors only touch R's first h rows.
  larfb_ts<T>(Side::Left, Trans::Yes, VL, T11, R.block(0, h, h, k2),
              V.block(0, h, m2, k2), g_larfb_work<T>());
  MatrixViewT<T> VR = V.block(0, h, m2, k2);
  MatrixViewT<T> T22 = Tm.block(h, h, k2, k2);
  tsqrf_rec<T>(R.block(h, h, k2, k2), VR, T22, base);
  // T12 = -T11 (VL^T VR) T22: the identity parts of distinct reflectors
  // are disjoint, so only the dense tails contribute.
  MatrixViewT<T> G{
      scratch(g_merge<T>(), static_cast<std::size_t>(h) * k2), h, k2, h};
  gemm<T>(Trans::Yes, Trans::No, T(1), VL, VR, T(0), G);
  trmm_left<T>(UpLo::Upper, Trans::No, Diag::NonUnit, T11, G);
  trmm_right<T>(UpLo::Upper, Trans::No, Diag::NonUnit, G, T22);
  store_merge_block<T>(Tm, G, h, k2);
}

template <class T>
void tslqf_rec(MatrixViewT<T> L, MatrixViewT<T> V, MatrixViewT<T> Tm,
               int base) {
  const int k = L.m, m2 = V.n;
  TBSVD_CHECK(L.n == k && V.m == k, "tslqf_rec: shape mismatch");
  if (k == 0) return;
  TBSVD_CHECK(base >= 1 && Tm.m >= k && Tm.n >= k,
              "tslqf_rec: bad base or T");
  if (m2 == 0) {
    // Empty-edge tile: identity reflector, L untouched, T's triangle zero.
    zero_t_triangle<T>(Tm, k);
    return;
  }
  if (k <= base) {
    base_tslqf<T>(L, V, Tm);
    return;
  }
  const int h = k / 2;
  const int k2 = k - h;
  MatrixViewT<T> VT = V.block(0, 0, h, m2);
  MatrixViewT<T> T11 = Tm.block(0, 0, h, h);
  tslqf_rec<T>(L.block(0, 0, h, h), VT, T11, base);
  // Apply the top block reflector to the bottom rows of [L | V].
  larfb_ts<T>(Side::Right, Trans::Yes, VT, T11, L.block(h, 0, k2, h),
              V.block(h, 0, k2, m2), g_larfb_work<T>());
  MatrixViewT<T> VB = V.block(h, 0, k2, m2);
  MatrixViewT<T> T22 = Tm.block(h, h, k2, k2);
  tslqf_rec<T>(L.block(h, h, k2, k2), VB, T22, base);
  MatrixViewT<T> G{
      scratch(g_merge<T>(), static_cast<std::size_t>(h) * k2), h, k2, h};
  gemm<T>(Trans::No, Trans::Yes, T(1), VT, VB, T(0), G);
  trmm_left<T>(UpLo::Upper, Trans::No, Diag::NonUnit, T11, G);
  trmm_right<T>(UpLo::Upper, Trans::No, Diag::NonUnit, G, T22);
  store_merge_block<T>(Tm, G, h, k2);
}

template <class T>
void ttqrf_rec(MatrixViewT<T> R, MatrixViewT<T> V, MatrixViewT<T> Tm, int off,
               int base) {
  const int k = R.n;
  TBSVD_CHECK(R.m == k && V.n == k && V.m == off + k && off >= 0,
              "ttqrf_rec: shape mismatch");
  if (k == 0) return;
  TBSVD_CHECK(base >= 1 && Tm.m >= k && Tm.n >= k,
              "ttqrf_rec: bad base or T");
  if (k <= base) {
    base_ttqrf<T>(R, V, Tm, off);
    return;
  }
  const int h = k / 2;
  const int k2 = k - h;
  MatrixViewT<T> V1 = V.block(0, 0, off + h, h);
  MatrixViewT<T> T11 = Tm.block(0, 0, h, h);
  ttqrf_rec<T>(R.block(0, 0, h, h), V1, T11, off, base);
  // Apply the left block reflector to the right columns of [R; V]: the
  // identity parts only touch R's first h rows, and every trailing column's
  // own support reaches at least row off+h, so the dense C2 writes stay
  // inside valid storage while V1's mask keeps the reads in-support.
  larfb_tt<T>(Side::Left, Trans::Yes, V1, T11, R.block(0, h, h, k2),
              V.block(0, h, off + h, k2), off, g_larfb_work<T>());
  MatrixViewT<T> T22 = Tm.block(h, h, k2, k2);
  ttqrf_rec<T>(R.block(h, h, k2, k2), V.block(0, h, off + k, k2), T22,
               off + h, base);
  // T12 = -T11 (V1^T V2) T22. The identity parts live in disjoint rows of
  // R, so only the A2 tails contribute; V1's support caps every pairwise
  // product at rows 0..off+h-1, which are in-support (hence valid data)
  // for every right-half column. The mask on V1 trims each pair to the
  // shorter support.
  MatrixViewT<T> G{
      scratch(g_merge<T>(), static_cast<std::size_t>(h) * k2), h, k2, h};
  gemm_trap<T>(Trans::Yes, Trans::No, T(1), V1, V.block(0, h, off + h, k2),
               T(0), G, TrapSide::A, UpLo::Upper, off);
  trmm_left<T>(UpLo::Upper, Trans::No, Diag::NonUnit, T11, G);
  trmm_right<T>(UpLo::Upper, Trans::No, Diag::NonUnit, G, T22);
  store_merge_block<T>(Tm, G, h, k2);
}

template <class T>
void ttlqf_rec(MatrixViewT<T> L, MatrixViewT<T> V, MatrixViewT<T> Tm, int off,
               int base) {
  const int k = L.m;
  TBSVD_CHECK(L.n == k && V.m == k && V.n == off + k && off >= 0,
              "ttlqf_rec: shape mismatch");
  if (k == 0) return;
  TBSVD_CHECK(base >= 1 && Tm.m >= k && Tm.n >= k,
              "ttlqf_rec: bad base or T");
  if (k <= base) {
    base_ttlqf<T>(L, V, Tm, off);
    return;
  }
  const int h = k / 2;
  const int k2 = k - h;
  MatrixViewT<T> V1 = V.block(0, 0, h, off + h);
  MatrixViewT<T> T11 = Tm.block(0, 0, h, h);
  ttlqf_rec<T>(L.block(0, 0, h, h), V1, T11, off, base);
  // Apply the top block reflector to the bottom rows of [L | V] (row
  // mirror of the QR case: trailing rows' supports reach past column
  // off+h, so the dense writes stay in valid storage).
  larfb_tt<T>(Side::Right, Trans::Yes, V1, T11, L.block(h, 0, k2, h),
              V.block(h, 0, k2, off + h), off, g_larfb_work<T>());
  MatrixViewT<T> T22 = Tm.block(h, h, k2, k2);
  ttlqf_rec<T>(L.block(h, h, k2, k2), V.block(h, 0, k2, off + k), T22,
               off + h, base);
  // T12 = -T11 (V1 V2^T) T22 over the pairwise-common column supports.
  MatrixViewT<T> G{
      scratch(g_merge<T>(), static_cast<std::size_t>(h) * k2), h, k2, h};
  gemm_trap<T>(Trans::No, Trans::Yes, T(1), V1, V.block(h, 0, k2, off + h),
               T(0), G, TrapSide::A, UpLo::Lower, off);
  trmm_left<T>(UpLo::Upper, Trans::No, Diag::NonUnit, T11, G);
  trmm_right<T>(UpLo::Upper, Trans::No, Diag::NonUnit, G, T22);
  store_merge_block<T>(Tm, G, h, k2);
}

#define TBSVD_INSTANTIATE_QR_REC(T)                                          \
  template void geqrf_rec<T>(MatrixViewT<T>, MatrixViewT<T>, int);           \
  template void gelqf_rec<T>(MatrixViewT<T>, MatrixViewT<T>, int);           \
  template void tsqrf_rec<T>(MatrixViewT<T>, MatrixViewT<T>, MatrixViewT<T>, \
                             int);                                           \
  template void tslqf_rec<T>(MatrixViewT<T>, MatrixViewT<T>, MatrixViewT<T>, \
                             int);                                           \
  template void ttqrf_rec<T>(MatrixViewT<T>, MatrixViewT<T>, MatrixViewT<T>, \
                             int, int);                                      \
  template void ttlqf_rec<T>(MatrixViewT<T>, MatrixViewT<T>, MatrixViewT<T>, \
                             int, int);

TBSVD_INSTANTIATE_QR_REC(float)
TBSVD_INSTANTIATE_QR_REC(double)

#undef TBSVD_INSTANTIATE_QR_REC

}  // namespace tbsvd
