#include "lac/blas.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "lac/gemm_microkernel.hpp"

namespace tbsvd {

namespace {

// ---------------------------------------------------------------------------
// Direct (un-packed) GEMM paths for small/skinny products. These keep the
// seed loop orderings but drop the branchy exact-zero guards: the branches
// defeated vectorization of the inner loops, and BLAS semantics do not
// require skipping zero multiplicands (alpha == 0 is handled by the driver).
// ---------------------------------------------------------------------------

// C += alpha * A * B with A (m x k), B (k x n); axpy-ordered loops.
template <class T>
void gemm_small_nn(T alpha, ConstMatrixViewT<T> A, ConstMatrixViewT<T> B,
                   MatrixViewT<T> C) {
  const int m = C.m, n = C.n, k = A.n;
  for (int j = 0; j < n; ++j) {
    T* cj = C.col(j);
    for (int l = 0; l < k; ++l) {
      const T blj = alpha * B(l, j);
      const T* al = A.col(l);
      for (int i = 0; i < m; ++i) cj[i] += blj * al[i];
    }
  }
}

// C += alpha * A^T * B with A (k x m), B (k x n); dot-ordered loops. The
// contiguous dots ride dot()'s multi-accumulator chains, which keeps these
// panel-sliver products vectorized without -ffast-math.
template <class T>
void gemm_small_tn(T alpha, ConstMatrixViewT<T> A, ConstMatrixViewT<T> B,
                   MatrixViewT<T> C) {
  const int m = C.m, n = C.n, k = A.m;
  for (int j = 0; j < n; ++j) {
    const T* bj = B.col(j);
    for (int i = 0; i < m; ++i) {
      C(i, j) += alpha * dot<T>(k, A.col(i), 1, bj, 1);
    }
  }
}

// C += alpha * A * B^T with A (m x k), B (n x k).
template <class T>
void gemm_small_nt(T alpha, ConstMatrixViewT<T> A, ConstMatrixViewT<T> B,
                   MatrixViewT<T> C) {
  const int m = C.m, n = C.n, k = A.n;
  for (int l = 0; l < k; ++l) {
    const T* al = A.col(l);
    for (int j = 0; j < n; ++j) {
      const T bjl = alpha * B(j, l);
      T* cj = C.col(j);
      for (int i = 0; i < m; ++i) cj[i] += bjl * al[i];
    }
  }
}

// C += alpha * A^T * B^T with A (k x m), B (n x k).
template <class T>
void gemm_small_tt(T alpha, ConstMatrixViewT<T> A, ConstMatrixViewT<T> B,
                   MatrixViewT<T> C) {
  const int m = C.m, n = C.n, k = A.m;
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i < m; ++i) {
      const T* ai = A.col(i);
      T s = T(0);
      for (int l = 0; l < k; ++l) s += ai[l] * B(j, l);
      C(i, j) += alpha * s;
    }
  }
}

// ---------------------------------------------------------------------------
// Blocked packed path: one rank-KC update at a time, packed panels, MR x NR
// register micro-kernel (see gemm_microkernel.hpp for the layout contract).
// ---------------------------------------------------------------------------

// Support mask of a trapezoidal operand (see gemm_trap in blas.hpp).
// Inactive by default, in which case gemm_blocked packs densely.
struct TrapMask {
  bool on = false;
  bool on_a = false;  ///< masked operand: A (true) or B (false)
  bool upper = false;
  int off = 0;
};

template <class T>
void gemm_blocked(bool transa, bool transb, T alpha, ConstMatrixViewT<T> A,
                  ConstMatrixViewT<T> B, MatrixViewT<T> C, int k,
                  const TrapMask& trap = {}) {
  using namespace detail;
  constexpr int MR = MicroTile<T>::kMR;
  constexpr int NR = MicroTile<T>::kNR;
  constexpr int KC = MicroTile<T>::kKC;
  constexpr int MC = MicroTile<T>::kMC;
  constexpr int NC = MicroTile<T>::kNC;
  const int m = C.m, n = C.n;
  const int nc_max = std::min(NC, n);
  const int kc_max = std::min(KC, k);
  const int mc_max = std::min(MC, (m + MR - 1) / MR * MR);
  T* bp = pack_b_workspace<T>().ensure(static_cast<std::size_t>(kc_max) *
                                       ((nc_max + NR - 1) / NR * NR));
  T* ap = pack_a_workspace<T>().ensure(static_cast<std::size_t>(kc_max) *
                                       mc_max);
  for (int jc = 0; jc < n; jc += NC) {
    const int nc = std::min(NC, n - jc);
    for (int pc = 0; pc < k; pc += KC) {
      const int kc = std::min(KC, k - pc);
      if (trap.on && !trap.on_a) {
        pack_b_trap<T>(transb, B, pc, jc, kc, nc, trap.upper, trap.off, bp);
      } else {
        pack_b<T>(transb, B, pc, jc, kc, nc, bp);
      }
      for (int ic = 0; ic < m; ic += MC) {
        const int mc = std::min(MC, m - ic);
        if (trap.on && trap.on_a) {
          pack_a_trap<T>(transa, alpha, A, ic, pc, mc, kc, trap.upper,
                         trap.off, ap);
        } else {
          pack_a<T>(transa, alpha, A, ic, pc, mc, kc, ap);
        }
        for (int jr = 0; jr < nc; jr += NR) {
          const int nr = std::min(NR, nc - jr);
          const T* bs = bp + static_cast<std::size_t>(jr) * kc;
          for (int ir = 0; ir < mc; ir += MR) {
            const int mr = std::min(MR, mc - ir);
            const T* as = ap + static_cast<std::size_t>(ir) * kc;
            if (mr == MR && nr == NR) {
              micro_kernel<T>(kc, as, bs, &C(ic + ir, jc + jr), C.ld);
            } else {
              T tmp[MR * NR] = {};
              micro_kernel<T>(kc, as, bs, tmp, MR);
              for (int j = 0; j < nr; ++j) {
                T* cj = &C(ic + ir, jc + jr + j);
                for (int i = 0; i < mr; ++i) cj[i] += tmp[j * MR + i];
              }
            }
          }
        }
      }
    }
  }
}

// C := beta * C (the shared prologue of the gemm drivers).
template <class T>
void scale_c(T beta, MatrixViewT<T> C) {
  if (beta == T(1)) return;
  for (int j = 0; j < C.n; ++j) {
    T* cj = C.col(j);
    if (beta == T(0)) {
      for (int i = 0; i < C.m; ++i) cj[i] = T(0);
    } else {
      for (int i = 0; i < C.m; ++i) cj[i] *= beta;
    }
  }
}

// Dispatch to the direct (un-packed) loops by transpose combination.
template <class T>
void gemm_small(Trans ta, Trans tb, T alpha, ConstMatrixViewT<T> A,
                ConstMatrixViewT<T> B, MatrixViewT<T> C) {
  if (ta == Trans::No && tb == Trans::No) {
    gemm_small_nn<T>(alpha, A, B, C);
  } else if (ta == Trans::Yes && tb == Trans::No) {
    gemm_small_tn<T>(alpha, A, B, C);
  } else if (ta == Trans::No && tb == Trans::Yes) {
    gemm_small_nt<T>(alpha, A, B, C);
  } else {
    gemm_small_tt<T>(alpha, A, B, C);
  }
}

// Safe range of nrm2's unscaled sum-of-squares fast path, per precision:
// squares of entries in (lo, hi) stay normal and their sum stays far from
// overflow for any realistic vector length. The double bounds are the
// historical 1e±140; the float bounds keep amax^2 inside (1e-34, 1e34)
// against FLT_MIN ~ 1.2e-38 and FLT_MAX ~ 3.4e38.
template <class T>
struct Nrm2Range;
template <>
struct Nrm2Range<double> {
  static constexpr double lo = 1e-140;
  static constexpr double hi = 1e140;
};
template <>
struct Nrm2Range<float> {
  static constexpr float lo = 1e-17f;
  static constexpr float hi = 1e17f;
};

// Sum of squares of a strided vector on four accumulator chains, with the
// largest magnitude seen returned through amax (nrm2's fast path).
template <class T>
inline T nrm2_sumsq(int n, const T* x, int incx, T& amax) noexcept {
  T s0 = T(0), s1 = T(0), s2 = T(0), s3 = T(0);
  int i = 0;
  for (; i + 4 <= n; i += 4) {
    const T x0 = x[i * incx], x1 = x[(i + 1) * incx];
    const T x2 = x[(i + 2) * incx], x3 = x[(i + 3) * incx];
    s0 += x0 * x0;
    s1 += x1 * x1;
    s2 += x2 * x2;
    s3 += x3 * x3;
    amax = std::max(amax, std::max(std::max(std::fabs(x0), std::fabs(x1)),
                                   std::max(std::fabs(x2), std::fabs(x3))));
  }
  T s = (s0 + s1) + (s2 + s3);
  for (; i < n; ++i) {
    const T xi = x[i * incx];
    s += xi * xi;
    amax = std::max(amax, std::fabs(xi));
  }
  return s;
}

}  // namespace

template <class T>
void gemm(Trans ta, Trans tb, T alpha, ConstMatrixViewT<T> A,
          ConstMatrixViewT<T> B, T beta, MatrixViewT<T> C) {
  const int ka = (ta == Trans::No) ? A.n : A.m;
  const int kb = (tb == Trans::No) ? B.m : B.n;
  const int ma = (ta == Trans::No) ? A.m : A.n;
  const int nb = (tb == Trans::No) ? B.n : B.m;
  TBSVD_CHECK(ka == kb && ma == C.m && nb == C.n, "gemm shape mismatch");

  scale_c<T>(beta, C);
  if (alpha == T(0) || ka == 0 || C.m == 0 || C.n == 0) return;

  // Packing only pays off once the product is big enough; the ib-panel
  // products inside geqrt/tsqrt (k <= ib slivers, tiny C blocks) go direct.
  // A tiny C with a long accumulation dimension (the recursive panels' base
  // applies: 8x8 output, k = tile height) still wants the packed kernel —
  // the dot-ordered loops are latency-bound there.
  const bool small =
      (ka <= detail::kSmallK) ||
      (static_cast<long long>(C.m) * C.n <= detail::kSmallMN &&
       ka <= detail::kSmallDirectK);
  if (small) {
    gemm_small<T>(ta, tb, alpha, A, B, C);
    return;
  }
  gemm_blocked<T>(ta == Trans::Yes, tb == Trans::Yes, alpha, A, B, C, ka);
}

template <class T>
void gemm_trap(Trans ta, Trans tb, T alpha, ConstMatrixViewT<T> A,
               ConstMatrixViewT<T> B, T beta, MatrixViewT<T> C, TrapSide side,
               UpLo uplo, int off) {
  const int ka = (ta == Trans::No) ? A.n : A.m;
  const int kb = (tb == Trans::No) ? B.m : B.n;
  const int ma = (ta == Trans::No) ? A.m : A.n;
  const int nb = (tb == Trans::No) ? B.n : B.m;
  TBSVD_CHECK(ka == kb && ma == C.m && nb == C.n, "gemm_trap shape mismatch");

  scale_c<T>(beta, C);
  if (alpha == T(0) || ka == 0 || C.m == 0 || C.n == 0) return;

  const bool upper = (uplo == UpLo::Upper);
  const bool small =
      (ka <= detail::kSmallK) ||
      (static_cast<long long>(C.m) * C.n <= detail::kSmallMN &&
       ka <= detail::kSmallDirectK);
  if (small) {
    // Densify the masked operand into scratch (valid support copied,
    // everything else zeroed) and reuse the direct loops: masked packing
    // only pays off on the blocked path.
    const ConstMatrixViewT<T>& X = (side == TrapSide::A) ? A : B;
    thread_local std::vector<T> dense;
    const std::size_t need =
        static_cast<std::size_t>(X.m) * static_cast<std::size_t>(X.n);
    if (dense.size() < need) dense.resize(need);
    MatrixViewT<T> D{dense.data(), X.m, X.n, X.m};
    for (int c = 0; c < X.n; ++c) {
      // Upper keeps (r, c) with r <= off + c; Lower keeps c <= off + r.
      // Both bounds clamp to [0, X.m]: a column lying entirely outside the
      // support (c - off > X.m, or off + c < 0) densifies to all zeros.
      int lo = upper ? 0 : std::min(X.m, std::max(0, c - off));
      int hi = upper ? std::max(0, std::min(X.m, off + c + 1)) : X.m;
      if (hi < lo) hi = lo;
      T* d = D.col(c);
      const T* s = X.col(c);
      int i = 0;
      for (; i < lo; ++i) d[i] = T(0);
      for (; i < hi; ++i) d[i] = s[i];
      for (; i < X.m; ++i) d[i] = T(0);
    }
    if (side == TrapSide::A) {
      gemm_small<T>(ta, tb, alpha, ConstMatrixViewT<T>{D}, B, C);
    } else {
      gemm_small<T>(ta, tb, alpha, A, ConstMatrixViewT<T>{D}, C);
    }
    return;
  }
  const TrapMask mask{true, side == TrapSide::A, upper, off};
  gemm_blocked<T>(ta == Trans::Yes, tb == Trans::Yes, alpha, A, B, C, ka,
                  mask);
}

template <class T>
void gemv(Trans ta, T alpha, ConstMatrixViewT<T> A, const T* x, int incx,
          T beta, T* y, int incy) {
  const int ny = (ta == Trans::No) ? A.m : A.n;
  if (beta != T(1)) {
    for (int i = 0; i < ny; ++i) y[i * incy] = beta * y[i * incy];
  }
  if (alpha == T(0)) return;
  if (ta == Trans::No) {
    for (int j = 0; j < A.n; ++j) {
      const T xj = alpha * x[j * incx];
      const T* aj = A.col(j);
      if (incy == 1) {
        for (int i = 0; i < A.m; ++i) y[i] += xj * aj[i];
      } else {
        for (int i = 0; i < A.m; ++i) y[i * incy] += xj * aj[i];
      }
    }
  } else {
    for (int j = 0; j < A.n; ++j) {
      const T* aj = A.col(j);
      T s = T(0);
      if (incx == 1) {
        for (int i = 0; i < A.m; ++i) s += aj[i] * x[i];
      } else {
        for (int i = 0; i < A.m; ++i) s += aj[i] * x[i * incx];
      }
      y[j * incy] += alpha * s;
    }
  }
}

template <class T>
T dot(int n, const T* x, int incx, const T* y, int incy) noexcept {
  if (incx == 1 && incy == 1) {
    // Eight independent accumulator chains: without -ffast-math the
    // compiler may not reassociate a single-accumulator reduction, which
    // leaves the panel sweeps (base-case recursion, reference kernels)
    // latency-bound on one FMA chain. Explicit chains vectorize cleanly.
    T s0 = T(0), s1 = T(0), s2 = T(0), s3 = T(0);
    T s4 = T(0), s5 = T(0), s6 = T(0), s7 = T(0);
    int i = 0;
    for (; i + 8 <= n; i += 8) {
      s0 += x[i] * y[i];
      s1 += x[i + 1] * y[i + 1];
      s2 += x[i + 2] * y[i + 2];
      s3 += x[i + 3] * y[i + 3];
      s4 += x[i + 4] * y[i + 4];
      s5 += x[i + 5] * y[i + 5];
      s6 += x[i + 6] * y[i + 6];
      s7 += x[i + 7] * y[i + 7];
    }
    T s = ((s0 + s4) + (s1 + s5)) + ((s2 + s6) + (s3 + s7));
    for (; i < n; ++i) s += x[i] * y[i];
    return s;
  }
  T s = T(0);
  for (int i = 0; i < n; ++i) s += x[i * incx] * y[i * incy];
  return s;
}

template <class T>
T nrm2(int n, const T* x, int incx) noexcept {
  // Fast path: plain sum of squares with independent accumulator chains,
  // valid whenever the result neither overflows nor loses bits to
  // underflow. Checked against the extremes of the accumulated squares so
  // the guard itself is branch-free inside the loop. The contiguous case
  // gets its own instantiation of the loop (a compile-time stride
  // vectorizes); a strided vector runs the same chains in the same order,
  // so its result is bitwise the contiguous one.
  T amax = T(0);
  const T s = (incx == 1) ? nrm2_sumsq<T>(n, x, 1, amax)
                          : nrm2_sumsq<T>(n, x, incx, amax);
  // Safe range: squares stay normal and the sum far from overflow.
  if (amax > Nrm2Range<T>::lo && amax < Nrm2Range<T>::hi) return std::sqrt(s);
  // amax == 0 means every entry was (+/-)0 or NaN (NaN never wins a
  // std::max); sqrt(s) is then 0 or NaN respectively — propagating NaN
  // exactly like the scaled reference loop below.
  if (amax == T(0)) return std::sqrt(s);
  // Scaled accumulation (as in reference BLAS) to avoid overflow/underflow.
  T scale = T(0), ssq = T(1);
  for (int i = 0; i < n; ++i) {
    const T xi = x[i * incx];
    if (xi == T(0)) continue;
    const T absxi = std::fabs(xi);
    if (scale < absxi) {
      const T r = scale / absxi;
      ssq = T(1) + ssq * r * r;
      scale = absxi;
    } else {
      const T r = absxi / scale;
      ssq += r * r;
    }
  }
  return scale * std::sqrt(ssq);
}

template <class T>
void axpy(int n, T a, const T* x, int incx, T* y, int incy) noexcept {
  if (a == T(0)) return;
  if (incx == 1 && incy == 1) {
    for (int i = 0; i < n; ++i) y[i] += a * x[i];
  } else {
    for (int i = 0; i < n; ++i) y[i * incy] += a * x[i * incx];
  }
}

template <class T>
void scal(int n, T a, T* x, int incx) noexcept {
  if (incx == 1) {
    for (int i = 0; i < n; ++i) x[i] *= a;
  } else {
    for (int i = 0; i < n; ++i) x[i * incx] *= a;
  }
}

template <class T>
void copy(ConstMatrixViewT<T> A, MatrixViewT<T> B) {
  TBSVD_CHECK(A.m == B.m && A.n == B.n, "copy shape mismatch");
  if (A.m == 0) return;  // empty views may be null-backed; memcpy rejects null
  for (int j = 0; j < A.n; ++j) {
    std::memcpy(B.col(j), A.col(j), static_cast<std::size_t>(A.m) * sizeof(T));
  }
}

template <class T>
void transpose(ConstMatrixViewT<T> A, MatrixViewT<T> B) {
  TBSVD_CHECK(A.m == B.n && A.n == B.m, "transpose shape mismatch");
  for (int j = 0; j < A.n; ++j) {
    const T* aj = A.col(j);
    for (int i = 0; i < A.m; ++i) B(j, i) = aj[i];
  }
}

template <class T>
void sub_inplace(MatrixViewT<T> C, ConstMatrixViewT<T> W) {
  TBSVD_CHECK(C.m == W.m && C.n == W.n, "sub_inplace shape mismatch");
  for (int j = 0; j < C.n; ++j) {
    T* cj = C.col(j);
    const T* wj = W.col(j);
    for (int i = 0; i < C.m; ++i) cj[i] -= wj[i];
  }
}

template <class T>
void sub_transposed(MatrixViewT<T> C, ConstMatrixViewT<T> W) {
  TBSVD_CHECK(C.m == W.n && C.n == W.m, "sub_transposed shape mismatch");
  for (int j = 0; j < C.n; ++j) {
    T* cj = C.col(j);
    for (int i = 0; i < C.m; ++i) cj[i] -= W(j, i);
  }
}

template <class T>
double norm_fro(ConstMatrixViewT<T> A) noexcept {
  double s = 0.0;
  for (int j = 0; j < A.n; ++j) {
    const T* aj = A.col(j);
    for (int i = 0; i < A.m; ++i)
      s += static_cast<double>(aj[i]) * static_cast<double>(aj[i]);
  }
  return std::sqrt(s);
}

template <class T>
double norm_max(ConstMatrixViewT<T> A) noexcept {
  double s = 0.0;
  for (int j = 0; j < A.n; ++j) {
    const T* aj = A.col(j);
    for (int i = 0; i < A.m; ++i)
      s = std::max(s, std::fabs(static_cast<double>(aj[i])));
  }
  return s;
}

template <class T>
double orthogonality_error(ConstMatrixViewT<T> A) {
  MatrixT<T> G(A.n, A.n);
  gemm<T>(Trans::Yes, Trans::No, T(1), A, A, T(0), G.view());
  for (int i = 0; i < A.n; ++i) G(i, i) -= T(1);
  return norm_fro<T>(G.cview());
}

}  // namespace tbsvd

namespace tbsvd {

namespace {

// Triangular block size above which trmm recurses into gemm off-diagonal
// updates. Diagonal blocks fall through to the sweeps below.
constexpr int kTrmmBlock = 64;

template <class T>
void trmm_left_small(UpLo uplo, Trans trans, Diag diag, ConstMatrixViewT<T> Tm,
                     MatrixViewT<T> W) {
  const int k = Tm.m;
  const bool unit = (diag == Diag::Unit);
  for (int c = 0; c < W.n; ++c) {
    T* w = W.col(c);
    if (uplo == UpLo::Upper && trans == Trans::No) {
      // w := U w, ascending column sweep.
      for (int j = 0; j < k; ++j) {
        const T tmp = w[j];
        const T* tj = Tm.col(j);
        for (int i = 0; i < j; ++i) w[i] += tj[i] * tmp;
        w[j] = unit ? tmp : tj[j] * tmp;
      }
    } else if (uplo == UpLo::Upper && trans == Trans::Yes) {
      // w := U^T w, descending dot sweep.
      for (int i = k - 1; i >= 0; --i) {
        const T* ti = Tm.col(i);
        T s = unit ? w[i] : ti[i] * w[i];
        for (int j = 0; j < i; ++j) s += ti[j] * w[j];
        w[i] = s;
      }
    } else if (uplo == UpLo::Lower && trans == Trans::No) {
      // w := L w, descending column sweep.
      for (int j = k - 1; j >= 0; --j) {
        const T tmp = w[j];
        const T* tj = Tm.col(j);
        for (int i = j + 1; i < k; ++i) w[i] += tj[i] * tmp;
        w[j] = unit ? tmp : tj[j] * tmp;
      }
    } else {
      // w := L^T w, ascending dot sweep.
      for (int i = 0; i < k; ++i) {
        const T* ti = Tm.col(i);
        T s = unit ? w[i] : ti[i] * w[i];
        for (int j = i + 1; j < k; ++j) s += ti[j] * w[j];
        w[i] = s;
      }
    }
  }
}

template <class T>
void trmm_right_small(UpLo uplo, Trans trans, Diag diag, MatrixViewT<T> W,
                      ConstMatrixViewT<T> Tm) {
  const int k = Tm.m;
  const int m = W.m;
  const bool unit = (diag == Diag::Unit);
  auto scale_col = [&](int j, T d) {
    T* wj = W.col(j);
    for (int i = 0; i < m; ++i) wj[i] *= d;
  };
  auto axpy_col = [&](int dst, int src, T a) {
    if (a == T(0)) return;
    T* wd = W.col(dst);
    const T* ws = W.col(src);
    for (int i = 0; i < m; ++i) wd[i] += a * ws[i];
  };
  if (uplo == UpLo::Upper && trans == Trans::No) {
    for (int j = k - 1; j >= 0; --j) {
      if (!unit) scale_col(j, Tm(j, j));
      for (int i = 0; i < j; ++i) axpy_col(j, i, Tm(i, j));
    }
  } else if (uplo == UpLo::Upper && trans == Trans::Yes) {
    for (int j = 0; j < k; ++j) {
      if (!unit) scale_col(j, Tm(j, j));
      for (int i = j + 1; i < k; ++i) axpy_col(j, i, Tm(j, i));
    }
  } else if (uplo == UpLo::Lower && trans == Trans::No) {
    for (int j = 0; j < k; ++j) {
      if (!unit) scale_col(j, Tm(j, j));
      for (int i = j + 1; i < k; ++i) axpy_col(j, i, Tm(i, j));
    }
  } else {
    for (int j = k - 1; j >= 0; --j) {
      if (!unit) scale_col(j, Tm(j, j));
      for (int i = 0; i < j; ++i) axpy_col(j, i, Tm(j, i));
    }
  }
}

}  // namespace

template <class T>
void trmm_left(UpLo uplo, Trans trans, Diag diag, ConstMatrixViewT<T> Tm,
               MatrixViewT<T> W) {
  TBSVD_CHECK(Tm.m == Tm.n && Tm.m == W.m, "trmm_left shape mismatch");
  const int k = Tm.m;
  if (k <= kTrmmBlock || W.n == 0) {
    trmm_left_small<T>(uplo, trans, diag, Tm, W);
    return;
  }
  // Partition the triangle into kTrmmBlock panels: the diagonal blocks use
  // the sweep kernels above, the off-diagonal blocks go through the blocked
  // gemm. Row-block i of the result only reads row blocks that have not
  // been overwritten yet given the sweep direction below.
  const int nblk = (k + kTrmmBlock - 1) / kTrmmBlock;
  auto blk = [&](int b, int& b0, int& bs) {
    b0 = b * kTrmmBlock;
    bs = std::min(kTrmmBlock, k - b0);
  };
  const bool upper = (uplo == UpLo::Upper);
  const bool notrans = (trans == Trans::No);
  // Ascending when result row-block i depends only on blocks j > i
  // (Upper/NoTrans, Lower/Trans); descending otherwise.
  const bool ascending = (upper == notrans);
  for (int s = 0; s < nblk; ++s) {
    const int bi = ascending ? s : nblk - 1 - s;
    int i0, is;
    blk(bi, i0, is);
    MatrixViewT<T> Wi = W.block(i0, 0, is, W.n);
    trmm_left_small<T>(uplo, trans, diag, Tm.block(i0, i0, is, is), Wi);
    for (int bj = 0; bj < nblk; ++bj) {
      if (bj == bi) continue;
      // op(T)(i, j) block is nonzero iff (upper, notrans): j > i;
      // (upper, trans): j < i; (lower, notrans): j < i; (lower, trans): j > i.
      const bool live = notrans ? (upper ? bj > bi : bj < bi)
                                : (upper ? bj < bi : bj > bi);
      if (!live) continue;
      int j0, js;
      blk(bj, j0, js);
      ConstMatrixViewT<T> Tij = notrans ? Tm.block(i0, j0, is, js)
                                        : Tm.block(j0, i0, js, is);
      gemm<T>(trans, Trans::No, T(1), Tij, W.block(j0, 0, js, W.n), T(1), Wi);
    }
  }
}

template <class T>
void trmm_right(UpLo uplo, Trans trans, Diag diag, MatrixViewT<T> W,
                ConstMatrixViewT<T> Tm) {
  TBSVD_CHECK(Tm.m == Tm.n && Tm.m == W.n, "trmm_right shape mismatch");
  const int k = Tm.m;
  if (k <= kTrmmBlock || W.m == 0) {
    trmm_right_small<T>(uplo, trans, diag, W, Tm);
    return;
  }
  const int nblk = (k + kTrmmBlock - 1) / kTrmmBlock;
  auto blk = [&](int b, int& b0, int& bs) {
    b0 = b * kTrmmBlock;
    bs = std::min(kTrmmBlock, k - b0);
  };
  const bool upper = (uplo == UpLo::Upper);
  const bool notrans = (trans == Trans::No);
  // Result col-block j reads W col-blocks i where op(T)(i, j) is nonzero:
  // (upper, notrans): i < j → descending; (upper, trans): i > j → ascending;
  // (lower, notrans): i > j → ascending; (lower, trans): i < j → descending.
  const bool ascending = (upper != notrans);
  for (int s = 0; s < nblk; ++s) {
    const int bj = ascending ? s : nblk - 1 - s;
    int j0, js;
    blk(bj, j0, js);
    MatrixViewT<T> Wj = W.block(0, j0, W.m, js);
    trmm_right_small<T>(uplo, trans, diag, Wj, Tm.block(j0, j0, js, js));
    for (int bi = 0; bi < nblk; ++bi) {
      if (bi == bj) continue;
      const bool live = notrans ? (upper ? bi < bj : bi > bj)
                                : (upper ? bi > bj : bi < bj);
      if (!live) continue;
      int i0, is;
      blk(bi, i0, is);
      ConstMatrixViewT<T> Tij = notrans ? Tm.block(i0, j0, is, js)
                                        : Tm.block(j0, i0, js, is);
      gemm<T>(Trans::No, trans, T(1), W.block(0, i0, W.m, is), Tij, T(1), Wj);
    }
  }
}

template <class T>
void trsm_left(UpLo uplo, Trans trans, Diag diag, ConstMatrixViewT<T> A,
               MatrixViewT<T> B) {
  TBSVD_CHECK(A.m == A.n && A.m == B.m, "trsm_left shape mismatch");
  const int n = A.m;
  const bool unit = (diag == Diag::Unit);
  for (int c = 0; c < B.n; ++c) {
    T* x = B.col(c);
    if (trans == Trans::No) {
      if (uplo == UpLo::Upper) {
        // Back-substitution, column-oriented: once x[j] is final, retire
        // column j of A with one axpy over the rows above it.
        for (int j = n - 1; j >= 0; --j) {
          if (!unit) x[j] /= A(j, j);
          if (j > 0) axpy<T>(j, -x[j], A.col(j), 1, x, 1);
        }
      } else {
        for (int j = 0; j < n; ++j) {
          if (!unit) x[j] /= A(j, j);
          if (j + 1 < n) axpy<T>(n - j - 1, -x[j], A.col(j) + j + 1, 1,
                                 x + j + 1, 1);
        }
      }
    } else {
      if (uplo == UpLo::Upper) {
        // A^T is lower triangular: forward substitution, dot over the
        // already-solved prefix stored contiguously in column j.
        for (int j = 0; j < n; ++j) {
          T s = x[j] - dot<T>(j, A.col(j), 1, x, 1);
          x[j] = unit ? s : s / A(j, j);
        }
      } else {
        for (int j = n - 1; j >= 0; --j) {
          T s = x[j] - dot<T>(n - j - 1, A.col(j) + j + 1, 1, x + j + 1, 1);
          x[j] = unit ? s : s / A(j, j);
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Explicit instantiations: float and double are the library's supported
// scalar types; keeping the definitions here keeps rebuilds fast and the
// ABI surface explicit.
// ---------------------------------------------------------------------------

#define TBSVD_INSTANTIATE_BLAS(T)                                             \
  template void gemm<T>(Trans, Trans, T, ConstMatrixViewT<T>,                 \
                        ConstMatrixViewT<T>, T, MatrixViewT<T>);              \
  template void gemm_trap<T>(Trans, Trans, T, ConstMatrixViewT<T>,            \
                             ConstMatrixViewT<T>, T, MatrixViewT<T>,          \
                             TrapSide, UpLo, int);                            \
  template void gemv<T>(Trans, T, ConstMatrixViewT<T>, const T*, int, T, T*,  \
                        int);                                                 \
  template T dot<T>(int, const T*, int, const T*, int) noexcept;              \
  template T nrm2<T>(int, const T*, int) noexcept;                            \
  template void axpy<T>(int, T, const T*, int, T*, int) noexcept;             \
  template void scal<T>(int, T, T*, int) noexcept;                            \
  template void trmm_left<T>(UpLo, Trans, Diag, ConstMatrixViewT<T>,          \
                             MatrixViewT<T>);                                 \
  template void trsm_left<T>(UpLo, Trans, Diag, ConstMatrixViewT<T>,          \
                             MatrixViewT<T>);                                 \
  template void trmm_right<T>(UpLo, Trans, Diag, MatrixViewT<T>,              \
                              ConstMatrixViewT<T>);                           \
  template void copy<T>(ConstMatrixViewT<T>, MatrixViewT<T>);                 \
  template void transpose<T>(ConstMatrixViewT<T>, MatrixViewT<T>);            \
  template void sub_inplace<T>(MatrixViewT<T>, ConstMatrixViewT<T>);          \
  template void sub_transposed<T>(MatrixViewT<T>, ConstMatrixViewT<T>);       \
  template double norm_fro<T>(ConstMatrixViewT<T>) noexcept;                  \
  template double norm_max<T>(ConstMatrixViewT<T>) noexcept;                  \
  template double orthogonality_error<T>(ConstMatrixViewT<T>);

TBSVD_INSTANTIATE_BLAS(float)
TBSVD_INSTANTIATE_BLAS(double)

#undef TBSVD_INSTANTIATE_BLAS

}  // namespace tbsvd
