// Householder reflector generation and application (LAPACK larfg / larf /
// larft / larfb equivalents, forward column-wise storage only), templated
// over the scalar type T in {float, double}.
//
// Conventions match LAPACK: H = I - tau * v * v^T with v(0) = 1. Block
// reflectors are H_1 H_2 ... H_k = I - V T V^T with V unit lower trapezoidal
// and T upper triangular.
#pragma once

#include "lac/blas.hpp"
#include "lac/dense.hpp"

namespace tbsvd {

/// Generate an elementary reflector annihilating the n-1 entries of x below
/// alpha: on exit alpha = beta (the surviving value), x holds v(1:n-1), and
/// the return value is tau. Handles the n == 1 and zero-tail cases (tau = 0).
/// The safmin rescue loop uses numeric_limits<T>, so float reflectors get
/// float-sized underflow protection.
template <class T>
T larfg(int n, T& alpha, T* x, int incx) noexcept;

/// C := (I - tau v v^T) C. v has length C.m with v[0] == 1 stored by caller.
/// Single pass: each column's dot with v and its update run back to back,
/// so no workspace is needed.
template <class T>
void larf_left(T tau, const T* v, int incv, MatrixViewT<T> C);

/// C := C (I - tau v v^T). v has length C.n with v[0] == 1 stored by caller.
/// Runs over 32-row slabs of C (w := C v, then C -= tau w v^T per slab) with
/// an on-stack w, so no workspace is needed; each entry's arithmetic does not
/// depend on the slab height.
template <class T>
void larf_right(T tau, const T* v, int incv, MatrixViewT<T> C);

/// Form the T factor of a block reflector from k reflectors stored forward
/// column-wise in V (n x k, unit lower trapezoidal; entries on/above the
/// diagonal are not referenced) with scalars tau. T is k x k upper
/// triangular on exit (strictly-lower part untouched).
template <class T>
void larft(ConstMatrixViewT<T> V, const T* tau, MatrixViewT<T> Tm);

enum class Side { Left, Right };

/// Apply a block reflector: C := op(I - V T V^T) C (Side::Left) or
/// C := C op(I - V T V^T) (Side::Right), where op is transpose when
/// trans == Trans::Yes. V is unit lower trapezoidal as produced by larft.
template <class T>
void larfb(Side side, Trans trans, ConstMatrixViewT<T> V,
           ConstMatrixViewT<T> Tm, MatrixViewT<T> C, MatrixT<T>& work);

/// Left-side larfb with a transposed (C.n x k) workspace: mathematically
/// identical to larfb(Side::Left, ...), but every triangular product runs
/// through the axpy-ordered trmm_right sweeps, whose unit-stride columns
/// vectorize over the long dimension. The column-at-a-time trmm_left
/// sweeps are store-to-load dependency bound at the small k these applies
/// use (k = ib..nb), which caps the plain larfb well below gemm speed.
/// Used by the recursive panel path and the QR-side tile kernels.
template <class T>
void larfb_left_t(Trans trans, ConstMatrixViewT<T> V, ConstMatrixViewT<T> Tm,
                  MatrixViewT<T> C, MatrixT<T>& work);

/// Right-side block apply for row-stored reflectors (the GELQT family):
/// C := C op(Q) with V = [V1u | V2] (k x n, unit upper trapezoidal rows)
/// and T from gelqf_rec/gelqt. trans == Trans::Yes applies the reflectors
/// forward (H_1 first, the factorization direction), Trans::No backward.
/// Shared by gelqt's trailing update, unmlq and gelqf_rec's recursion.
template <class T>
void larfb_right_rows(Trans trans, ConstMatrixViewT<T> V,
                      ConstMatrixViewT<T> Tm, MatrixViewT<T> C,
                      MatrixT<T>& work);

/// Apply a TS-structured block reflector (identity top/left part, dense
/// tails in V) to a pair of blocks, through the fast workspace
/// orientation:
///   Side::Left : [C1; C2] := op(Q) [C1; C2], V (m2 x k) column tails,
///                C1 (k x nc), C2 (m2 x nc); W is held transposed.
///   Side::Right: [C1 | C2] := [C1 | C2] op(Q), V (k x m2) row tails,
///                C1 (mc x k), C2 (mc x m2).
/// trans == Trans::Yes applies the reflectors forward as above. Shared by
/// the TSQRT/TSLQT trailing updates, TSMQR/TSMLQ panels and the TS
/// recursion.
template <class T>
void larfb_ts(Side side, Trans trans, ConstMatrixViewT<T> V,
              ConstMatrixViewT<T> Tm, MatrixViewT<T> C1, MatrixViewT<T> C2,
              MatrixT<T>& work);

/// Apply a TT-structured block reflector (identity part in the pivot
/// triangle, trapezoidal tails in V) to a pair of blocks through the
/// support-masked BLAS3 path (gemm_trap), fast workspace orientation:
///   Side::Left : [C1; C2] := op(Q) [C1; C2], V (off+k x k) upper
///                trapezoid — column c has support rows 0..off+c; C1
///                (k x nc), C2 (off+k x nc); W is held transposed.
///   Side::Right: [C1 | C2] := [C1 | C2] op(Q), V (k x off+k) lower
///                trapezoid — row r has support columns 0..off+r; C1
///                (mc x k), C2 (mc x off+k).
/// Storage outside V's trapezoidal support is neither read nor written.
/// trans == Trans::Yes applies the reflectors forward (H_1 first, the
/// factorization direction). Shared by the TTQRT/TTLQT trailing updates,
/// the TTMQR/TTMLQ panels and the TT recursion's half-panel applies.
template <class T>
void larfb_tt(Side side, Trans trans, ConstMatrixViewT<T> V,
              ConstMatrixViewT<T> Tm, MatrixViewT<T> C1, MatrixViewT<T> C2,
              int off, MatrixT<T>& work);

}  // namespace tbsvd
