// Shared randomized-test infrastructure for the kernel / lac test suites:
// seeded matrix generators (including ill-conditioned, rank-deficient and
// graded inputs for robustness sweeps), backward-error and orthogonality
// checkers with scaled tolerances, and poisoned-storage helpers for the
// kernels whose contracts promise not to touch out-of-support storage.
//
// Everything is deterministic from the caller's seed (the generators flow
// through common/rng.hpp), so a failure reproduces from the test name alone.
//
// The helpers are templated over the scalar type T in {float, double} with
// T = double as the default, so the historical double-only call sites
// compile unchanged. Tolerances are expressed as multiples of
// numeric_limits<T>::epsilon() via tol_eps<T>(k): the double defaults
// reproduce the historical absolute constants (45 eps ~ 1e-14 per dim),
// and the same k gives the float tier its meaningful bound (~5e-6 scale)
// instead of an impossible one.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/rng.hpp"
#include "lac/blas.hpp"
#include "lac/dense.hpp"
#include "tile/matrix_gen.hpp"

namespace tbsvd::test {

// ------------------------------------------------------------- tolerances ---

/// k units of T's machine epsilon. The harness' standard way to write a
/// precision-independent tolerance: tol_eps<double>(45) ~ 1e-14 (the
/// historical per-dimension orthogonality bound), tol_eps<float>(45) ~
/// 5.4e-6 — the same backward-error budget expressed in the working
/// precision.
template <class T = double>
constexpr double tol_eps(double k) {
  return k * static_cast<double>(std::numeric_limits<T>::epsilon());
}

/// Default per-dimension tolerance for orthogonality / WY checks: 45 eps_T.
template <class T = double>
constexpr double default_tol_per_dim() {
  return tol_eps<T>(45.0);
}

/// Scaled blocked-vs-reference conformance tolerance: both paths compute
/// the same reflector sequence, so they agree to O(eps) on
/// well-conditioned inputs. 4500 eps_T ~ 1e-12 for double (the historical
/// constant), ~5.4e-4 for float.
template <class T = double>
double conformance_tol(ConstMatrixViewT<T> ref) {
  return tol_eps<T>(4500.0) * (1.0 + norm_fro<T>(ref));
}

// ---------------------------------------------------------------- random ---

template <class T = double>
MatrixT<T> random_matrix(int m, int n, std::uint64_t seed) {
  Rng rng(seed);
  MatrixT<T> A(m, n);
  for (int j = 0; j < n; ++j)
    for (int i = 0; i < m; ++i) A(i, j) = static_cast<T>(rng.normal());
  return A;
}

/// Random n x n with zeros strictly below the diagonal.
template <class T = double>
MatrixT<T> random_upper(int n, std::uint64_t seed) {
  MatrixT<T> A = random_matrix<T>(n, n, seed);
  for (int j = 0; j < n; ++j)
    for (int i = j + 1; i < n; ++i) A(i, j) = T(0);
  return A;
}

/// Random n x n with zeros strictly above the diagonal.
template <class T = double>
MatrixT<T> random_lower(int n, std::uint64_t seed) {
  MatrixT<T> A = random_matrix<T>(n, n, seed);
  for (int j = 0; j < n; ++j)
    for (int i = 0; i < j; ++i) A(i, j) = T(0);
  return A;
}

template <class T>
MatrixT<T> transposed(ConstMatrixViewT<T> A) {
  MatrixT<T> B(A.n, A.m);
  transpose<T>(A, B.view());
  return B;
}

/// Dense reference multiply: op(A) * op(B).
template <class T>
MatrixT<T> mul(ConstMatrixViewT<T> A, ConstMatrixViewT<T> B,
               Trans ta = Trans::No, Trans tb = Trans::No) {
  const int m = (ta == Trans::No) ? A.m : A.n;
  const int n = (tb == Trans::No) ? B.n : B.m;
  MatrixT<T> C(m, n);
  gemm<T>(ta, tb, T(1), A, B, T(0), C.view());
  return C;
}

// ------------------------------------------------------------ structured ---

/// Matrix families for robustness sweeps. Gaussian is the default for
/// blocked-vs-reference conformance (both paths see the same rounding
/// regime); the other three stress the factorizations where reflector
/// scaling, tau == 0 short-circuits and column-norm underflow live.
enum class MatKind {
  Gaussian,       ///< i.i.d. standard normal entries
  IllConditioned, ///< prescribed geometric spectrum, cond 1e12
  RankDeficient,  ///< prescribed spectrum with trailing zero singular values
  Graded,         ///< Gaussian with rows scaled 10^(-8 i / (m-1))
};

inline Matrix make_matrix(int m, int n, MatKind kind, std::uint64_t seed) {
  switch (kind) {
    case MatKind::Gaussian:
      return random_matrix(m, n, seed);
    case MatKind::IllConditioned:
    case MatKind::RankDeficient: {
      const int k = std::min(m, n);
      std::vector<double> sv(k);
      for (int i = 0; i < k; ++i) {
        sv[i] = (k == 1) ? 1.0 : std::pow(1e-12, double(i) / double(k - 1));
      }
      if (kind == MatKind::RankDeficient) {
        for (int i = k / 2; i < k; ++i) sv[i] = 0.0;
        if (k == 1) sv[0] = 0.0;
      }
      // generate_matrix_with_sv wants m >= n; mirror through a transpose
      // for wide shapes.
      if (m >= n) return generate_matrix_with_sv(m, n, sv, seed);
      Matrix At = generate_matrix_with_sv(n, m, sv, seed);
      return transposed(At.cview());
    }
    case MatKind::Graded: {
      Matrix A = random_matrix(m, n, seed);
      for (int i = 0; i < m; ++i) {
        const double s =
            (m == 1) ? 1.0 : std::pow(10.0, -8.0 * double(i) / double(m - 1));
        for (int j = 0; j < n; ++j) A(i, j) *= s;
      }
      return A;
    }
  }
  return Matrix();
}

inline const char* kind_name(MatKind k) {
  switch (k) {
    case MatKind::Gaussian: return "Gaussian";
    case MatKind::IllConditioned: return "IllConditioned";
    case MatKind::RankDeficient: return "RankDeficient";
    case MatKind::Graded: return "Graded";
  }
  return "?";
}

// -------------------------------------------------------------- checkers ---

/// ||A0 - Q R||_F / ||A0||_F (or / 1 when A0 == 0).
template <class T>
double backward_error(ConstMatrixViewT<T> A0, ConstMatrixViewT<T> Q,
                      ConstMatrixViewT<T> R) {
  MatrixT<T> QR = mul<T>(Q, R);
  double err2 = 0.0;
  for (int j = 0; j < A0.n; ++j)
    for (int i = 0; i < A0.m; ++i) {
      const double d = double(QR(i, j)) - double(A0(i, j));
      err2 += d * d;
    }
  const double scale = norm_fro<T>(A0);
  return std::sqrt(err2) / (scale > 0.0 ? scale : 1.0);
}

/// Scaled orthogonality check: ||I - Q^T Q||_F <= tol_per_dim * max(m, n).
/// The default bound is 45 eps_T per dimension (~1e-14 for double).
template <class T = double>
void expect_orthogonal(ConstMatrixViewT<T> Q,
                       double tol_per_dim = default_tol_per_dim<T>(),
                       const char* what = "Q") {
  EXPECT_LT(orthogonality_error<T>(Q), tol_per_dim * std::max(Q.m, Q.n))
      << what << " not orthogonal";
}

/// Elementwise comparison with one scaled tolerance for the whole block.
template <class T>
void expect_matrix_near(ConstMatrixViewT<T> got, ConstMatrixViewT<T> want,
                        double tol, const char* what = "matrix") {
  ASSERT_EQ(got.m, want.m) << what;
  ASSERT_EQ(got.n, want.n) << what;
  for (int j = 0; j < got.n; ++j)
    for (int i = 0; i < got.m; ++i)
      EXPECT_NEAR(double(got(i, j)), double(want(i, j)), tol)
          << what << " at (" << i << "," << j << ")";
}

/// Singular values (both descending) at a per-value relative bound:
/// |got_i - ref_i| <= k * n * eps_T * ref_i. Reference values at or below
/// k * n * eps_T * ref_0 are zeros up to the oracle's noise and are
/// checked against that bound absolutely.
template <class T>
void expect_relative_sv(const std::vector<T>& got,
                        const std::vector<double>& ref, double k) {
  ASSERT_EQ(got.size(), ref.size());
  if (ref.empty()) return;
  const double rel = k * static_cast<double>(ref.size()) *
                     static_cast<double>(std::numeric_limits<T>::epsilon());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    const double g = static_cast<double>(got[i]);
    const double scale = ref[i] > rel * ref[0] ? ref[i] : ref[0];
    EXPECT_LE(std::fabs(g - ref[i]), rel * scale)
        << "sv " << i << ": " << g << " vs " << ref[i];
  }
}

// ---------------------------------------------------------- WY invariants ---
//
// Direct validation of a factor kernel's compact-WY output, shared by all
// six families (GE/TS/TT x QR/LQ). The callers build the *explicit* m x k
// reflector matrix V (unit entries and identity blocks filled in, storage
// outside a trapezoidal support zeroed) with the explicit_v_* helpers
// below; the checkers then consume only the in-support upper triangle of
// the stored ib x k T panels, so a kernel that pollutes the unused lower
// part of a T block cannot pass by accident.

/// In-support upper triangle of a stored panel T block, densified k x k.
template <class T>
MatrixT<T> upper_triangle_of(ConstMatrixViewT<T> Tm, int k) {
  MatrixT<T> Tp(k, k);
  for (int j = 0; j < k; ++j)
    for (int i = 0; i <= j; ++i) Tp(i, j) = Tm(i, j);
  return Tp;
}

/// Defining identity of a compact-WY block reflector: Q = I - V Tp V^T is
/// orthogonal iff Tp (V^T V) Tp^T == Tp + Tp^T. Returns the violation
/// scaled by the Gram's magnitude, so a tol_per_dim * m bound is uniform
/// across shapes.
template <class T>
double wy_t_error(ConstMatrixViewT<T> V, ConstMatrixViewT<T> Tstored) {
  const int k = V.n;
  if (k == 0) return 0.0;
  MatrixT<T> Tp = upper_triangle_of<T>(Tstored, k);
  MatrixT<T> G = mul<T>(V, V, Trans::Yes, Trans::No);
  MatrixT<T> TGT = mul<T>(mul<T>(Tp.cview(), G.cview()).cview(), Tp.cview(),
                          Trans::No, Trans::Yes);
  double err2 = 0.0;
  for (int j = 0; j < k; ++j)
    for (int i = 0; i < k; ++i) {
      const double d =
          double(TGT(i, j)) - double(Tp(i, j)) - double(Tp(j, i));
      err2 += d * d;
    }
  return std::sqrt(err2) / (1.0 + norm_fro<T>(G.cview()));
}

/// Panel-by-panel compact-WY validation of a factor kernel's (V, T) pair:
/// every stored tau (the T diagonals) must lie in the larfg range
/// {0} U [1, 2] to 4500 eps_T, every panel triangle must satisfy the WY
/// identity, and the accumulated Q = prod_p (I - V_p T_p V_p^T) must be
/// orthogonal to tol_per_dim * m. V is the explicit m x k reflector
/// matrix; T is the kernel's ib x k panel-triangle storage.
template <class T>
void expect_wy_invariants(ConstMatrixViewT<T> V, ConstMatrixViewT<T> Tm,
                          int ib, double tol_per_dim, const char* what) {
  const int m = V.m, k = V.n;
  const double tau_tol = tol_eps<T>(4500.0);
  MatrixT<T> Q = MatrixT<T>::identity(m);
  for (int j0 = 0; j0 < k; j0 += ib) {
    const int kb = std::min(ib, k - j0);
    ConstMatrixViewT<T> Vp = V.block(0, j0, m, kb);
    ConstMatrixViewT<T> Ts = Tm.block(0, j0, kb, kb);
    for (int l = 0; l < kb; ++l) {
      const double tau = double(Ts(l, l));
      EXPECT_TRUE(tau == 0.0 ||
                  (tau >= 1.0 - tau_tol && tau <= 2.0 + tau_tol))
          << what << ": tau " << tau << " outside {0} U [1,2] at panel " << j0
          << " col " << l;
    }
    EXPECT_LT(wy_t_error<T>(Vp, Ts), tol_per_dim * m)
        << what << ": WY T identity violated in panel " << j0;
    // Q := Q (I - Vp Tp Vp^T), reading only the in-support triangle.
    MatrixT<T> Tp = upper_triangle_of<T>(Ts, kb);
    MatrixT<T> W = mul<T>(mul<T>(Q.cview(), Vp).cview(), Tp.cview());
    gemm<T>(Trans::No, Trans::Yes, T(-1), W.cview(), Vp, T(1), Q.view());
  }
  EXPECT_LT(orthogonality_error<T>(Q.cview()), tol_per_dim * m)
      << what << ": accumulated block reflector not orthogonal";
}

/// Explicit reflector columns of a GEQRT-factored tile: unit diagonal,
/// strictly-below-diagonal entries of A, zeros above.
template <class T>
MatrixT<T> explicit_v_ge(ConstMatrixViewT<T> A) {
  const int m = A.m, k = std::min(A.m, A.n);
  MatrixT<T> V(m, k);
  for (int j = 0; j < k; ++j) {
    V(j, j) = T(1);
    for (int i = j + 1; i < m; ++i) V(i, j) = A(i, j);
  }
  return V;
}

/// GELQT mirror: row reflectors returned transposed (n x k columns), so
/// the same column-convention checkers apply.
template <class T>
MatrixT<T> explicit_v_ge_rows(ConstMatrixViewT<T> A) {
  const int n = A.n, k = std::min(A.m, A.n);
  MatrixT<T> V(n, k);
  for (int i = 0; i < k; ++i) {
    V(i, i) = T(1);
    for (int j = i + 1; j < n; ++j) V(j, i) = A(i, j);
  }
  return V;
}

/// TSQRT pair [I_k; V2] with V2 the dense m2 x k tail tile. For TSLQT pass
/// the transposed row tile.
template <class T>
MatrixT<T> explicit_v_ts(int k, ConstMatrixViewT<T> V2) {
  MatrixT<T> V(k + V2.m, k);
  for (int j = 0; j < k; ++j) {
    V(j, j) = T(1);
    for (int i = 0; i < V2.m; ++i) V(k + i, j) = V2(i, j);
  }
  return V;
}

/// TTQRT pair [I_k; V2|support] with V2 the (off + k) x k trapezoidal tail
/// tile: column j keeps its support rows 0..off+j, anything below
/// (possibly poisoned storage) is zeroed. off = 0 is the whole-tile TTQRT
/// contract; a nonzero off matches a ttqrf_rec panel at that column
/// offset. For TTLQT pass the transposed row tile.
template <class T>
MatrixT<T> explicit_v_tt(ConstMatrixViewT<T> V2, int off = 0) {
  const int k = V2.n;
  MatrixT<T> V(k + V2.m, k);
  for (int j = 0; j < k; ++j) {
    V(j, j) = T(1);
    for (int i = 0; i <= off + j && i < V2.m; ++i) V(k + i, j) = V2(i, j);
  }
  return V;
}

// ---------------------------------------------------------------- poison ---

/// Sentinel written into storage a kernel must neither read nor write.
/// Representable exactly enough in both float and double; the poison
/// helpers round-trip it through T so the bitwise re-check is consistent.
inline constexpr double kPoison = 1e30;

/// Poison the storage strictly below the diagonal (the TTQRT V2 contract).
template <class T>
void poison_below_diag(MatrixViewT<T> A) {
  for (int j = 0; j < A.n; ++j)
    for (int i = j + 1; i < A.m; ++i) A(i, j) = static_cast<T>(kPoison);
}

/// Poison the storage strictly above the diagonal (the TTLQT V2 contract).
template <class T>
void poison_above_diag(MatrixViewT<T> A) {
  for (int j = 0; j < A.n; ++j)
    for (int i = 0; i < std::min(j, A.m); ++i)
      A(i, j) = static_cast<T>(kPoison);
}

/// Every below-diagonal entry must still be bitwise poison.
template <class T>
void expect_poison_below_diag(ConstMatrixViewT<T> A, const char* what = "A") {
  for (int j = 0; j < A.n; ++j)
    for (int i = j + 1; i < A.m; ++i)
      EXPECT_EQ(A(i, j), static_cast<T>(kPoison))
          << what << ": poison clobbered at (" << i << "," << j << ")";
}

/// Every above-diagonal entry must still be bitwise poison.
template <class T>
void expect_poison_above_diag(ConstMatrixViewT<T> A, const char* what = "A") {
  for (int j = 0; j < A.n; ++j)
    for (int i = 0; i < std::min(j, A.m); ++i)
      EXPECT_EQ(A(i, j), static_cast<T>(kPoison))
          << what << ": poison clobbered at (" << i << "," << j << ")";
}

}  // namespace tbsvd::test
