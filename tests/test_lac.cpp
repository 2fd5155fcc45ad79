// Unit tests for the scalar linear-algebra substrate: BLAS-like ops,
// Householder machinery, reference QR/LQ, Jacobi SVD oracle, Givens.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "lac/blas.hpp"
#include "lac/dense.hpp"
#include "lac/householder.hpp"
#include "lac/jacobi_svd.hpp"
#include "lac/qr_ref.hpp"
#include "test_harness.hpp"

namespace tbsvd {
namespace {

using test::mul;
using test::random_matrix;

constexpr double kTol = 1e-12;

TEST(Rng, DeterministicAndBounded) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
  Rng c(5);
  for (int i = 0; i < 1000; ++i) {
    const double u = c.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    EXPECT_LT(c.below(17), 17u);
  }
}

TEST(Rng, NormalMoments) {
  Rng rng(99);
  const int n = 200000;
  double s = 0, s2 = 0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    s += x;
    s2 += x * x;
  }
  EXPECT_NEAR(s / n, 0.0, 0.02);
  EXPECT_NEAR(s2 / n, 1.0, 0.02);
}

TEST(Blas, GemmAllTransCombos) {
  const int m = 13, n = 9, k = 7;
  Matrix A = random_matrix(m, k, 1), At(k, m);
  Matrix B = random_matrix(k, n, 2), Bt(n, k);
  transpose(A.cview(), At.view());
  transpose(B.cview(), Bt.view());
  Matrix Cref = mul(A.cview(), B.cview());

  struct Case {
    Trans ta, tb;
    const Matrix *a, *b;
  };
  const Case cases[] = {{Trans::No, Trans::No, &A, &B},
                        {Trans::Yes, Trans::No, &At, &B},
                        {Trans::No, Trans::Yes, &A, &Bt},
                        {Trans::Yes, Trans::Yes, &At, &Bt}};
  for (const auto& c : cases) {
    Matrix C(m, n);
    gemm(c.ta, c.tb, 1.0, c.a->cview(), c.b->cview(), 0.0, C.view());
    for (int j = 0; j < n; ++j)
      for (int i = 0; i < m; ++i) EXPECT_NEAR(C(i, j), Cref(i, j), kTol);
  }
}

TEST(Blas, GemmAlphaBeta) {
  const int m = 6, n = 5, k = 4;
  Matrix A = random_matrix(m, k, 3), B = random_matrix(k, n, 4);
  Matrix C = random_matrix(m, n, 5);
  Matrix C2 = C;
  gemm(Trans::No, Trans::No, 2.5, A.cview(), B.cview(), -1.5, C.view());
  Matrix AB = mul(A.cview(), B.cview());
  for (int j = 0; j < n; ++j)
    for (int i = 0; i < m; ++i)
      EXPECT_NEAR(C(i, j), 2.5 * AB(i, j) - 1.5 * C2(i, j), kTol);
}

TEST(Blas, Nrm2RobustToScale) {
  std::vector<double> x = {3e-300, 4e-300};
  EXPECT_NEAR(nrm2(2, x.data(), 1), 5e-300, 1e-315);
  std::vector<double> y = {3e300, 4e300};
  EXPECT_NEAR(nrm2(2, y.data(), 1) / 5e300, 1.0, 1e-12);

  // Stride 3 (a row of a band or a column-major matrix) takes the same
  // paths as the contiguous copy — the chained fast path in range, the
  // scaled loop outside it — so the norms agree bitwise. The gaps hold
  // values that would change the result if they were read.
  const auto strided = [](const std::vector<double>& x) {
    const int n = static_cast<int>(x.size());
    std::vector<double> xs(3 * static_cast<std::size_t>(n), 1e300);
    for (int i = 0; i < n; ++i) xs[3 * i] = x[i];
    const double contiguous = nrm2(n, x.data(), 1);
    const double got = nrm2(n, xs.data(), 3);
    if (std::isnan(contiguous)) {
      EXPECT_TRUE(std::isnan(got));
    } else {
      EXPECT_EQ(got, contiguous);
    }
    return got;
  };
  std::vector<double> mid(11);
  Rng rng(86);
  for (double& v : mid) v = rng.uniform(-1.0, 1.0);
  strided(mid);
  std::vector<double> big = mid, tiny = mid;
  for (double& v : big) v *= 1e200;
  for (double& v : tiny) v *= 1e-200;
  EXPECT_NEAR(strided(big) / (nrm2(11, mid.data(), 1) * 1e200), 1.0, 1e-14);
  EXPECT_NEAR(strided(tiny) / (nrm2(11, mid.data(), 1) * 1e-200), 1.0, 1e-14);
  EXPECT_GT(strided({4.9e-324, -1e-310, 2e-315, 0.0, 3e-320, -7e-309}), 0.0);
  EXPECT_TRUE(std::isnan(
      strided({1.0, 2.0, std::numeric_limits<double>::quiet_NaN(), 3.0, 4.0})));
}

TEST(Blas, TrmmLeftAgainstGemm) {
  const int k = 11, n = 6;
  Matrix Tfull = random_matrix(k, k, 8);
  for (const auto uplo : {UpLo::Upper, UpLo::Lower}) {
    for (const auto trans : {Trans::No, Trans::Yes}) {
      for (const auto diag : {Diag::Unit, Diag::NonUnit}) {
        // Build the dense triangular operand.
        Matrix Tri(k, k);
        for (int j = 0; j < k; ++j) {
          for (int i = 0; i < k; ++i) {
            const bool keep = (uplo == UpLo::Upper) ? (i <= j) : (i >= j);
            Tri(i, j) = keep ? Tfull(i, j) : 0.0;
          }
          if (diag == Diag::Unit) Tri(j, j) = 1.0;
        }
        Matrix W = random_matrix(k, n, 9);
        Matrix Wref = mul(Tri.cview(), W.cview(), trans, Trans::No);
        trmm_left(uplo, trans, diag, Tfull.cview(), W.view());
        for (int j = 0; j < n; ++j)
          for (int i = 0; i < k; ++i) EXPECT_NEAR(W(i, j), Wref(i, j), kTol);
      }
    }
  }
}

TEST(Blas, TrmmRightAgainstGemm) {
  const int m = 7, k = 10;
  Matrix Tfull = random_matrix(k, k, 18);
  for (const auto uplo : {UpLo::Upper, UpLo::Lower}) {
    for (const auto trans : {Trans::No, Trans::Yes}) {
      for (const auto diag : {Diag::Unit, Diag::NonUnit}) {
        Matrix Tri(k, k);
        for (int j = 0; j < k; ++j) {
          for (int i = 0; i < k; ++i) {
            const bool keep = (uplo == UpLo::Upper) ? (i <= j) : (i >= j);
            Tri(i, j) = keep ? Tfull(i, j) : 0.0;
          }
          if (diag == Diag::Unit) Tri(j, j) = 1.0;
        }
        Matrix W = random_matrix(m, k, 19);
        Matrix Wref = mul(W.cview(), Tri.cview(), Trans::No, trans);
        trmm_right(uplo, trans, diag, W.view(), Tfull.cview());
        for (int j = 0; j < k; ++j)
          for (int i = 0; i < m; ++i) EXPECT_NEAR(W(i, j), Wref(i, j), kTol);
      }
    }
  }
}

TEST(Blas, TrsmLeftRoundTripsTrmm) {
  // trsm_left must invert trmm_left for every uplo x trans x diag combo:
  // B := op(Tri) * X, solve op(Tri) X' = B, X' == X up to conditioning.
  const int k = 11, n = 5;
  Matrix Tfull = random_matrix(k, k, 28);
  for (int j = 0; j < k; ++j) Tfull(j, j) += 4.0;  // keep well-conditioned
  for (const auto uplo : {UpLo::Upper, UpLo::Lower}) {
    for (const auto trans : {Trans::No, Trans::Yes}) {
      for (const auto diag : {Diag::Unit, Diag::NonUnit}) {
        Matrix Tri(k, k);
        for (int j = 0; j < k; ++j) {
          for (int i = 0; i < k; ++i) {
            const bool keep = (uplo == UpLo::Upper) ? (i <= j) : (i >= j);
            Tri(i, j) = keep ? Tfull(i, j) : 0.0;
          }
          if (diag == Diag::Unit) Tri(j, j) = 1.0;
        }
        Matrix X = random_matrix(k, n, 29);
        Matrix B = mul(Tri.cview(), X.cview(), trans, Trans::No);
        trsm_left(uplo, trans, diag, Tfull.cview(), B.view());
        for (int j = 0; j < n; ++j)
          for (int i = 0; i < k; ++i)
            EXPECT_NEAR(B(i, j), X(i, j), 1e-11)
                << "uplo=" << (uplo == UpLo::Upper) << " trans="
                << (trans == Trans::Yes) << " diag=" << (diag == Diag::Unit);
      }
    }
  }
}

TEST(Blas, TrsmLeftSingleElement) {
  double a = 2.0, b = 6.0;
  ConstMatrixView A(&a, 1, 1, 1);
  MatrixView B(&b, 1, 1, 1);
  trsm_left(UpLo::Upper, Trans::No, Diag::NonUnit, A, B);
  EXPECT_DOUBLE_EQ(b, 3.0);
  trsm_left(UpLo::Lower, Trans::Yes, Diag::Unit, A, B);
  EXPECT_DOUBLE_EQ(b, 3.0);  // unit diagonal: solve is the identity at k=1
}

TEST(Householder, LarfgAnnihilates) {
  Rng rng(11);
  for (int n : {1, 2, 3, 10, 50}) {
    std::vector<double> x(n);
    for (auto& v : x) v = rng.normal();
    const double norm_before = nrm2(n, x.data(), 1);
    double alpha = x[0];
    std::vector<double> tail(x.begin() + 1, x.end());
    const double tau =
        larfg(n, alpha, tail.empty() ? x.data() : tail.data(), 1);
    // Applying H to the original vector must give (alpha, 0, ..., 0):
    // reconstruct H x = x - tau v (v^T x).
    std::vector<double> v(n);
    v[0] = 1.0;
    for (int i = 1; i < n; ++i) v[i] = tail[i - 1];
    double vtx = 0.0;
    for (int i = 0; i < n; ++i) vtx += v[i] * x[i];
    std::vector<double> hx(n);
    for (int i = 0; i < n; ++i) hx[i] = x[i] - tau * v[i] * vtx;
    EXPECT_NEAR(hx[0], alpha, 1e-12);
    for (int i = 1; i < n; ++i) EXPECT_NEAR(hx[i], 0.0, 1e-12);
    // Norm preservation.
    EXPECT_NEAR(std::fabs(alpha), norm_before, 1e-12 * (1 + norm_before));
  }
}

TEST(Householder, LarftLarfbMatchSequentialApplication) {
  const int m = 20, k = 6, n = 9;
  Matrix A = random_matrix(m, k, 21);
  std::vector<double> tau(k);
  geqr2(A.view(), tau.data());
  Matrix T(k, k);
  larft(A.cview(), tau.data(), T.view());

  // Apply Q^T via larfb and via sequential larf; compare.
  Matrix C = random_matrix(m, n, 22);
  Matrix C1 = C, C2 = C;
  Matrix work;
  larfb(Side::Left, Trans::Yes, A.cview(), T.cview(), C1.view(), work);
  std::vector<double> v(m);
  for (int j = 0; j < k; ++j) {
    v[0] = 1.0;
    for (int i = 1; i < m - j; ++i) v[i] = A(j + i, j);
    larf_left(tau[j], v.data(), 1, C2.view().block(j, 0, m - j, n));
  }
  for (int j = 0; j < n; ++j)
    for (int i = 0; i < m; ++i) EXPECT_NEAR(C1(i, j), C2(i, j), 1e-12);
}

// gebd2's row reflector: v lives in a row of the matrix (stride ld) and is
// applied from the right to the rows below it. C spans more than one
// 32-row slab of larf_right, with a ragged last slab.
TEST(Householder, LarfRightStridedRowMatchesExplicitH) {
  const int m = 75, n = 13;
  Matrix A = random_matrix(m + 1, n, 41);
  const double tau = larfg(n, A(0, 0), &A(0, 1), A.rows());
  ASSERT_NE(tau, 0.0);
  const double beta = A(0, 0);
  A(0, 0) = 1.0;
  Matrix H(n, n);
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i < n; ++i) {
      H(i, j) = (i == j ? 1.0 : 0.0) - tau * A(0, i) * A(0, j);
    }
  }
  Matrix C(m, n);
  for (int j = 0; j < n; ++j)
    for (int i = 0; i < m; ++i) C(i, j) = A(i + 1, j);
  const Matrix ref = mul(C.cview(), H.cview(), Trans::No, Trans::No);
  larf_right(tau, &A(0, 0), A.rows(), A.view().block(1, 0, m, n));
  A(0, 0) = beta;
  for (int j = 0; j < n; ++j)
    for (int i = 0; i < m; ++i) EXPECT_NEAR(A(i + 1, j), ref(i, j), kTol);
}

TEST(Householder, LarfbRightMatchesTransposedLeft) {
  const int m = 8, mv = 15, k = 5;
  Matrix A = random_matrix(mv, k, 31);
  std::vector<double> tau(k);
  geqr2(A.view(), tau.data());
  Matrix T(k, k);
  larft(A.cview(), tau.data(), T.view());

  Matrix C = random_matrix(m, mv, 32);
  // (C Q)^T == Q^T C^T.
  Matrix Ct(mv, m);
  transpose(C.cview(), Ct.view());
  Matrix work;
  larfb(Side::Right, Trans::No, A.cview(), T.cview(), C.view(), work);
  larfb(Side::Left, Trans::Yes, A.cview(), T.cview(), Ct.view(), work);
  for (int j = 0; j < mv; ++j)
    for (int i = 0; i < m; ++i) EXPECT_NEAR(C(i, j), Ct(j, i), 1e-12);
}

class QrRefShapes : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(QrRefShapes, FactorizationReconstructs) {
  const auto [m, n] = GetParam();
  Matrix A = random_matrix(m, n, 41);
  Matrix A0 = A;
  const int k = std::min(m, n);
  std::vector<double> tau(k);
  geqrf(A.view(), tau.data(), 5);
  Matrix Q(m, k);
  orgqr(A.cview(), tau.data(), k, Q.view());
  EXPECT_LT(orthogonality_error(Q.cview()), 1e-13 * m);
  // R = upper triangle of A (k x n).
  Matrix R(k, n);
  for (int j = 0; j < n; ++j)
    for (int i = 0; i <= std::min(j, k - 1); ++i) R(i, j) = A(i, j);
  Matrix QR = mul(Q.cview(), R.cview());
  for (int j = 0; j < n; ++j)
    for (int i = 0; i < m; ++i) EXPECT_NEAR(QR(i, j), A0(i, j), 1e-11);
}

INSTANTIATE_TEST_SUITE_P(Shapes, QrRefShapes,
                         ::testing::Values(std::tuple{8, 8}, std::tuple{20, 8},
                                           std::tuple{8, 20},
                                           std::tuple{33, 17},
                                           std::tuple{64, 64},
                                           std::tuple{100, 37},
                                           std::tuple{1, 1},
                                           std::tuple{5, 1},
                                           std::tuple{1, 5}));

TEST(QrRef, Geqr2MatchesGeqrf) {
  const int m = 30, n = 18;
  Matrix A = random_matrix(m, n, 51);
  Matrix B = A;
  std::vector<double> ta(n), tb(n);
  geqr2(A.view(), ta.data());
  geqrf(B.view(), tb.data(), 7);
  // R factors agree up to sign conventions (they should be identical since
  // both use the same larfg).
  for (int j = 0; j < n; ++j)
    for (int i = 0; i <= j; ++i) EXPECT_NEAR(A(i, j), B(i, j), 1e-12);
}

TEST(QrRef, LqReconstructs) {
  const int m = 9, n = 17;
  Matrix A = random_matrix(m, n, 61);
  Matrix A0 = A;
  const int k = std::min(m, n);
  std::vector<double> tau(k);
  gelq2(A.view(), tau.data());
  Matrix Q(k, n);
  orglq(A.cview(), tau.data(), k, Q.view());
  // Rows of Q orthonormal: Q Q^T = I.
  Matrix QQt = mul(Q.cview(), Q.cview(), Trans::No, Trans::Yes);
  for (int j = 0; j < k; ++j)
    for (int i = 0; i < k; ++i)
      EXPECT_NEAR(QQt(i, j), i == j ? 1.0 : 0.0, 1e-13);
  Matrix L(m, k);
  for (int j = 0; j < k; ++j)
    for (int i = j; i < m; ++i) L(i, j) = A(i, j);
  Matrix LQ = mul(L.cview(), Q.cview());
  for (int j = 0; j < n; ++j)
    for (int i = 0; i < m; ++i) EXPECT_NEAR(LQ(i, j), A0(i, j), 1e-12);
}

TEST(QrRef, OrmqrLeftMatchesExplicitQ) {
  const int m = 14, n = 6, nc = 5;
  Matrix A = random_matrix(m, n, 71);
  std::vector<double> tau(n);
  geqrf(A.view(), tau.data(), 3);
  Matrix Qfull(m, m);
  orgqr(A.cview(), tau.data(), n, Qfull.view());
  Matrix C = random_matrix(m, nc, 72);
  Matrix C1 = C;
  ormqr_left(Trans::Yes, A.cview(), tau.data(), n, C1.view());
  Matrix Cref = mul(Qfull.cview(), C.cview(), Trans::Yes, Trans::No);
  for (int j = 0; j < nc; ++j)
    for (int i = 0; i < m; ++i) EXPECT_NEAR(C1(i, j), Cref(i, j), 1e-12);
}

TEST(JacobiSvd, DiagonalMatrix) {
  Matrix A(5, 3);
  A(0, 0) = 3.0;
  A(1, 1) = 2.0;
  A(2, 2) = 0.5;
  auto sv = jacobi_singular_values(A.cview());
  ASSERT_EQ(sv.size(), 3u);
  EXPECT_NEAR(sv[0], 3.0, 1e-14);
  EXPECT_NEAR(sv[1], 2.0, 1e-14);
  EXPECT_NEAR(sv[2], 0.5, 1e-14);
}

TEST(JacobiSvd, WideMatrixHandled) {
  Matrix A = random_matrix(4, 9, 81);
  auto sv = jacobi_singular_values(A.cview());
  ASSERT_EQ(sv.size(), 4u);
  // Frobenius norm identity.
  double fro2 = 0;
  for (double s : sv) fro2 += s * s;
  const double ref = norm_fro(A.cview());
  EXPECT_NEAR(std::sqrt(fro2), ref, 1e-12 * ref);
}

TEST(JacobiSvd, OrthogonalInvariance) {
  const int m = 24, n = 10;
  Matrix A = random_matrix(m, n, 91);
  auto sv0 = jacobi_singular_values(A.cview());
  // Multiply by random orthogonal from the left.
  Matrix G = random_matrix(m, m, 92);
  std::vector<double> tau(m);
  geqrf(G.view(), tau.data());
  Matrix Q(m, m);
  orgqr(G.cview(), tau.data(), m, Q.view());
  Matrix QA = mul(Q.cview(), A.cview());
  auto sv1 = jacobi_singular_values(QA.cview());
  for (int i = 0; i < n; ++i) EXPECT_NEAR(sv0[i], sv1[i], 1e-11);
}

}  // namespace
}  // namespace tbsvd
