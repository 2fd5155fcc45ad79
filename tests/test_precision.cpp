// Precision tier: the scalar-generic stack instantiated for float.
//
// 1. The six-family blocked-vs-reference conformance sweep (GE/TS/TT x
//    QR/LQ) runs typed over {float, double} at eps-scaled tolerances
//    (tol_eps<T>), including the WY T-invariant checks on every factor
//    kernel's (V, T) output and the recursive TT panels.
// 2. Driver accuracy: gesvd_values<float> (and the float baselines) must
//    match the all-double reference spectrum to ~1e-5 relative — the
//    O(n eps_f ||A||) backward-error budget of a float reduction.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "baseline/chan.hpp"
#include "baseline/gebrd.hpp"
#include "core/svd.hpp"
#include "kernels/lq_kernels.hpp"
#include "kernels/qr_kernels.hpp"
#include "lac/dense.hpp"
#include "lac/qr_rec.hpp"
#include "test_harness.hpp"
#include "tile/matrix_gen.hpp"

namespace tbsvd {
namespace {

using namespace tbsvd::kernels;

// ------------------------------------------- typed six-family conformance ---

// Shape subset of the full double-only grid in test_kernel_conformance.cpp:
// non-dividing ib, nb == 1, ib > nb, and the production-like 24/16.
const std::vector<std::pair<int, int>> kTypedShapes = {
    {1, 1}, {1, 4}, {8, 3}, {16, 7}, {24, 16}, {40, 7}};

template <class T>
class TypedConformance : public ::testing::Test {};

using ScalarTypes = ::testing::Types<float, double>;
TYPED_TEST_SUITE(TypedConformance, ScalarTypes);

// Historical double WY bound was 1e-13 per dim = ~450 eps_d.
template <class T>
double wy_tol() {
  return test::tol_eps<T>(450.0);
}

TYPED_TEST(TypedConformance, GeqrtMatchesRef) {
  using T = TypeParam;
  for (const auto& [nb, ib] : kTypedShapes) {
    for (const int m : {nb, 2 * nb + 3}) {
      MatrixT<T> A = test::random_matrix<T>(m, nb, 30'000 + 31 * m + nb + ib);
      MatrixT<T> Ar = A;
      const int k = std::min(m, nb);
      MatrixT<T> Tm(std::min(ib, k), nb), Tr(std::min(ib, k), nb);
      geqrt(A.view(), Tm.view(), ib);
      geqrt_ref(Ar.view(), Tr.view(), ib);
      const double tol = test::conformance_tol<T>(Ar.cview());
      test::expect_matrix_near<T>(A.cview(), Ar.cview(), tol, "geqrt V/R");
      test::expect_matrix_near<T>(Tm.cview(), Tr.cview(), tol, "geqrt T");
      MatrixT<T> V = test::explicit_v_ge<T>(A.cview());
      test::expect_wy_invariants<T>(V.cview(), Tm.cview(), ib, wy_tol<T>(),
                                    "geqrt");

      MatrixT<T> C = test::random_matrix<T>(m, nb, 30'500 + m + nb);
      MatrixT<T> Cr = C;
      unmqr(Trans::Yes, A.cview(), Tm.cview(), C.view(), ib);
      unmqr(Trans::Yes, Ar.cview(), Tr.cview(), Cr.view(), ib);
      test::expect_matrix_near<T>(C.cview(), Cr.cview(),
                                  test::conformance_tol<T>(Cr.cview()),
                                  "unmqr C");
    }
  }
}

TYPED_TEST(TypedConformance, GelqtMatchesRef) {
  using T = TypeParam;
  for (const auto& [nb, ib] : kTypedShapes) {
    for (const int n : {nb, 2 * nb + 3}) {
      MatrixT<T> A = test::random_matrix<T>(nb, n, 31'000 + 31 * n + nb + ib);
      MatrixT<T> Ar = A;
      const int k = std::min(nb, n);
      MatrixT<T> Tm(std::min(ib, k), nb), Tr(std::min(ib, k), nb);
      gelqt(A.view(), Tm.view(), ib);
      gelqt_ref(Ar.view(), Tr.view(), ib);
      const double tol = test::conformance_tol<T>(Ar.cview());
      test::expect_matrix_near<T>(A.cview(), Ar.cview(), tol, "gelqt V/L");
      test::expect_matrix_near<T>(Tm.cview(), Tr.cview(), tol, "gelqt T");
      MatrixT<T> V = test::explicit_v_ge_rows<T>(A.cview());
      test::expect_wy_invariants<T>(V.cview(), Tm.cview(), ib, wy_tol<T>(),
                                    "gelqt");

      MatrixT<T> C = test::random_matrix<T>(nb, n, 31'500 + n + nb);
      MatrixT<T> Cr = C;
      unmlq(Trans::Yes, A.cview(), Tm.cview(), C.view(), ib);
      unmlq(Trans::Yes, Ar.cview(), Tr.cview(), Cr.view(), ib);
      test::expect_matrix_near<T>(C.cview(), Cr.cview(),
                                  test::conformance_tol<T>(Cr.cview()),
                                  "unmlq C");
    }
  }
}

TYPED_TEST(TypedConformance, TsqrtMatchesRef) {
  using T = TypeParam;
  for (const auto& [nb, ib] : kTypedShapes) {
    for (const int m2 : {nb, std::max(1, nb / 2), 0}) {
      MatrixT<T> A1 = test::random_upper<T>(nb, 32'000 + 31 * m2 + nb + ib);
      MatrixT<T> A2 = test::random_matrix<T>(m2, nb, 32'100 + m2 + nb + ib);
      MatrixT<T> A1r = A1, A2r = A2;
      MatrixT<T> Tm(std::min(ib, nb), nb), Tr(std::min(ib, nb), nb);
      tsqrt(A1.view(), A2.view(), Tm.view(), ib);
      tsqrt_ref(A1r.view(), A2r.view(), Tr.view(), ib);
      const double tol = test::conformance_tol<T>(A1r.cview());
      test::expect_matrix_near<T>(A1.cview(), A1r.cview(), tol, "tsqrt R");
      test::expect_matrix_near<T>(A2.cview(), A2r.cview(), tol, "tsqrt V2");
      test::expect_matrix_near<T>(Tm.cview(), Tr.cview(), tol, "tsqrt T");
      MatrixT<T> V = test::explicit_v_ts<T>(nb, A2.cview());
      test::expect_wy_invariants<T>(V.cview(), Tm.cview(), ib, wy_tol<T>(),
                                    "tsqrt");

      if (m2 > 0) {
        MatrixT<T> C1 = test::random_matrix<T>(nb, nb, 32'200 + nb), C1r = C1;
        MatrixT<T> C2 = test::random_matrix<T>(m2, nb, 32'300 + nb), C2r = C2;
        tsmqr(Trans::Yes, C1.view(), C2.view(), A2.cview(), Tm.cview(), ib);
        tsmqr(Trans::Yes, C1r.view(), C2r.view(), A2r.cview(), Tr.cview(),
              ib);
        const double ctol = test::conformance_tol<T>(C1r.cview()) +
                            test::conformance_tol<T>(C2r.cview());
        test::expect_matrix_near<T>(C1.cview(), C1r.cview(), ctol, "tsmqr C1");
        test::expect_matrix_near<T>(C2.cview(), C2r.cview(), ctol, "tsmqr C2");
      }
    }
  }
}

TYPED_TEST(TypedConformance, TslqtMatchesRef) {
  using T = TypeParam;
  for (const auto& [nb, ib] : kTypedShapes) {
    for (const int m2 : {nb, std::max(1, nb / 2), 0}) {
      MatrixT<T> A1 = test::random_lower<T>(nb, 33'000 + 31 * m2 + nb + ib);
      MatrixT<T> A2 = test::random_matrix<T>(nb, m2, 33'100 + m2 + nb + ib);
      MatrixT<T> A1r = A1, A2r = A2;
      MatrixT<T> Tm(std::min(ib, nb), nb), Tr(std::min(ib, nb), nb);
      tslqt(A1.view(), A2.view(), Tm.view(), ib);
      tslqt_ref(A1r.view(), A2r.view(), Tr.view(), ib);
      const double tol = test::conformance_tol<T>(A1r.cview());
      test::expect_matrix_near<T>(A1.cview(), A1r.cview(), tol, "tslqt L");
      test::expect_matrix_near<T>(A2.cview(), A2r.cview(), tol, "tslqt V2");
      test::expect_matrix_near<T>(Tm.cview(), Tr.cview(), tol, "tslqt T");
      MatrixT<T> V2t = test::transposed<T>(A2.cview());
      MatrixT<T> V = test::explicit_v_ts<T>(nb, V2t.cview());
      test::expect_wy_invariants<T>(V.cview(), Tm.cview(), ib, wy_tol<T>(),
                                    "tslqt");
    }
  }
}

TYPED_TEST(TypedConformance, TtqrtMatchesRefWithPoison) {
  using T = TypeParam;
  for (const auto& [nb, ib] : kTypedShapes) {
    MatrixT<T> A1 = test::random_upper<T>(nb, 34'000 + nb + ib);
    MatrixT<T> A2 = test::random_upper<T>(nb, 34'100 + nb + ib);
    const double tol = test::conformance_tol<T>(A1.cview()) +
                       test::conformance_tol<T>(A2.cview());
    test::poison_below_diag<T>(A1.view());
    test::poison_below_diag<T>(A2.view());
    MatrixT<T> A1r = A1, A2r = A2;
    MatrixT<T> Tm(std::min(ib, nb), nb), Tr(std::min(ib, nb), nb);
    ttqrt(A1.view(), A2.view(), Tm.view(), ib);
    ttqrt_ref(A1r.view(), A2r.view(), Tr.view(), ib);
    for (int j = 0; j < nb; ++j)
      for (int i = 0; i <= j; ++i) {
        EXPECT_NEAR(double(A1(i, j)), double(A1r(i, j)), tol) << i << "," << j;
        EXPECT_NEAR(double(A2(i, j)), double(A2r(i, j)), tol) << i << "," << j;
      }
    test::expect_matrix_near<T>(Tm.cview(), Tr.cview(), tol, "ttqrt T");
    test::expect_poison_below_diag<T>(A1.cview(), "ttqrt R tile");
    test::expect_poison_below_diag<T>(A2.cview(), "ttqrt V2");
    MatrixT<T> V = test::explicit_v_tt<T>(A2.cview());
    test::expect_wy_invariants<T>(V.cview(), Tm.cview(), ib, wy_tol<T>(),
                                  "ttqrt");

    MatrixT<T> C1 = test::random_matrix<T>(nb, nb, 34'200 + nb), C1r = C1;
    MatrixT<T> C2 = test::random_matrix<T>(nb, nb, 34'300 + nb), C2r = C2;
    ttmqr(Trans::Yes, C1.view(), C2.view(), A2.cview(), Tm.cview(), ib);
    ttmqr_ref(Trans::Yes, C1r.view(), C2r.view(), A2r.cview(), Tr.cview(),
              ib);
    const double ctol = test::conformance_tol<T>(C1r.cview()) +
                        test::conformance_tol<T>(C2r.cview());
    test::expect_matrix_near<T>(C1.cview(), C1r.cview(), ctol, "ttmqr C1");
    test::expect_matrix_near<T>(C2.cview(), C2r.cview(), ctol, "ttmqr C2");
  }
}

TYPED_TEST(TypedConformance, TtlqtMatchesRefWithPoison) {
  using T = TypeParam;
  for (const auto& [nb, ib] : kTypedShapes) {
    MatrixT<T> A1 = test::random_lower<T>(nb, 35'000 + nb + ib);
    MatrixT<T> A2 = test::random_lower<T>(nb, 35'100 + nb + ib);
    const double tol = test::conformance_tol<T>(A1.cview()) +
                       test::conformance_tol<T>(A2.cview());
    test::poison_above_diag<T>(A1.view());
    test::poison_above_diag<T>(A2.view());
    MatrixT<T> A1r = A1, A2r = A2;
    MatrixT<T> Tm(std::min(ib, nb), nb), Tr(std::min(ib, nb), nb);
    ttlqt(A1.view(), A2.view(), Tm.view(), ib);
    ttlqt_ref(A1r.view(), A2r.view(), Tr.view(), ib);
    for (int j = 0; j < nb; ++j)
      for (int i = j; i < nb; ++i) {
        EXPECT_NEAR(double(A1(i, j)), double(A1r(i, j)), tol) << i << "," << j;
        EXPECT_NEAR(double(A2(i, j)), double(A2r(i, j)), tol) << i << "," << j;
      }
    test::expect_matrix_near<T>(Tm.cview(), Tr.cview(), tol, "ttlqt T");
    test::expect_poison_above_diag<T>(A1.cview(), "ttlqt L tile");
    test::expect_poison_above_diag<T>(A2.cview(), "ttlqt V2");
    MatrixT<T> V2t = test::transposed<T>(A2.cview());
    MatrixT<T> V = test::explicit_v_tt<T>(V2t.cview());
    test::expect_wy_invariants<T>(V.cview(), Tm.cview(), ib, wy_tol<T>(),
                                  "ttlqt");

    MatrixT<T> C1 = test::random_matrix<T>(nb, nb, 35'200 + nb), C1r = C1;
    MatrixT<T> C2 = test::random_matrix<T>(nb, nb, 35'300 + nb), C2r = C2;
    ttmlq(Trans::Yes, C1.view(), C2.view(), A2.cview(), Tm.cview(), ib);
    ttmlq_ref(Trans::Yes, C1r.view(), C2r.view(), A2r.cview(), Tr.cview(),
              ib);
    const double ctol = test::conformance_tol<T>(C1r.cview()) +
                        test::conformance_tol<T>(C2r.cview());
    test::expect_matrix_near<T>(C1.cview(), C1r.cview(), ctol, "ttmlq C1");
    test::expect_matrix_near<T>(C2.cview(), C2r.cview(), ctol, "ttmlq C2");
  }
}

// Recursive TT panels: deep uneven recursions must satisfy the same WY
// invariants in float as in double.
TYPED_TEST(TypedConformance, TtRecursionWyInvariants) {
  using T = TypeParam;
  for (const auto& [k, off] : {std::pair{5, 7}, std::pair{16, 3},
                               std::pair{21, 0}}) {
    MatrixT<T> R0 = test::random_upper<T>(k, 36'000 + 31 * k + off);
    MatrixT<T> V0 = test::random_matrix<T>(off + k, k, 36'100 + 31 * k + off);
    for (int j = 0; j < k; ++j)
      for (int i = off + j + 1; i < off + k; ++i)
        V0(i, j) = static_cast<T>(test::kPoison);
    for (const int base : {2, 16}) {
      MatrixT<T> Rb = R0, Vb = V0, Tb(k, k);
      ttqrf_rec(Rb.view(), Vb.view(), Tb.view(), off, base);
      for (int j = 0; j < k; ++j)
        for (int i = off + j + 1; i < off + k; ++i)
          EXPECT_EQ(Vb(i, j), static_cast<T>(test::kPoison))
              << "poison clobbered, base=" << base << " at " << i << ","
              << j;
      MatrixT<T> V = test::explicit_v_tt<T>(Vb.cview(), off);
      test::expect_wy_invariants<T>(V.cview(), Tb.cview(), k, wy_tol<T>(),
                                    "ttqrf_rec");
    }
    MatrixT<T> L0 = test::random_lower<T>(k, 37'000 + 31 * k + off);
    MatrixT<T> W0 = test::random_matrix<T>(k, off + k, 37'100 + 31 * k + off);
    for (const int base : {2, 16}) {
      MatrixT<T> Lb = L0, Wb = W0, Tb(k, k);
      ttlqf_rec(Lb.view(), Wb.view(), Tb.view(), off, base);
      MatrixT<T> V2t = test::transposed<T>(Wb.cview());
      MatrixT<T> V = test::explicit_v_tt<T>(V2t.cview(), off);
      test::expect_wy_invariants<T>(V.cview(), Tb.cview(), k, wy_tol<T>(),
                                    "ttlqf_rec");
    }
  }
}

// --------------------------------------------------- float driver accuracy ---

// Demote a double matrix to float for the float-driver inputs.
MatrixT<float> demoted(ConstMatrixView A) {
  MatrixT<float> Af(A.m, A.n);
  convert_matrix(A, Af.view());
  return Af;
}

GesvdOptions small_opts() {
  GesvdOptions o;
  o.nb = 16;
  o.ge2bnd.ib = 8;
  return o;
}

// gesvd_values<float> (and the float baselines) against the all-double
// reference: the float reduction's backward error is O(n eps_f ||A||), so
// 1e-5 * sigma_max is the acceptance bar (measured ~7e-7 on these sizes).
TEST(FloatDrivers, MatchDoubleReferenceTo1e5) {
  for (const int n : {16, 32, 48}) {
    const int m = n + n / 2;
    std::vector<double> sv(n);
    for (int i = 0; i < n; ++i)
      sv[i] = std::pow(10.0, -1.0 * i / std::max(1, n - 1));
    Matrix A = generate_matrix_with_sv(m, n, sv, 40'000 + n);
    const auto ref = gesvd_values(A.cview(), small_opts());
    const MatrixT<float> Af = demoted(A.cview());

    const auto f = gesvd_values(Af.cview(), small_opts());
    const auto gb = gebrd_singular_values(Af.cview());
    const auto ch = chan_singular_values(Af.cview());
    ASSERT_EQ(f.size(), ref.size());
    const double tol = 1e-5 * (1.0 + ref[0]);
    for (std::size_t i = 0; i < ref.size(); ++i) {
      EXPECT_NEAR(f[i], ref[i], tol) << "tiled f32 sv " << i << " n=" << n;
      EXPECT_NEAR(gb[i], ref[i], tol) << "gebrd f32 sv " << i << " n=" << n;
      EXPECT_NEAR(ch[i], ref[i], tol) << "chan f32 sv " << i << " n=" << n;
    }
  }
}

// Float hazard contract: same typed errors and per-precision safe scaling
// as the double driver, at float-range extremes (1e +/- 30).
TEST(FloatDrivers, HazardContractHolds) {
  MatrixT<float> A = test::random_matrix<float>(24, 16, 41'000);
  A(3, 2) = std::numeric_limits<float>::quiet_NaN();
  EXPECT_THROW(gesvd_values(A.cview(), small_opts()), numerical_hazard_error);

  Matrix B = test::random_matrix(32, 16, 41'100);
  const auto ref = gesvd_values(B.cview(), small_opts());
  for (const double c : {1e30, 1e-30}) {
    Matrix Bs(32, 16);
    for (int j = 0; j < 16; ++j)
      for (int i = 0; i < 32; ++i) Bs(i, j) = c * B(i, j);
    SvdInfo info;
    const auto sv =
        gesvd_values(demoted(Bs.cview()).cview(), small_opts(), nullptr,
                     &info);
    EXPECT_TRUE(info.scaled) << "c=" << c;
    ASSERT_EQ(sv.size(), ref.size());
    for (std::size_t i = 0; i < ref.size(); ++i) {
      EXPECT_NEAR(sv[i] / c, ref[i], 1e-5 * (1.0 + ref[0]))
          << "sv " << i << " c=" << c;
    }
  }
}

}  // namespace
}  // namespace tbsvd
