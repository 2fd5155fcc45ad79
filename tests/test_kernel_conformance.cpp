// Randomized kernel-conformance sweep: every factor-kernel family
// (GE/TS/TT x QR/LQ) runs the blocked path (recursive BLAS3 panels, masked
// trapezoidal updates) against its retained level-2 *_ref implementation
// over a grid of shapes that includes ib values that do not divide nb,
// single-column tiles (nb == 1), ib > nb, and empty-edge tiles (m2 == 0
// TS panels, zero-width updates). The update kernels are tied in by
// applying the same operand to factors produced by both paths.
//
// On top of the exact (1e-12 scaled) Gaussian conformance, a robustness
// pass drives the blocked factorizations over ill-conditioned,
// rank-deficient and graded inputs, where only backward error and
// orthogonality are meaningful. Finally, an end-to-end spectrum test runs
// ge2bnd -> bnd2bd -> bd2val against prescribed singular values, tying the
// factorization layers to the spectrum at O(eps ||A||).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <tuple>
#include <vector>

#include "band/band_matrix.hpp"
#include "band/bd2val.hpp"
#include "band/bnd2bd.hpp"
#include "core/ge2bnd.hpp"
#include "kernels/lq_kernels.hpp"
#include "kernels/qr_kernels.hpp"
#include "lac/blas.hpp"
#include "lac/dense.hpp"
#include "lac/qr_rec.hpp"
#include "test_harness.hpp"
#include "tile/matrix_gen.hpp"
#include "tile/tile_matrix.hpp"

namespace tbsvd {
namespace {

using namespace tbsvd::kernels;
using test::MatKind;
using test::mul;
using test::random_lower;
using test::random_matrix;
using test::random_upper;

// The (nb, ib) grid: non-dividing ib, nb == 1, ib > nb, power-of-two and
// odd sizes. Every family below sweeps all of these.
const std::vector<std::pair<int, int>> kShapeGrid = {
    {1, 1},  {1, 4},  {2, 3},  {3, 2},  {5, 4},   {8, 3},  {13, 5},
    {16, 7}, {24, 16}, {33, 32}, {40, 7}, {48, 13}, {64, 48}};

// Scaled conformance tolerance: both paths compute the same reflector
// sequence, so they agree to rounding on well-conditioned inputs.
double conf_tol(ConstMatrixView ref) { return 1e-12 * (1.0 + norm_fro(ref)); }

class ConformanceSweep : public ::testing::TestWithParam<std::pair<int, int>> {
};

TEST_P(ConformanceSweep, GeqrtMatchesRef) {
  const auto [nb, ib] = GetParam();
  // Square tile and a tall tile (the Q-forming shape).
  for (const int m : {nb, 2 * nb + 3}) {
    Matrix A = random_matrix(m, nb, 10'000 + 31 * m + nb + ib);
    Matrix Ar = A;
    const int k = std::min(m, nb);
    Matrix T(std::min(ib, k), nb), Tr(std::min(ib, k), nb);
    geqrt(A.view(), T.view(), ib);
    geqrt_ref(Ar.view(), Tr.view(), ib);
    const double tol = conf_tol(Ar.cview());
    test::expect_matrix_near(A.cview(), Ar.cview(), tol, "geqrt V/R");
    test::expect_matrix_near(T.cview(), Tr.cview(), tol, "geqrt T");
    Matrix V = test::explicit_v_ge(A.cview());
    test::expect_wy_invariants(V.cview(), T.cview(), ib, 1e-13, "geqrt");

    // The update kernel consumes both factorizations identically.
    Matrix C = random_matrix(m, nb, 10'500 + m + nb);
    Matrix Cr = C;
    unmqr(Trans::Yes, A.cview(), T.cview(), C.view(), ib);
    unmqr(Trans::Yes, Ar.cview(), Tr.cview(), Cr.view(), ib);
    test::expect_matrix_near(C.cview(), Cr.cview(),
                             conf_tol(Cr.cview()), "unmqr C");
  }
}

TEST_P(ConformanceSweep, GelqtMatchesRef) {
  const auto [nb, ib] = GetParam();
  for (const int n : {nb, 2 * nb + 3}) {
    Matrix A = random_matrix(nb, n, 11'000 + 31 * n + nb + ib);
    Matrix Ar = A;
    const int k = std::min(nb, n);
    Matrix T(std::min(ib, k), nb), Tr(std::min(ib, k), nb);
    gelqt(A.view(), T.view(), ib);
    gelqt_ref(Ar.view(), Tr.view(), ib);
    const double tol = conf_tol(Ar.cview());
    test::expect_matrix_near(A.cview(), Ar.cview(), tol, "gelqt V/L");
    test::expect_matrix_near(T.cview(), Tr.cview(), tol, "gelqt T");
    Matrix V = test::explicit_v_ge_rows(A.cview());
    test::expect_wy_invariants(V.cview(), T.cview(), ib, 1e-13, "gelqt");

    Matrix C = random_matrix(nb, n, 11'500 + n + nb);
    Matrix Cr = C;
    unmlq(Trans::Yes, A.cview(), T.cview(), C.view(), ib);
    unmlq(Trans::Yes, Ar.cview(), Tr.cview(), Cr.view(), ib);
    test::expect_matrix_near(C.cview(), Cr.cview(),
                             conf_tol(Cr.cview()), "unmlq C");
  }
}

TEST_P(ConformanceSweep, TsqrtMatchesRef) {
  const auto [nb, ib] = GetParam();
  // m2 == 0 is the empty-edge tile (a TS step degenerating to a no-op).
  for (const int m2 : {nb, std::max(1, nb / 2), 0}) {
    Matrix A1 = random_upper(nb, 12'000 + 31 * m2 + nb + ib);
    Matrix A2 = random_matrix(m2, nb, 12'100 + m2 + nb + ib);
    Matrix A1r = A1, A2r = A2;
    Matrix T(std::min(ib, nb), nb), Tr(std::min(ib, nb), nb);
    tsqrt(A1.view(), A2.view(), T.view(), ib);
    tsqrt_ref(A1r.view(), A2r.view(), Tr.view(), ib);
    const double tol = conf_tol(A1r.cview());
    test::expect_matrix_near(A1.cview(), A1r.cview(), tol, "tsqrt R");
    test::expect_matrix_near(A2.cview(), A2r.cview(), tol, "tsqrt V2");
    test::expect_matrix_near(T.cview(), Tr.cview(), tol, "tsqrt T");
    Matrix V = test::explicit_v_ts(nb, A2.cview());
    test::expect_wy_invariants(V.cview(), T.cview(), ib, 1e-13, "tsqrt");

    if (m2 > 0) {
      Matrix C1 = random_matrix(nb, nb, 12'200 + nb), C1r = C1;
      Matrix C2 = random_matrix(m2, nb, 12'300 + nb), C2r = C2;
      tsmqr(Trans::Yes, C1.view(), C2.view(), A2.cview(), T.cview(), ib);
      tsmqr(Trans::Yes, C1r.view(), C2r.view(), A2r.cview(), Tr.cview(), ib);
      const double ctol = conf_tol(C1r.cview()) + conf_tol(C2r.cview());
      test::expect_matrix_near(C1.cview(), C1r.cview(), ctol, "tsmqr C1");
      test::expect_matrix_near(C2.cview(), C2r.cview(), ctol, "tsmqr C2");
    }
  }
}

TEST_P(ConformanceSweep, TslqtMatchesRef) {
  const auto [nb, ib] = GetParam();
  for (const int m2 : {nb, std::max(1, nb / 2), 0}) {
    Matrix A1 = random_lower(nb, 13'000 + 31 * m2 + nb + ib);
    Matrix A2 = random_matrix(nb, m2, 13'100 + m2 + nb + ib);
    Matrix A1r = A1, A2r = A2;
    Matrix T(std::min(ib, nb), nb), Tr(std::min(ib, nb), nb);
    tslqt(A1.view(), A2.view(), T.view(), ib);
    tslqt_ref(A1r.view(), A2r.view(), Tr.view(), ib);
    const double tol = conf_tol(A1r.cview());
    test::expect_matrix_near(A1.cview(), A1r.cview(), tol, "tslqt L");
    test::expect_matrix_near(A2.cview(), A2r.cview(), tol, "tslqt V2");
    test::expect_matrix_near(T.cview(), Tr.cview(), tol, "tslqt T");
    Matrix V2t = test::transposed(A2.cview());
    Matrix V = test::explicit_v_ts(nb, V2t.cview());
    test::expect_wy_invariants(V.cview(), T.cview(), ib, 1e-13, "tslqt");

    if (m2 > 0) {
      Matrix C1 = random_matrix(nb, nb, 13'200 + nb), C1r = C1;
      Matrix C2 = random_matrix(nb, m2, 13'300 + nb), C2r = C2;
      tsmlq(Trans::Yes, C1.view(), C2.view(), A2.cview(), T.cview(), ib);
      tsmlq(Trans::Yes, C1r.view(), C2r.view(), A2r.cview(), Tr.cview(), ib);
      const double ctol = conf_tol(C1r.cview()) + conf_tol(C2r.cview());
      test::expect_matrix_near(C1.cview(), C1r.cview(), ctol, "tsmlq C1");
      test::expect_matrix_near(C2.cview(), C2r.cview(), ctol, "tsmlq C2");
    }
  }
}

TEST_P(ConformanceSweep, TtqrtMatchesRefWithPoison) {
  const auto [nb, ib] = GetParam();
  Matrix A1 = random_upper(nb, 14'000 + nb + ib);
  Matrix A2 = random_upper(nb, 14'100 + nb + ib);
  // tol from the pre-poison triangles (poison would blow up the norm).
  const double tol = conf_tol(A1.cview()) + conf_tol(A2.cview());
  // Both input tiles carry poisoned out-of-support storage: below-diagonal
  // of the eliminated tile is the V2 trapezoid contract, below-diagonal of
  // the pivot tile is R storage the kernel has no business touching.
  test::poison_below_diag(A1.view());
  test::poison_below_diag(A2.view());
  Matrix A1r = A1, A2r = A2;
  Matrix T(std::min(ib, nb), nb), Tr(std::min(ib, nb), nb);
  ttqrt(A1.view(), A2.view(), T.view(), ib);
  ttqrt_ref(A1r.view(), A2r.view(), Tr.view(), ib);
  for (int j = 0; j < nb; ++j)
    for (int i = 0; i <= j; ++i) {
      EXPECT_NEAR(A1(i, j), A1r(i, j), tol) << i << "," << j;
      EXPECT_NEAR(A2(i, j), A2r(i, j), tol) << i << "," << j;
    }
  test::expect_matrix_near(T.cview(), Tr.cview(), tol, "ttqrt T");
  test::expect_poison_below_diag(A1.cview(), "ttqrt R tile");
  test::expect_poison_below_diag(A2.cview(), "ttqrt V2");
  test::expect_poison_below_diag(A1r.cview(), "ttqrt_ref R tile");
  test::expect_poison_below_diag(A2r.cview(), "ttqrt_ref V2");
  Matrix V = test::explicit_v_tt(A2.cview());
  test::expect_wy_invariants(V.cview(), T.cview(), ib, 1e-13, "ttqrt");

  // Update conformance, including the nc == 0 empty edge.
  for (const int nc : {nb, 0}) {
    Matrix C1 = random_matrix(nb, nc, 14'200 + nb), C1r = C1;
    Matrix C2 = random_matrix(nb, nc, 14'300 + nb), C2r = C2;
    ttmqr(Trans::Yes, C1.view(), C2.view(), A2.cview(), T.cview(), ib);
    ttmqr_ref(Trans::Yes, C1r.view(), C2r.view(), A2r.cview(), Tr.cview(),
              ib);
    const double ctol = conf_tol(C1r.cview()) + conf_tol(C2r.cview());
    test::expect_matrix_near(C1.cview(), C1r.cview(), ctol, "ttmqr C1");
    test::expect_matrix_near(C2.cview(), C2r.cview(), ctol, "ttmqr C2");
  }
}

TEST_P(ConformanceSweep, TtlqtMatchesRefWithPoison) {
  const auto [nb, ib] = GetParam();
  Matrix A1 = random_lower(nb, 15'000 + nb + ib);
  Matrix A2 = random_lower(nb, 15'100 + nb + ib);
  const double tol = conf_tol(A1.cview()) + conf_tol(A2.cview());
  // Both input tiles poisoned outside their triangular supports (the row
  // mirror of the TTQRT contract).
  test::poison_above_diag(A1.view());
  test::poison_above_diag(A2.view());
  Matrix A1r = A1, A2r = A2;
  Matrix T(std::min(ib, nb), nb), Tr(std::min(ib, nb), nb);
  ttlqt(A1.view(), A2.view(), T.view(), ib);
  ttlqt_ref(A1r.view(), A2r.view(), Tr.view(), ib);
  for (int j = 0; j < nb; ++j)
    for (int i = j; i < nb; ++i) {
      EXPECT_NEAR(A1(i, j), A1r(i, j), tol) << i << "," << j;
      EXPECT_NEAR(A2(i, j), A2r(i, j), tol) << i << "," << j;
    }
  test::expect_matrix_near(T.cview(), Tr.cview(), tol, "ttlqt T");
  test::expect_poison_above_diag(A1.cview(), "ttlqt L tile");
  test::expect_poison_above_diag(A2.cview(), "ttlqt V2");
  test::expect_poison_above_diag(A1r.cview(), "ttlqt_ref L tile");
  test::expect_poison_above_diag(A2r.cview(), "ttlqt_ref V2");
  Matrix V2t = test::transposed(A2.cview());
  Matrix V = test::explicit_v_tt(V2t.cview());
  test::expect_wy_invariants(V.cview(), T.cview(), ib, 1e-13, "ttlqt");

  for (const int mc : {nb, 0}) {
    Matrix C1 = random_matrix(mc, nb, 15'200 + nb), C1r = C1;
    Matrix C2 = random_matrix(mc, nb, 15'300 + nb), C2r = C2;
    ttmlq(Trans::Yes, C1.view(), C2.view(), A2.cview(), T.cview(), ib);
    ttmlq_ref(Trans::Yes, C1r.view(), C2r.view(), A2r.cview(), Tr.cview(),
              ib);
    const double ctol = conf_tol(C1r.cview()) + conf_tol(C2r.cview());
    test::expect_matrix_near(C1.cview(), C1r.cview(), ctol, "ttmlq C1");
    test::expect_matrix_near(C2.cview(), C2r.cview(), ctol, "ttmlq C2");
  }
}

INSTANTIATE_TEST_SUITE_P(ShapeGrid, ConformanceSweep,
                         ::testing::ValuesIn(kShapeGrid));

// ---------------------------------------------------------- TT recursion ---

// Direct property sweep of ttqrf_rec/ttlqf_rec: the kernels above only
// exercise the default recursion cutoff, so this grid drives the split
// logic hard — base 1/2/5 force deep, uneven recursions (and with them
// every half-panel apply and T12 merge) against the unblocked level-2
// sweep (base >= k), over panel widths from a single column up to wider
// than the default cutoff and offsets that shift the whole trapezoid.
// Storage below each column's support is poisoned in all runs.
const std::vector<std::pair<int, int>> kTtPanelGrid = {
    {1, 0},  {1, 5},  {2, 0},  {2, 3},  {3, 1},  {5, 0},  {5, 7},
    {8, 2},  {13, 0}, {16, 3}, {21, 0}, {32, 5}, {40, 1}};

class TtRecursionSweep
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(TtRecursionSweep, TtqrfRecMatchesUnblockedSweep) {
  const auto [k, off] = GetParam();
  Matrix R0 = random_upper(k, 20'000 + 31 * k + off);
  Matrix V0 = random_matrix(off + k, k, 20'100 + 31 * k + off);
  for (int j = 0; j < k; ++j)
    for (int i = off + j + 1; i < off + k; ++i) V0(i, j) = test::kPoison;
  const double tol = conf_tol(R0.cview()) + conf_tol(V0.block(0, 0, off + 1, 1));

  // Oracle: the recursion collapsed to the classical unblocked sweep.
  Matrix Rr = R0, Vr = V0, Tr(k, k);
  ttqrf_rec(Rr.view(), Vr.view(), Tr.view(), off, k);

  for (const int base : {1, 2, 5, 16}) {
    Matrix Rb = R0, Vb = V0, Tb(k, k);
    ttqrf_rec(Rb.view(), Vb.view(), Tb.view(), off, base);
    for (int j = 0; j < k; ++j) {
      for (int i = 0; i <= j; ++i)
        EXPECT_NEAR(Rb(i, j), Rr(i, j), tol)
            << "R base=" << base << " at " << i << "," << j;
      for (int i = 0; i <= off + j; ++i)
        EXPECT_NEAR(Vb(i, j), Vr(i, j), tol)
            << "V base=" << base << " at " << i << "," << j;
      for (int i = off + j + 1; i < off + k; ++i)
        EXPECT_EQ(Vb(i, j), test::kPoison)
            << "poison clobbered, base=" << base << " at " << i << "," << j;
      for (int i = 0; i <= j; ++i)
        EXPECT_NEAR(Tb(i, j), Tr(i, j), tol)
            << "T base=" << base << " at " << i << "," << j;
    }
    Matrix V = test::explicit_v_tt(Vb.cview(), off);
    test::expect_wy_invariants(V.cview(), Tb.cview(), k, 1e-13, "ttqrf_rec");
  }
}

TEST_P(TtRecursionSweep, TtlqfRecMatchesUnblockedSweep) {
  const auto [k, off] = GetParam();
  Matrix L0 = random_lower(k, 21'000 + 31 * k + off);
  Matrix V0 = random_matrix(k, off + k, 21'100 + 31 * k + off);
  for (int i = 0; i < k; ++i)
    for (int j = off + i + 1; j < off + k; ++j) V0(i, j) = test::kPoison;
  const double tol = conf_tol(L0.cview()) + conf_tol(V0.block(0, 0, 1, off + 1));

  Matrix Lr = L0, Vr = V0, Tr(k, k);
  ttlqf_rec(Lr.view(), Vr.view(), Tr.view(), off, k);

  for (const int base : {1, 2, 5, 16}) {
    Matrix Lb = L0, Vb = V0, Tb(k, k);
    ttlqf_rec(Lb.view(), Vb.view(), Tb.view(), off, base);
    for (int i = 0; i < k; ++i) {
      for (int j = 0; j <= i; ++j)
        EXPECT_NEAR(Lb(i, j), Lr(i, j), tol)
            << "L base=" << base << " at " << i << "," << j;
      for (int j = 0; j <= off + i; ++j)
        EXPECT_NEAR(Vb(i, j), Vr(i, j), tol)
            << "V base=" << base << " at " << i << "," << j;
      for (int j = off + i + 1; j < off + k; ++j)
        EXPECT_EQ(Vb(i, j), test::kPoison)
            << "poison clobbered, base=" << base << " at " << i << "," << j;
    }
    for (int j = 0; j < k; ++j)
      for (int i = 0; i <= j; ++i)
        EXPECT_NEAR(Tb(i, j), Tr(i, j), tol)
            << "T base=" << base << " at " << i << "," << j;
    Matrix V2t = test::transposed(Vb.cview());
    Matrix V = test::explicit_v_tt(V2t.cview(), off);
    test::expect_wy_invariants(V.cview(), Tb.cview(), k, 1e-13, "ttlqf_rec");
  }
}

INSTANTIATE_TEST_SUITE_P(PanelGrid, TtRecursionSweep,
                         ::testing::ValuesIn(kTtPanelGrid));

// ----------------------------------------------------- workspace contract ---

// The factor kernels validate their T workspace up front (TBSVD_CHECK
// throws invalid_argument_error); these run under the ASan+UBSan CI job,
// so an undersized T that slipped past the checks would also fault there.
TEST(WorkspaceContract, TtqrtRejectsUndersizedT) {
  Matrix A1 = random_upper(8, 22'001), A2 = random_upper(8, 22'002);
  Matrix Tshort(4, 8);  // T.m < min(ib, n)
  EXPECT_THROW(ttqrt(A1.view(), A2.view(), Tshort.view(), 5),
               invalid_argument_error);
  Matrix Tnarrow(5, 7);  // T.n < n
  EXPECT_THROW(ttqrt(A1.view(), A2.view(), Tnarrow.view(), 5),
               invalid_argument_error);
  Matrix T(5, 8);
  EXPECT_THROW(ttqrt(A1.view(), A2.view(), T.view(), 0),
               invalid_argument_error);
}

TEST(WorkspaceContract, TtlqtRejectsUndersizedT) {
  Matrix A1 = random_lower(8, 22'003), A2 = random_lower(8, 22'004);
  Matrix Tshort(4, 8);
  EXPECT_THROW(ttlqt(A1.view(), A2.view(), Tshort.view(), 5),
               invalid_argument_error);
  Matrix Tnarrow(5, 7);
  EXPECT_THROW(ttlqt(A1.view(), A2.view(), Tnarrow.view(), 5),
               invalid_argument_error);
  Matrix T(5, 8);
  EXPECT_THROW(ttlqt(A1.view(), A2.view(), T.view(), 0),
               invalid_argument_error);
}

TEST(WorkspaceContract, TtRecRejectsBadShapes) {
  Matrix R = random_upper(6, 22'005);
  Matrix V = random_matrix(9, 6, 22'006);  // off = 3
  Matrix T(6, 6);
  Matrix Tsmall(5, 6);  // T.m < k
  EXPECT_THROW(ttqrf_rec(R.view(), V.view(), Tsmall.view(), 3),
               invalid_argument_error);
  Matrix Vbad = random_matrix(8, 6, 22'007);  // V.m != off + k
  EXPECT_THROW(ttqrf_rec(R.view(), Vbad.view(), T.view(), 3),
               invalid_argument_error);
  EXPECT_THROW(ttqrf_rec(R.view(), V.view(), T.view(), 3, 0),
               invalid_argument_error);
  Matrix L = random_lower(6, 22'008);
  Matrix Vl = random_matrix(6, 9, 22'009);
  EXPECT_THROW(ttlqf_rec(L.view(), Vl.view(), Tsmall.view(), 3),
               invalid_argument_error);
  Matrix Vlbad = random_matrix(6, 8, 22'010);
  EXPECT_THROW(ttlqf_rec(L.view(), Vlbad.view(), T.view(), 3),
               invalid_argument_error);
  EXPECT_THROW(ttlqf_rec(L.view(), Vl.view(), T.view(), 3, 0),
               invalid_argument_error);
}

TEST(WorkspaceContract, TtmqrTtmlqRejectUndersizedT) {
  const int k = 8, ib = 4;
  Matrix A1 = random_upper(k, 22'011), A2 = random_upper(k, 22'012);
  Matrix T(ib, k);
  ttqrt(A1.view(), A2.view(), T.view(), ib);
  Matrix C1 = random_matrix(k, k, 22'013), C2 = random_matrix(k, k, 22'014);
  Matrix Tshort(2, k);
  EXPECT_THROW(ttmqr(Trans::Yes, C1.view(), C2.view(), A2.cview(),
                     Tshort.cview(), ib),
               invalid_argument_error);
  EXPECT_THROW(ttmqr(Trans::Yes, C1.view(), C2.view(), A2.cview(), T.cview(),
                     0),
               invalid_argument_error);
  Matrix L1 = random_lower(k, 22'015), L2 = random_lower(k, 22'016);
  Matrix Tl(ib, k);
  ttlqt(L1.view(), L2.view(), Tl.view(), ib);
  EXPECT_THROW(ttmlq(Trans::Yes, C1.view(), C2.view(), L2.cview(),
                     Tshort.cview(), ib),
               invalid_argument_error);
  EXPECT_THROW(ttmlq(Trans::Yes, C1.view(), C2.view(), L2.cview(), Tl.cview(),
                     0),
               invalid_argument_error);
}

// ------------------------------------------------------------ robustness ---

// On structured inputs the two paths can legitimately diverge in the face
// of tau == 0 short-circuits and tiny pivots, so the meaningful contract
// is backward stability: Q orthogonal and Q R (L Q) reconstructing A.
class PanelRobustness : public ::testing::TestWithParam<MatKind> {};

TEST_P(PanelRobustness, GeqrtBackwardStable) {
  const MatKind kind = GetParam();
  for (const auto& [nb, ib] : {std::pair{24, 16}, std::pair{40, 7}}) {
    const int m = nb + 9;
    Matrix A = test::make_matrix(m, nb, kind, 16'000 + nb + ib);
    Matrix A0 = A;
    Matrix T(std::min(ib, nb), nb);
    geqrt(A.view(), T.view(), ib);
    Matrix Q = Matrix::identity(m);
    unmqr(Trans::No, A.cview(), T.cview(), Q.view(), ib);
    test::expect_orthogonal(Q.cview(), 1e-13, test::kind_name(kind));
    Matrix R(m, nb);
    for (int j = 0; j < nb; ++j)
      for (int i = 0; i <= j; ++i) R(i, j) = A(i, j);
    EXPECT_LT(test::backward_error(A0.cview(), Q.cview(), R.cview()),
              1e-13 * m)
        << test::kind_name(kind) << " nb=" << nb << " ib=" << ib;
  }
}

TEST_P(PanelRobustness, GelqtBackwardStable) {
  const MatKind kind = GetParam();
  for (const auto& [nb, ib] : {std::pair{24, 16}, std::pair{40, 7}}) {
    const int n = nb + 9;
    Matrix A = test::make_matrix(nb, n, kind, 17'000 + nb + ib);
    Matrix A0 = A;
    Matrix T(std::min(ib, nb), nb);
    gelqt(A.view(), T.view(), ib);
    Matrix Q = Matrix::identity(n);
    unmlq(Trans::No, A.cview(), T.cview(), Q.view(), ib);
    test::expect_orthogonal(Q.cview(), 1e-13, test::kind_name(kind));
    Matrix L(nb, n);
    for (int j = 0; j < nb; ++j)
      for (int i = j; i < nb; ++i) L(i, j) = A(i, j);
    EXPECT_LT(test::backward_error(A0.cview(), L.cview(), Q.cview()),
              1e-13 * n)
        << test::kind_name(kind) << " nb=" << nb << " ib=" << ib;
  }
}

INSTANTIATE_TEST_SUITE_P(Kinds, PanelRobustness,
                         ::testing::Values(MatKind::Gaussian,
                                           MatKind::IllConditioned,
                                           MatKind::RankDeficient,
                                           MatKind::Graded));

// ---------------------------------------------------------- e2e spectrum ---

// ge2bnd -> band extraction -> bulge-chasing -> dqds on the bidiagonal:
// the full value pipeline must recover prescribed singular values to
// O(eps ||A||). This is the one test that ties the factorization layers
// (with the recursive panels on the hot path) to the spectrum.
class SpectrumE2E
    : public ::testing::TestWithParam<std::tuple<SvProfile, BidiagAlg>> {};

TEST_P(SpectrumE2E, PrescribedValuesSurviveThePipeline) {
  const auto [profile, alg] = GetParam();
  const int p = 4, q = 3, nb = 8;
  const int m = p * nb, n = q * nb;
  GenOptions gopt;
  gopt.profile = profile;
  gopt.cond = 1e6;
  gopt.seed = 18'000 + static_cast<int>(profile) * 7 +
              static_cast<int>(alg);
  std::vector<double> sv;
  Matrix A = generate_latms(m, n, gopt, sv);

  TileMatrix tiled(m, n, nb);
  tiled.from_dense(A.cview());
  Ge2bndOptions opt;
  opt.alg = alg;
  opt.ib = 5;  // deliberately not dividing nb
  opt.nthreads = 2;
  ExecResult r = ge2bnd(tiled, opt);
  EXPECT_GT(r.ntasks, 0u);

  BandMatrix band = band_from_tiles(tiled);
  Bidiagonal bd = bnd2bd(band);
  std::vector<double> got = bd2val(bd);

  ASSERT_GE(got.size(), sv.size());
  // sigma_max == 1 by construction, so O(eps ||A||) is an absolute bound.
  const double tol = 1e-12 * n;
  for (std::size_t i = 0; i < sv.size(); ++i) {
    EXPECT_NEAR(got[i], sv[i], tol) << "sv " << i;
  }
  for (std::size_t i = sv.size(); i < got.size(); ++i) {
    EXPECT_NEAR(got[i], 0.0, tol) << "padding sv " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    ProfilesAndAlgs, SpectrumE2E,
    ::testing::Combine(::testing::Values(SvProfile::Geometric,
                                         SvProfile::Arithmetic,
                                         SvProfile::Clustered,
                                         SvProfile::Random),
                       ::testing::Values(BidiagAlg::Bidiag,
                                         BidiagAlg::RBidiag)));

}  // namespace
}  // namespace tbsvd
