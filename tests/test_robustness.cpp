// Adversarial-input tier (docs/ROBUSTNESS.md): every public singular-value
// driver — tiled gesvd_values, batched::svd, the GEBRD/GEBD2/Chan
// baselines, bd2val, sturm — must turn NaN/Inf input into a typed error, absorb extreme norms
// (1e±300 scale) through safe pre-scaling with full relative accuracy, and
// handle zero matrices and degenerate shapes (1x1, empty) exactly. None of
// them may ever return silent garbage.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "band/sturm.hpp"
#include "baseline/chan.hpp"
#include "baseline/gebd2.hpp"
#include "baseline/gebrd.hpp"
#include "batched/batched.hpp"
#include "common/hazard.hpp"
#include "core/svd.hpp"
#include "tile/matrix_gen.hpp"
#include "test_harness.hpp"

namespace tbsvd {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

GesvdOptions small_opts() {
  GesvdOptions o;
  o.nb = 16;
  o.ge2bnd.ib = 8;
  return o;
}

// ------------------------------------------------------- hazard helpers ---

TEST(Hazard, ScanExtremesFindsNanInfAndMax) {
  Matrix A = test::random_matrix(5, 4, 11);
  EXPECT_TRUE(scan_extremes(A.cview()).finite);
  A(3, 2) = kNan;
  EXPECT_FALSE(scan_extremes(A.cview()).finite);
  A(3, 2) = kInf;
  EXPECT_FALSE(scan_extremes(A.cview()).finite);
  A(3, 2) = -7.5e4;
  const ExtremeScan s = scan_extremes(A.cview());
  EXPECT_TRUE(s.finite);
  EXPECT_EQ(s.amax, 7.5e4);
}

TEST(Hazard, StepwiseScalingHandlesExtremeRatios) {
  // 1e-300 -> safe range: the naive multiplier cto/cfrom would overflow.
  std::vector<double> x = {1e-300, -3e-301, 2e-300};
  const std::vector<double> orig = x;
  const double target = svd_safe_target(2e-300);
  EXPECT_EQ(target, svd_safe_min());
  scale_stepwise(x, 2e-300, target);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_TRUE(std::isfinite(x[i]));
    EXPECT_NEAR(x[i] / x[2], orig[i] / orig[2], 1e-14);
  }
  scale_stepwise(x, target, 2e-300);  // and back
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(x[i], orig[i], 1e-14 * std::fabs(orig[i]));
  }
}

TEST(Hazard, SafeTargetIsIdentityInRange) {
  EXPECT_EQ(svd_safe_target(1.0), 1.0);
  EXPECT_EQ(svd_safe_target(0.0), 0.0);
  EXPECT_EQ(svd_safe_target(1e300), svd_safe_max());
  EXPECT_EQ(svd_safe_target(1e-300), svd_safe_min());
}

// ------------------------------------------------- non-finite rejection ---

TEST(Adversarial, NonFiniteInputThrowsTypedEverywhere) {
  for (const double bad : {kNan, kInf, -kInf}) {
    Matrix A = test::random_matrix(24, 16, 77);
    A(13, 5) = bad;
    EXPECT_THROW(gesvd_values(A.cview(), small_opts()),
                 numerical_hazard_error);
    EXPECT_THROW(gebrd_singular_values(A.cview()), numerical_hazard_error);
    EXPECT_THROW(gebd2_singular_values(A.cview()), numerical_hazard_error);
    EXPECT_THROW(chan_singular_values(A.cview()), numerical_hazard_error);

    std::vector<double> d = {1.0, bad, 0.5};
    std::vector<double> e = {0.25, -0.25};
    EXPECT_THROW(bd2val(d, e), numerical_hazard_error);
    EXPECT_THROW(sturm_singular_values(d, e), numerical_hazard_error);
  }
}

TEST(Adversarial, TiledDriverRejectsPoisonedTile) {
  // GE2BND's own entry scan catches a tile poisoned after the driver scan.
  TileMatrix A(32, 32, 16);
  A.from_dense(test::random_matrix(32, 32, 3).cview());
  A.tile(1, 0)(7, 7) = kNan;
  EXPECT_THROW(ge2bnd(A, small_opts().ge2bnd), numerical_hazard_error);
}

// ------------------------------------------------------- extreme norms ----

class ExtremeNormP : public ::testing::TestWithParam<double> {};

TEST_P(ExtremeNormP, ScaledSolveMatchesUnscaledReference) {
  const double c = GetParam();
  // Well-conditioned reference problem, norm O(1).
  Matrix A = test::random_matrix(64, 48, 2026);
  const auto ref = gesvd_values(A.cview(), small_opts());

  Matrix B(64, 48);
  for (int j = 0; j < 48; ++j)
    for (int i = 0; i < 64; ++i) B(i, j) = c * A(i, j);

  SvdInfo info;
  const auto sv = gesvd_values(B.cview(), small_opts(), nullptr, &info);
  EXPECT_TRUE(info.scaled);
  EXPECT_EQ(info.status, Status::Ok);  // scaling is the clean path
  ASSERT_EQ(sv.size(), ref.size());
  // Acceptance bar: relative error <= 1e-12 against the unscaled
  // well-conditioned reference, per singular value.
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_NEAR(sv[i] / c, ref[i], 1e-12 * ref[i]) << "sv " << i;
  }
}

TEST_P(ExtremeNormP, BatchedMembersScaleToo) {
  const double c = GetParam();
  // One member per batched::svd path: 64 x 48 goes direct (n <= 48), and
  // 160 x 56 runs the tiled pipeline after the R-first preQR (m > 2n).
  std::vector<Matrix> mats = {test::random_matrix(64, 48, 2027),
                              test::random_matrix(160, 56, 2028)};
  batched::BatchOptions opts;
  opts.direct_max_cols = 48;
  std::vector<ConstMatrixView> views;
  for (const Matrix& a : mats) views.push_back(a.cview());
  const batched::SvdBatchResult ref = batched::svd<double>(views, opts);

  for (Matrix& a : mats) {
    for (int j = 0; j < a.cols(); ++j)
      for (int i = 0; i < a.rows(); ++i) a(i, j) *= c;
  }
  const batched::SvdBatchResult res = batched::svd<double>(views, opts);
  ASSERT_TRUE(ref.all_ok());
  ASSERT_TRUE(res.all_ok());
  for (std::size_t p = 0; p < mats.size(); ++p) {
    SCOPED_TRACE(p);
    EXPECT_TRUE(res.infos[p].scaled);
    ASSERT_EQ(res.values[p].size(), ref.values[p].size());
    for (std::size_t i = 0; i < ref.values[p].size(); ++i) {
      const double r = ref.values[p][i];
      EXPECT_NEAR(res.values[p][i] / c, r, 1e-12 * r) << "sv " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Scales, ExtremeNormP,
                         ::testing::Values(1e300, 1e-300, 1e290, 1e-290));

TEST(ExtremeNorm, BaselineDriversScaleToo) {
  Matrix A = test::random_matrix(40, 24, 515);
  const auto ref = gebrd_singular_values(A.cview());
  for (const double c : {1e300, 1e-300}) {
    Matrix B(40, 24);
    for (int j = 0; j < 24; ++j)
      for (int i = 0; i < 40; ++i) B(i, j) = c * A(i, j);
    const auto g = gebrd_singular_values(B.cview());
    const auto g2 = gebd2_singular_values(B.cview());
    const auto ch = chan_singular_values(B.cview());
    ASSERT_EQ(g.size(), ref.size());
    for (std::size_t i = 0; i < ref.size(); ++i) {
      EXPECT_NEAR(g[i] / c, ref[i], 1e-12 * ref[i]) << "gebrd sv " << i;
      EXPECT_NEAR(g2[i] / c, ref[i], 1e-10 * ref[i]) << "gebd2 sv " << i;
      EXPECT_NEAR(ch[i] / c, ref[i], 1e-10 * ref[i]) << "chan sv " << i;
    }
  }
}

// --------------------------------------------------- degenerate shapes ----

TEST(Degenerate, ZeroMatrixGivesExactZeros) {
  Matrix Z(32, 20);
  SvdInfo info;
  const auto sv = gesvd_values(Z.cview(), small_opts(), nullptr, &info);
  ASSERT_EQ(sv.size(), 20u);
  for (double s : sv) EXPECT_EQ(s, 0.0);
  EXPECT_FALSE(info.scaled);
  EXPECT_EQ(info.status, Status::Ok);
  for (double s : gebrd_singular_values(Z.cview())) EXPECT_EQ(s, 0.0);
  for (double s : chan_singular_values(Z.cview())) EXPECT_EQ(s, 0.0);
}

TEST(Degenerate, OneByOne) {
  Matrix A(1, 1);
  A(0, 0) = -3.5;
  const auto sv = gesvd_values(A.cview(), small_opts());
  ASSERT_EQ(sv.size(), 1u);
  EXPECT_NEAR(sv[0], 3.5, 1e-15);
  EXPECT_NEAR(gebrd_singular_values(A.cview())[0], 3.5, 1e-15);
  EXPECT_NEAR(chan_singular_values(A.cview())[0], 3.5, 1e-15);
}

TEST(Degenerate, EmptyShapes) {
  Matrix E(0, 0);
  EXPECT_TRUE(gesvd_values(E.cview(), small_opts()).empty());
  EXPECT_TRUE(gebrd_singular_values(E.cview()).empty());
  EXPECT_TRUE(gebd2_singular_values(E.cview()).empty());
  EXPECT_TRUE(chan_singular_values(E.cview()).empty());
  Matrix T(5, 0);
  EXPECT_TRUE(gesvd_values(T.cview(), small_opts()).empty());
  EXPECT_TRUE(bd2val(std::vector<double>{}, std::vector<double>{}).empty());
  EXPECT_TRUE(sturm_singular_values(std::vector<double>{},
                                    std::vector<double>{}).empty());
}

// --------------------------------------------------------- typed errors ---

TEST(TypedErrors, ShapeViolationsAreInvalidArgument) {
  Matrix A = test::random_matrix(8, 16, 1);  // m < n
  EXPECT_THROW(gesvd_values(A.cview(), small_opts()), invalid_argument_error);
  EXPECT_THROW(gebrd_singular_values(A.cview()), invalid_argument_error);
  EXPECT_THROW(chan_singular_values(A.cview()), invalid_argument_error);
  EXPECT_THROW(bd2val(std::vector<double>(4, 1.0), std::vector<double>(1)),
               invalid_argument_error);
  GesvdOptions bad = small_opts();
  bad.nb = -1;  // 0 is the tuned-default sentinel; negative is still a shape error
  Matrix B = test::random_matrix(8, 8, 2);
  EXPECT_THROW(gesvd_values(B.cview(), bad), invalid_argument_error);
  Bd2valOptions neg;
  neg.max_sweeps_per_value = -1;
  EXPECT_THROW(bd2val(std::vector<double>(3, 1.0), std::vector<double>(2),
                      neg),
               invalid_argument_error);
}

TEST(TypedErrors, DisabledFallbackThrowsConvergenceError) {
  Rng rng(88);
  std::vector<double> d(50), e(49);
  for (auto& v : d) v = rng.normal();
  for (auto& v : e) v = rng.normal();
  Bd2valOptions opts;
  opts.max_sweeps_per_value = 0;  // starve the iteration
  opts.allow_bisection_fallback = false;
  EXPECT_THROW(bd2val(d, e, opts), convergence_error);
}

TEST(TypedErrors, TaxonomyIsDistinguishable) {
  // internal_error must not be catchable as invalid_argument (and vice
  // versa): callers separate "my bug" from "library bug" by type.
  EXPECT_THROW(throw internal_error("x"), std::logic_error);
  EXPECT_THROW(throw invalid_argument_error("x"), std::invalid_argument);
  bool caught_as_invalid = false;
  try {
    throw internal_error("x");
  } catch (const std::invalid_argument&) {
    caught_as_invalid = true;
  } catch (...) {
  }
  EXPECT_FALSE(caught_as_invalid);
  EXPECT_STREQ(status_name(Status::Degraded), "degraded");
  EXPECT_STREQ(status_name(Status::NumericalHazard), "numerical_hazard");
}

// ------------------------------------------------------- degraded paths ---

TEST(Degraded, StarvedQrIterationFallsBackAndStaysCorrect) {
  // n = 48 after padding: the fixed 100-iteration slack budget cannot
  // finish 48 values (deflations alone need ~n outer iterations), so the
  // starved run must take the bisection fallback deterministically.
  Matrix A = test::random_matrix(64, 48, 909);
  const auto ref = gesvd_values(A.cview(), small_opts());
  GesvdOptions starved = small_opts();
  starved.bd2val.max_sweeps_per_value = 0;
  SvdInfo info;
  const auto sv = gesvd_values(A.cview(), starved, nullptr, &info);
  EXPECT_TRUE(info.bisection_fallback);
  EXPECT_EQ(info.status, Status::Degraded);
  ASSERT_EQ(sv.size(), ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_NEAR(sv[i], ref[i], 1e-10 * (1.0 + ref[0])) << "sv " << i;
  }
}

}  // namespace
}  // namespace tbsvd
