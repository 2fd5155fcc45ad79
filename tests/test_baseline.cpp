// Baseline validation: GEBD2 (Level-2), GEBRD (blocked LABRD), and Chan's
// preQR algorithm all reproduce prescribed singular values and agree with
// the Jacobi oracle.
#include <gtest/gtest.h>

#include <tuple>

#include "baseline/chan.hpp"
#include "baseline/gebd2.hpp"
#include "baseline/gebrd.hpp"
#include "lac/jacobi_svd.hpp"
#include "tile/matrix_gen.hpp"

namespace tbsvd {
namespace {

class BaselineShapes
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(BaselineShapes, Gebd2MatchesJacobi) {
  const auto [m, n] = GetParam();
  Matrix A = generate_random(m, n, 11 + m + n);
  const auto ref = jacobi_singular_values(A.cview());
  const auto got = gebd2_singular_values(A.cview());
  ASSERT_EQ(got.size(), ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i)
    EXPECT_NEAR(got[i], ref[i], 1e-10 * (1.0 + ref[0])) << "sv " << i;
}

TEST_P(BaselineShapes, GebrdMatchesGebd2) {
  const auto [m, n] = GetParam();
  Matrix A = generate_random(m, n, 13 + m + n);
  const auto ref = gebd2_singular_values(A.cview());
  for (int nb : {4, 8, 32}) {
    GebrdOptions opts;
    opts.nb = nb;
    const auto got = gebrd_singular_values(A.cview(), opts);
    ASSERT_EQ(got.size(), ref.size());
    for (std::size_t i = 0; i < ref.size(); ++i)
      EXPECT_NEAR(got[i], ref[i], 1e-10 * (1.0 + ref[0]))
          << "nb=" << nb << " sv " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, BaselineShapes,
                         ::testing::Values(std::tuple{1, 1},
                                           std::tuple{8, 8},
                                           std::tuple{16, 16},
                                           std::tuple{33, 20},
                                           std::tuple{64, 64},
                                           std::tuple{80, 24},
                                           std::tuple{100, 7}));

TEST(Gebrd, ThreadedTrailingUpdateMatchesSerial) {
  Matrix A = generate_random(96, 64, 21);
  GebrdOptions s, t;
  s.nb = 16;
  s.nthreads = 1;
  t.nb = 16;
  t.nthreads = 2;
  const auto sv_s = gebrd_singular_values(A.cview(), s);
  const auto sv_t = gebrd_singular_values(A.cview(), t);
  for (std::size_t i = 0; i < sv_s.size(); ++i)
    EXPECT_NEAR(sv_s[i], sv_t[i], 1e-12 * (1.0 + sv_s[0]));
}

TEST(Gebrd, PrescribedSpectrumRecovered) {
  GenOptions gopt;
  gopt.profile = SvProfile::Geometric;
  gopt.cond = 1e5;
  std::vector<double> sv;
  Matrix A = generate_latms(60, 40, gopt, sv);
  GebrdOptions opts;
  opts.nb = 12;
  const auto got = gebrd_singular_values(A.cview(), opts);
  for (std::size_t i = 0; i < sv.size(); ++i)
    EXPECT_NEAR(got[i], sv[i], 1e-10) << "sv " << i;
}

TEST(Chan, SwitchRuleAndCorrectness) {
  EXPECT_TRUE(chan_uses_preqr(120, 100));
  EXPECT_FALSE(chan_uses_preqr(110, 100));

  // Tall-and-skinny: preQR path.
  GenOptions gopt;
  gopt.profile = SvProfile::Arithmetic;
  gopt.cond = 100.0;
  std::vector<double> sv;
  Matrix A = generate_latms(90, 20, gopt, sv);
  const auto got = chan_singular_values(A.cview());
  ASSERT_EQ(got.size(), sv.size());
  for (std::size_t i = 0; i < sv.size(); ++i)
    EXPECT_NEAR(got[i], sv[i], 1e-11) << "sv " << i;

  // Square: plain GEBRD path, same answer.
  Matrix B = generate_latms(24, 24, gopt, sv);
  const auto got2 = chan_singular_values(B.cview());
  for (std::size_t i = 0; i < sv.size(); ++i)
    EXPECT_NEAR(got2[i], sv[i], 1e-11) << "sv " << i;
}

}  // namespace
}  // namespace tbsvd
