// Sturm-bisection cross-validation tier (docs/ROBUSTNESS.md): the
// bisection oracle in band/sturm.hpp is BD2VAL's graceful-degradation
// path, so it must agree with dqds wherever both run. Random,
// graded (geometrically decaying, both orientations) and mixed-magnitude
// bidiagonals are checked both ways, plus the invariant that a forced
// fallback through the public bd2val entry matches the primary path. A
// relative-accuracy tier checks dqds against bisection at geometric
// midpoints, which resolves every value, however small, to relative eps.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "band/bd2val.hpp"
#include "band/sturm.hpp"
#include "common/rng.hpp"
#include "test_harness.hpp"

namespace tbsvd {
namespace {

struct Bd {
  std::vector<double> d, e;
};

Bd random_bidiagonal(int n, std::uint64_t seed) {
  Rng rng(seed);
  Bd b;
  b.d.resize(n);
  b.e.resize(std::max(0, n - 1));
  for (auto& v : b.d) v = rng.normal();
  for (auto& v : b.e) v = rng.normal();
  return b;
}

// Graded bidiagonal: entries decay geometrically by `ratio` per index
// (descending for ratio < 1, ascending for ratio > 1) — the classic hard
// case for shifted QR, easy for bisection.
Bd graded_bidiagonal(int n, double ratio, std::uint64_t seed) {
  Rng rng(seed);
  Bd b;
  b.d.resize(n);
  b.e.resize(std::max(0, n - 1));
  double mag = 1.0;
  for (int i = 0; i < n; ++i) {
    b.d[i] = mag * rng.uniform(0.5, 1.5);
    if (i + 1 < n) b.e[i] = mag * rng.uniform(-1.0, 1.0);
    mag *= ratio;
  }
  return b;
}

void expect_spectra_match(const Bd& b, double tol_scale = 1e-10) {
  const auto qr = bd2val(b.d, b.e);
  const auto st = sturm_singular_values(b.d, b.e);
  ASSERT_EQ(qr.size(), st.size());
  const double smax = st.empty() ? 1.0 : st[0];
  for (std::size_t i = 0; i < qr.size(); ++i) {
    EXPECT_NEAR(qr[i], st[i], tol_scale * (1.0 + smax)) << "sv " << i;
  }
}

class SturmRandomP : public ::testing::TestWithParam<int> {};

TEST_P(SturmRandomP, AgreesWithQrIteration) {
  const int n = GetParam();
  expect_spectra_match(random_bidiagonal(n, 7100 + n));
}

INSTANTIATE_TEST_SUITE_P(Sizes, SturmRandomP,
                         ::testing::Values(1, 2, 3, 7, 16, 33, 80, 150));

class SturmGradedP
    : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(SturmGradedP, AgreesWithQrIteration) {
  const auto [n, ratio] = GetParam();
  // Graded spectra span many decades; compare at absolute accuracy
  // relative to sigma_max, which is what both methods guarantee.
  expect_spectra_match(graded_bidiagonal(n, ratio, 9300 + n));
}

INSTANTIATE_TEST_SUITE_P(
    Gradings, SturmGradedP,
    ::testing::Values(std::tuple{24, 0.5}, std::tuple{24, 2.0},
                      std::tuple{40, 0.25}, std::tuple{40, 4.0},
                      std::tuple{64, 0.8}, std::tuple{16, 0.1}));

// ------------------------------------------------ relative accuracy ---
// The Sturm count on TGK(d, e) is relatively accurate for a bidiagonal
// (Demmel-Kahan), so bisecting it at geometric midpoints down to a
// relative width of eps gives every sigma_i to high relative accuracy: an
// oracle independent of dqds that, unlike Jacobi, needs no grading
// structure. Values below `floor` come back as 0.
std::vector<double> relative_bisection(const Bd& b, double floor) {
  const int n = static_cast<int>(b.d.size());
  double bound = floor;
  for (int i = 0; i < n; ++i) {
    double s = std::fabs(b.d[i]);
    if (i > 0) s += std::fabs(b.e[i - 1]);
    if (i + 1 < n) s += std::fabs(b.e[i]);
    bound = std::max(bound, 1.01 * s);
  }
  std::vector<double> sv(n);
  for (int k = 0; k < n; ++k) {
    const int want = n + (n - 1 - k);  // count above which x > sigma_k
    double lo = floor, hi = bound;
    if (tgk_sturm_count(b.d, b.e, lo) > want) continue;  // sigma_k < floor
    while (hi - lo > 1e-17 * lo) {
      const double mid = std::sqrt(lo) * std::sqrt(hi);
      if (mid <= lo || mid >= hi) break;
      (tgk_sturm_count(b.d, b.e, mid) > want ? hi : lo) = mid;
    }
    sv[k] = lo;
  }
  return sv;
}

// dqds against relative bisection at 4 n eps_T * sigma_i, in double and
// (on the float-rounded input) in float.
void expect_relative_match(const Bd& b, double floor = 1e-200) {
  test::expect_relative_sv(bd2val(b.d, b.e), relative_bisection(b, floor),
                           4.0);
  Bd f = b;
  for (auto& v : f.d) v = static_cast<float>(v);
  for (auto& v : f.e) v = static_cast<float>(v);
  const std::vector<float> df(f.d.begin(), f.d.end()),
      ef(f.e.begin(), f.e.end());
  test::expect_relative_sv(bd2val<float>(df, ef), relative_bisection(f, floor),
                           4.0);
}

class SturmRelativeP
    : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(SturmRelativeP, DqdsIsRelativelyAccurate) {
  const auto [n, ratio] = GetParam();
  expect_relative_match(graded_bidiagonal(n, ratio, 9300 + n));
}

INSTANTIATE_TEST_SUITE_P(
    Gradings, SturmRelativeP,
    ::testing::Values(std::tuple{24, 0.5}, std::tuple{24, 2.0},
                      std::tuple{40, 0.25}, std::tuple{40, 4.0},
                      std::tuple{64, 0.8}, std::tuple{16, 0.1},
                      std::tuple{3, 1e-3}, std::tuple{2, 1e3}));

TEST(SturmRelative, RandomBidiagonalsKeepTinyValues) {
  // Random bidiagonals have exponentially small sigma_min (~1e-16 at
  // n = 80), far below sigma_max * eps: only relative accuracy keeps it.
  for (int n : {1, 2, 3, 20, 80}) {
    SCOPED_TRACE(n);
    expect_relative_match(random_bidiagonal(n, 7300 + n));
  }
}

TEST(SturmRelative, ZeroDiagonalsKeepTheRestAccurate) {
  // Exact zeros on the diagonal (first, interior pair, last) make B
  // singular; the nonzero values stay relatively accurate.
  Bd b = random_bidiagonal(20, 6060);
  for (int i : {0, 7, 8, 19}) b.d[i] = 0.0;
  expect_relative_match(b);
  EXPECT_LE(bd2val(b.d, b.e).back(), 1e-300);
}

TEST(Sturm, ForcedFallbackThroughBd2valMatchesPrimaryPath) {
  const Bd b = random_bidiagonal(60, 424242);
  const auto primary = bd2val(b.d, b.e);
  Bd2valOptions opts;
  opts.max_sweeps_per_value = 0;  // starve the QR iteration
  Bd2valInfo info;
  const auto fallback = bd2val(b.d, b.e, opts, &info);
  EXPECT_TRUE(info.bisection_fallback);
  EXPECT_EQ(info.status, Status::Degraded);
  ASSERT_EQ(fallback.size(), primary.size());
  for (std::size_t i = 0; i < primary.size(); ++i) {
    EXPECT_NEAR(fallback[i], primary[i], 1e-10 * (1.0 + primary[0]));
  }
}

TEST(Sturm, NonFiniteInputThrowsTyped) {
  std::vector<double> d = {1.0, std::nan(""), 2.0};
  std::vector<double> e = {0.5, 0.5};
  EXPECT_THROW(sturm_singular_values(d, e), numerical_hazard_error);
}

}  // namespace
}  // namespace tbsvd
