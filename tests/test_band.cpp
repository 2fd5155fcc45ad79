// Band stage validation: band storage and its dense views, the BND2BD
// Householder bulge chase in float and double (singular values preserved
// vs the Jacobi oracle, over ragged, wide, narrow, zero and graded bands),
// BD2VAL (dqds) vs Sturm bisection vs Jacobi, and BD2VAL's relative-accuracy
// tier in float and double.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <tuple>
#include <type_traits>

#include "band/band_matrix.hpp"
#include "band/bd2val.hpp"
#include "band/bnd2bd.hpp"
#include "band/sturm.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "lac/jacobi_svd.hpp"
#include "test_harness.hpp"

namespace tbsvd {
namespace {

// Random upper band of width ku, rounded to T. With decades > 0 column j
// is scaled by 10^(-decades * j / (n - 1)), so the trailing reflectors of
// the chase see entries far below 1.
template <class T = double>
BandMatrixT<T> random_band(int n, int ku, std::uint64_t seed,
                           double decades = 0.0) {
  Rng rng(seed);
  BandMatrixT<T> B(n, 0, ku);
  for (int j = 0; j < n; ++j) {
    const double g = std::pow(10.0, -decades * j / std::max(1, n - 1));
    for (int i = std::max(0, j - ku); i <= j; ++i) {
      B.at(i, j) = static_cast<T>(g * rng.normal());
    }
  }
  return B;
}

TEST(BandMatrix, StorageAndDense) {
  BandMatrix B(6, 1, 2);
  B.at(0, 0) = 1.0;
  B.at(0, 2) = 2.0;
  B.at(3, 2) = 3.0;  // subdiagonal slot
  EXPECT_EQ(B.get(0, 0), 1.0);
  EXPECT_EQ(B.get(0, 2), 2.0);
  EXPECT_EQ(B.get(3, 2), 3.0);
  EXPECT_EQ(B.get(0, 3), 0.0);   // outside band
  EXPECT_EQ(B.get(5, 0), 0.0);   // outside band
  EXPECT_FALSE(B.in_band(0, 3));
  EXPECT_TRUE(B.in_band(3, 2));
  Matrix D = B.to_dense();
  EXPECT_EQ(D(0, 0), 1.0);
  EXPECT_EQ(D(0, 2), 2.0);
  EXPECT_EQ(D(3, 2), 3.0);
  EXPECT_EQ(D(4, 0), 0.0);
}

TEST(BandMatrix, ViewIsDenseRectangleOfTheBand) {
  BandMatrix B(8, 2, 3);
  for (int j = 0; j < 8; ++j) {
    for (int i = std::max(0, j - 3); i <= std::min(7, j + 2); ++i) {
      B.at(i, j) = 10.0 * i + j;
    }
  }
  // Rows 2..4 x columns 3..4: i - j spans [-2, 1], inside kl = 2, ku = 3.
  MatrixView V = B.view(2, 3, 3, 2);
  EXPECT_EQ(V.ld, 5);  // ldab - 1 = kl + ku
  for (int jj = 0; jj < 2; ++jj) {
    for (int ii = 0; ii < 3; ++ii) {
      EXPECT_EQ(V(ii, jj), B.get(2 + ii, 3 + jj)) << ii << "," << jj;
    }
  }
  V(1, 1) = -1.0;
  EXPECT_EQ(B.get(3, 4), -1.0);
  // A row segment is a 1 x n view with stride ld, as larfg takes it.
  MatrixView R = B.view(1, 1, 1, 4);
  for (int k = 0; k < 4; ++k) EXPECT_EQ(R(0, k), B.get(1, 1 + k)) << k;
  // A column segment reaching the deepest subdiagonal.
  MatrixView C = B.view(5, 5, 3, 1);
  for (int k = 0; k < 3; ++k) EXPECT_EQ(C(k, 0), B.get(5 + k, 5)) << k;
#ifndef NDEBUG
  EXPECT_THROW((void)B.view(0, 0, 1, 5), internal_error);  // (0, 4) past ku
  EXPECT_THROW((void)B.view(3, 0, 1, 1), internal_error);  // (3, 0) past kl
  EXPECT_THROW((void)B.view(6, 6, 3, 1), internal_error);  // row 8 past n
#endif
}

// bnd2bd<T>(B) must preserve B's singular values: compare the Jacobi
// spectrum of the returned bidiagonal with the Jacobi spectrum of B, to
// 45 n eps_T of sigma_max (the chase is a sequence of orthogonal
// transformations, normwise backward stable). The sweep pipeline must not
// change a bit: bnd2bd(B, t) for t = 2, 3, 4 equals bnd2bd(B, 1) exactly
// (bands with floor(n / 3b) >= 3 run it on min(t, floor(n / 3b)) workers).
template <class T>
void expect_bnd2bd_preserves_sv(const BandMatrixT<T>& B) {
  const int n = B.n();
  const auto ref = jacobi_singular_values<T>(B.to_dense().cview());
  const BidiagonalT<T> bd = bnd2bd<T>(B);
  ASSERT_EQ(static_cast<int>(bd.d.size()), n);
  ASSERT_EQ(static_cast<int>(bd.e.size()), std::max(0, n - 1));
  for (int t = 2; t <= 4; ++t) {
    const BidiagonalT<T> bt = bnd2bd<T>(B, t);
    for (int i = 0; i < n; ++i) {
      ASSERT_EQ(bt.d[i], bd.d[i]) << "d " << i << " t=" << t << " n=" << n;
    }
    for (int i = 0; i + 1 < n; ++i) {
      ASSERT_EQ(bt.e[i], bd.e[i]) << "e " << i << " t=" << t << " n=" << n;
    }
  }
  Matrix D(n, n);
  for (int i = 0; i < n; ++i) D(i, i) = bd.d[i];
  for (int i = 0; i + 1 < n; ++i) D(i, i + 1) = bd.e[i];
  const auto got = jacobi_singular_values(D.cview());
  ASSERT_EQ(got.size(), ref.size());
  const double tol =
      test::tol_eps<T>(45.0 * std::max(1, n)) * (ref.empty() ? 0.0 : ref[0]);
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_NEAR(got[i], ref[i], tol) << "sv " << i << " n=" << n
                                     << " ku=" << B.ku();
  }
}

class Bnd2bdP : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(Bnd2bdP, PreservesSingularValues) {
  const auto [n, ku] = GetParam();
  const std::uint64_t seed = 1234 + n * 100 + ku;
  expect_bnd2bd_preserves_sv<double>(random_band<double>(n, ku, seed));
  expect_bnd2bd_preserves_sv<float>(random_band<float>(n, ku, seed));
}

// n not a multiple of b (33, 5), (41, 7); b >= n (10, 9), (12, 12),
// (10, 15); the narrowest chased bands b = 2, 3; b <= 1 returns the input.
// The sweep pipeline runs on three workers for (31, 3), and on three and
// four for (50, 2), (64, 4) and the n % b != 0 shapes (61, 3), (101, 8),
// (200, 16).
INSTANTIATE_TEST_SUITE_P(
    SizesAndBandwidths, Bnd2bdP,
    ::testing::Values(std::tuple{1, 1}, std::tuple{2, 1}, std::tuple{4, 2},
                      std::tuple{8, 3}, std::tuple{16, 4}, std::tuple{16, 8},
                      std::tuple{33, 5}, std::tuple{40, 16},
                      std::tuple{64, 8}, std::tuple{50, 2},
                      std::tuple{31, 3}, std::tuple{41, 7},
                      std::tuple{10, 9}, std::tuple{12, 12},
                      std::tuple{10, 15}, std::tuple{12, 1},
                      std::tuple{7, 0}, std::tuple{61, 3},
                      std::tuple{64, 4}, std::tuple{101, 8},
                      std::tuple{200, 16}));

template <class T>
class Bnd2bdTyped : public ::testing::Test {};

using ScalarTypes = ::testing::Types<float, double>;
TYPED_TEST_SUITE(Bnd2bdTyped, ScalarTypes);

// Every reflector of an all-zero band has tau == 0; the result is exactly
// zero.
TYPED_TEST(Bnd2bdTyped, ZeroBandStaysZero) {
  using T = TypeParam;
  const BidiagonalT<T> bd = bnd2bd<T>(BandMatrixT<T>(20, 0, 6));
  for (T v : bd.d) EXPECT_EQ(v, T(0));
  for (T v : bd.e) EXPECT_EQ(v, T(0));
}

// A zero row mid-matrix: reflectors whose tails are already zero (tau ==
// 0) interleave with live ones, and one singular value is exactly lost.
// n = 64 runs the sweep pipeline.
TYPED_TEST(Bnd2bdTyped, ZeroRowMidMatrix) {
  using T = TypeParam;
  const int ku = 5;
  for (const int n : {30, 64}) {
    BandMatrixT<T> B = random_band<T>(n, ku, 77);
    for (int j = n / 2; j <= std::min(n - 1, n / 2 + ku); ++j) {
      B.at(n / 2, j) = T(0);
    }
    expect_bnd2bd_preserves_sv<T>(B);
  }
}

// Columns graded down to 1e-300 (double) / 1e-36 (float): at these sizes
// some trailing reflectors' norms fall below larfg's safmin (min / eps),
// which runs its rescaling loop.
TYPED_TEST(Bnd2bdTyped, GradedBandRescuesTinyReflectors) {
  using T = TypeParam;
  const double decades = std::is_same_v<T, double> ? 300.0 : 36.0;
  for (const auto& [n, ku] : {std::pair{41, 7}, std::pair{64, 4}}) {
    const BandMatrixT<T> B = random_band<T>(n, ku, 88 + n, decades);
    const BidiagonalT<T> bd = bnd2bd<T>(B);
    for (T v : bd.d) EXPECT_TRUE(std::isfinite(v));
    for (T v : bd.e) EXPECT_TRUE(std::isfinite(v));
    expect_bnd2bd_preserves_sv<T>(B);
  }
}

TEST(Bnd2bd, AlreadyBidiagonalIsUntouched) {
  const int n = 10;
  BandMatrix B(n, 0, 1);
  Rng rng(5);
  for (int i = 0; i < n; ++i) {
    B.at(i, i) = rng.uniform(0.5, 2.0);
    if (i + 1 < n) B.at(i, i + 1) = rng.uniform(-1.0, 1.0);
  }
  Bidiagonal bd = bnd2bd(B);
  for (int i = 0; i < n; ++i) EXPECT_EQ(bd.d[i], B.get(i, i));
  for (int i = 0; i + 1 < n; ++i) EXPECT_EQ(bd.e[i], B.get(i, i + 1));
}

TEST(Bnd2bd, DiagonalInput) {
  BandMatrix B(5, 0, 3);
  for (int i = 0; i < 5; ++i) B.at(i, i) = i + 1.0;
  Bidiagonal bd = bnd2bd(B);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(bd.d[i], i + 1.0);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(bd.e[i], 0.0);
}

class Bd2valP : public ::testing::TestWithParam<int> {};

TEST_P(Bd2valP, MatchesSturmAndJacobi) {
  const int n = GetParam();
  Rng rng(999 + n);
  std::vector<double> d(n), e(std::max(0, n - 1));
  for (auto& v : d) v = rng.normal();
  for (auto& v : e) v = rng.normal();

  auto qr = bd2val(d, e);
  auto st = sturm_singular_values(d, e);
  ASSERT_EQ(qr.size(), static_cast<std::size_t>(n));
  double smax = st.empty() ? 1.0 : st[0];
  for (int i = 0; i < n; ++i) {
    EXPECT_NEAR(qr[i], st[i], 1e-10 * (1.0 + smax)) << "sv " << i;
  }

  Matrix D(n, n);
  for (int i = 0; i < n; ++i) D(i, i) = d[i];
  for (int i = 0; i + 1 < n; ++i) D(i, i + 1) = e[i];
  auto jac = jacobi_singular_values(D.cview());
  for (int i = 0; i < n; ++i) {
    EXPECT_NEAR(qr[i], jac[i], 1e-10 * (1.0 + smax)) << "sv " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, Bd2valP,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 30, 64, 100,
                                           200));

TEST(Bd2val, ZeroMatrix) {
  auto sv = bd2val(std::vector<double>(5, 0.0), std::vector<double>(4, 0.0));
  for (double s : sv) EXPECT_EQ(s, 0.0);
}

TEST(Bd2val, ZeroDiagonalEntries) {
  // Exact zero on the diagonal exercises the zero-shift path.
  std::vector<double> d = {1.0, 0.0, 2.0, 0.5, 0.0};
  std::vector<double> e = {0.5, 0.7, -0.3, 0.2};
  auto qr = bd2val(d, e);
  auto st = sturm_singular_values(d, e);
  for (std::size_t i = 0; i < qr.size(); ++i)
    EXPECT_NEAR(qr[i], st[i], 1e-11);
}

TEST(Bd2val, ClusteredValues) {
  const int n = 50;
  std::vector<double> d(n, 1.0), e(n - 1, 1e-8);
  auto qr = bd2val(d, e);
  for (double s : qr) EXPECT_NEAR(s, 1.0, 1e-6);
}

TEST(Bd2val, HugeDynamicRange) {
  std::vector<double> d = {1e150, 1.0, 1e-150};
  std::vector<double> e = {1e10, 1e-10};
  auto qr = bd2val(d, e);
  EXPECT_GT(qr[0], 9e149);
  ASSERT_EQ(qr.size(), 3u);
}

// ------------------------------------------------ relative accuracy ---
// dqds finds every singular value of a bidiagonal to high relative
// accuracy, so this tier bounds |sigma_i - ref_i| by k * n * eps_T *
// ref_i rather than by sigma_max. The oracle is one-sided Jacobi in
// double, which is itself relatively accurate on column-graded B' * D
// with a well-conditioned B' (zero diagonals, where it is not, are in
// test_sturm.cpp against a relative bisection oracle).

template <class T>
class Bd2valRelative : public ::testing::Test {};
TYPED_TEST_SUITE(Bd2valRelative, ScalarTypes);

// Per-value relative bound of the tier, in units of n * eps_T.
constexpr double kRelK = 4.0;

template <class T>
std::vector<double> jacobi_of_bidiagonal(const std::vector<T>& d,
                                         const std::vector<T>& e) {
  const int n = static_cast<int>(d.size());
  MatrixT<T> B(n, n);
  for (int i = 0; i < n; ++i) B(i, i) = d[i];
  for (int i = 0; i + 1 < n; ++i) B(i, i + 1) = e[i];
  return jacobi_singular_values<T>(B.cview());
}

// B = B' * D with d' = 1, e' = 0.5 and D = diag(10^(-decades * j / (n-1)))
// (reversed when ascending): singular values spread over `decades`
// decades, each determined to full relative accuracy by the entries.
template <class T>
void graded_columns(int n, double decades, bool ascending, std::vector<T>& d,
                    std::vector<T>& e) {
  d.assign(n, T(0));
  e.assign(std::max(0, n - 1), T(0));
  for (int j = 0; j < n; ++j) {
    const int k = ascending ? n - 1 - j : j;
    const T dj =
        static_cast<T>(std::pow(10.0, -decades * k / std::max(1, n - 1)));
    d[j] = dj;
    if (j > 0) e[j - 1] = T(0.5) * dj;
  }
}

template <class T>
constexpr double graded_decades() {
  return std::is_same_v<T, float> ? 5.0 : 12.0;
}

TYPED_TEST(Bd2valRelative, GradedColumnsMatchJacobi) {
  using T = TypeParam;
  for (int n : {2, 3, 16, 40, 96}) {
    for (bool ascending : {false, true}) {
      SCOPED_TRACE(testing::Message() << "n " << n << " ascending "
                                      << ascending);
      std::vector<T> d, e;
      graded_columns<T>(n, graded_decades<T>(), ascending, d, e);
      const auto ref = jacobi_of_bidiagonal(d, e);
      EXPECT_LT(ref.back(), 1e-4 * ref.front());  // really graded
      test::expect_relative_sv(bd2val<T>(d, e), ref, kRelK);
    }
  }
}

// The top q is far smaller than the bottom one (1.5 q[lo] < q[hi]), so
// dqds reverses the array before it starts; the signs of the entries do
// not matter.
TYPED_TEST(Bd2valRelative, ReversedBlockMatchesJacobi) {
  using T = TypeParam;
  const int n = 24;
  std::vector<T> d(n), e(n - 1);
  for (int i = 0; i < n; ++i) {
    d[i] = static_cast<T>((i % 2 ? -1.0 : 1.0) * std::pow(2.0, i - n + 1));
  }
  for (int i = 0; i + 1 < n; ++i) e[i] = d[i + 1] / T(3);
  ASSERT_LT(T(1.5) * d[0] * d[0], d[n - 1] * d[n - 1]);
  test::expect_relative_sv(bd2val<T>(d, e), jacobi_of_bidiagonal(d, e), kRelK);
}

TYPED_TEST(Bd2valRelative, RandomSmallSizesMatchJacobi) {
  using T = TypeParam;
  for (int n : {1, 2, 3, 4, 7, 33}) {
    SCOPED_TRACE(testing::Message() << "n " << n);
    Rng rng(5100 + n);
    std::vector<T> d(n), e(std::max(0, n - 1));
    for (auto& v : d) v = static_cast<T>(rng.normal());
    for (auto& v : e) v = static_cast<T>(rng.normal());
    test::expect_relative_sv(bd2val<T>(d, e), jacobi_of_bidiagonal(d, e),
                             kRelK);
  }
}

// An exact zero e splits the bidiagonal: the spectrum is the union of the
// two blocks' spectra, which dqds finds block by block.
TYPED_TEST(Bd2valRelative, ZeroInteriorESplits) {
  using T = TypeParam;
  const int n = 30, cut = 11;
  std::vector<T> d, e;
  graded_columns<T>(n, graded_decades<T>(), false, d, e);
  e[cut - 1] = T(0);
  const std::vector<T> top_d(d.begin(), d.begin() + cut);
  const std::vector<T> top_e(e.begin(), e.begin() + cut - 1);
  const std::vector<T> bot_d(d.begin() + cut, d.end());
  const std::vector<T> bot_e(e.begin() + cut, e.end());
  std::vector<double> halves;
  for (T v : bd2val<T>(top_d, top_e)) halves.push_back(v);
  for (T v : bd2val<T>(bot_d, bot_e)) halves.push_back(v);
  std::sort(halves.begin(), halves.end(), std::greater<>());
  const auto whole = bd2val<T>(d, e);
  test::expect_relative_sv(whole, halves, 1.0);
  test::expect_relative_sv(whole, jacobi_of_bidiagonal(d, e), kRelK);
}

TYPED_TEST(Bd2valRelative, ClusteredValuesMatchJacobi) {
  using T = TypeParam;
  const int n = 40;
  Rng rng(6161);
  std::vector<T> d(n), e(n - 1);
  for (auto& v : d) v = static_cast<T>(1.0 + 1e-3 * rng.uniform(-1.0, 1.0));
  for (auto& v : e) v = static_cast<T>(1e-4 * rng.uniform(-1.0, 1.0));
  test::expect_relative_sv(bd2val<T>(d, e), jacobi_of_bidiagonal(d, e), kRelK);
}

// float dqds against double dqds on the same (float) input: both are
// relatively accurate, so they agree to float's relative bound on every
// value, however small.
TEST(Bd2valRelativeF32, FloatMatchesDouble) {
  for (int n : {3, 17, 64, 150}) {
    for (int graded = 0; graded < 2; ++graded) {
      SCOPED_TRACE(testing::Message() << "n " << n << " graded " << graded);
      std::vector<float> d, e;
      if (graded) {
        graded_columns<float>(n, 5.0, n % 2 == 1, d, e);
      } else {
        Rng rng(6262 + n);
        d.resize(n);
        e.resize(n - 1);
        for (auto& v : d) v = static_cast<float>(rng.normal());
        for (auto& v : e) v = static_cast<float>(rng.normal());
      }
      const std::vector<double> dd(d.begin(), d.end()), ed(e.begin(), e.end());
      test::expect_relative_sv(bd2val<float>(d, e), bd2val<double>(dd, ed),
                               kRelK);
    }
  }
}

TEST(Sturm, CountIsMonotonic) {
  std::vector<double> d = {3.0, 1.0, 2.0};
  std::vector<double> e = {0.5, 0.25};
  int prev = 0;
  for (double x = 0.0; x < 5.0; x += 0.25) {
    const int c = tgk_sturm_count(d, e, x);
    EXPECT_GE(c, prev);
    prev = c;
  }
  // All 6 eigenvalues of TGK are below a large bound; half below 0+.
  EXPECT_EQ(tgk_sturm_count(d, e, 100.0), 6);
  EXPECT_EQ(tgk_sturm_count(d, e, 1e-14), 3);
}

TEST(Sturm, ExactOnDiagonal) {
  std::vector<double> d = {4.0, 2.0, 1.0};
  std::vector<double> e = {0.0, 0.0};
  auto sv = sturm_singular_values(d, e);
  EXPECT_NEAR(sv[0], 4.0, 1e-12);
  EXPECT_NEAR(sv[1], 2.0, 1e-12);
  EXPECT_NEAR(sv[2], 1.0, 1e-12);
}

}  // namespace
}  // namespace tbsvd
