// Tile-matrix storage, block-cyclic distribution, and matrix generator.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "lac/blas.hpp"
#include "lac/jacobi_svd.hpp"
#include "tile/distribution.hpp"
#include "tile/matrix_gen.hpp"
#include "tile/tile_matrix.hpp"

namespace tbsvd {
namespace {

TEST(TileMatrix, RoundTripDense) {
  const int m = 24, n = 16, nb = 8;
  Matrix A = generate_random(m, n, 3);
  TileMatrix T(m, n, nb);
  T.from_dense(A.cview());
  Matrix B = T.to_dense();
  for (int j = 0; j < n; ++j)
    for (int i = 0; i < m; ++i) EXPECT_EQ(A(i, j), B(i, j));
}

TEST(TileMatrix, ElementAccessMatchesDense) {
  const int m = 12, n = 20, nb = 4;
  Matrix A = generate_random(m, n, 4);
  TileMatrix T(m, n, nb);
  T.from_dense(A.cview());
  for (int j = 0; j < n; ++j)
    for (int i = 0; i < m; ++i) EXPECT_EQ(T.at(i, j), A(i, j));
  // Tile views address the right elements.
  for (int tj = 0; tj < T.nt(); ++tj)
    for (int ti = 0; ti < T.mt(); ++ti) {
      auto tile = T.tile(ti, tj);
      for (int j = 0; j < nb; ++j)
        for (int i = 0; i < nb; ++i)
          EXPECT_EQ(tile(i, j), A(ti * nb + i, tj * nb + j));
    }
}

TEST(TileMatrix, RejectsNonMultipleShapes) {
  EXPECT_THROW(TileMatrix(10, 8, 4), invalid_argument_error);
  EXPECT_THROW(TileMatrix(8, 10, 4), invalid_argument_error);
}

TEST(TileMatrix, PaddedConstructionKeepsValuesAndZeros) {
  const int m = 10, n = 7, nb = 4;
  Matrix A = generate_random(m, n, 5);
  TileMatrix T = tile_from_dense_padded(A.cview(), nb);
  EXPECT_EQ(T.rows(), 12);
  EXPECT_EQ(T.cols(), 8);
  for (int j = 0; j < n; ++j)
    for (int i = 0; i < m; ++i) EXPECT_EQ(T.at(i, j), A(i, j));
  for (int j = n; j < T.cols(); ++j)
    for (int i = 0; i < T.rows(); ++i) EXPECT_EQ(T.at(i, j), 0.0);
  for (int i = m; i < T.rows(); ++i)
    for (int j = 0; j < T.cols(); ++j) EXPECT_EQ(T.at(i, j), 0.0);
}

// from_dense is the one copy routine behind tile_from_dense_padded: a
// smaller A lands in the leading rows and columns of a reused (dirty)
// TileMatrix, bitwise, and everything past it is zeroed; a larger A is
// rejected.
TEST(TileMatrix, FromDenseOfSmallerViewZeroesThePadding) {
  const int m = 13, n = 9, nb = 4;
  MatrixT<float> A(m, n);
  Rng rng(17);
  for (int j = 0; j < n; ++j)
    for (int i = 0; i < m; ++i) A(i, j) = static_cast<float>(rng.normal());
  TileMatrixT<float> T(16, 12, nb);
  for (int j = 0; j < T.cols(); ++j)
    for (int i = 0; i < T.rows(); ++i) T.at(i, j) = 7.0f;
  T.from_dense(A.cview());
  for (int j = 0; j < T.cols(); ++j)
    for (int i = 0; i < T.rows(); ++i)
      EXPECT_EQ(T.at(i, j), i < m && j < n ? A(i, j) : 0.0f) << i << "," << j;
  MatrixT<float> big(17, 9);
  EXPECT_THROW(T.from_dense(big.cview()), invalid_argument_error);
}

TEST(Distribution, BlockCyclicOwnership) {
  Distribution d(2, 3);
  EXPECT_EQ(d.nodes(), 6);
  EXPECT_EQ(d.owner(0, 0), 0);
  EXPECT_EQ(d.owner(0, 1), 1);
  EXPECT_EQ(d.owner(0, 2), 2);
  EXPECT_EQ(d.owner(1, 0), 3);
  EXPECT_EQ(d.owner(2, 3), 0);  // wraps both ways
}

TEST(Distribution, GridFactories) {
  auto sq = Distribution::square_grid(16);
  EXPECT_EQ(sq.grid_rows(), 4);
  EXPECT_EQ(sq.grid_cols(), 4);
  auto sq6 = Distribution::square_grid(6);
  EXPECT_EQ(sq6.grid_rows() * sq6.grid_cols(), 6);
  auto tall = Distribution::tall_grid(5);
  EXPECT_EQ(tall.grid_rows(), 5);
  EXPECT_EQ(tall.grid_cols(), 1);
  auto prime = Distribution::square_grid(7);
  EXPECT_EQ(prime.grid_rows() * prime.grid_cols(), 7);
}

TEST(MatrixGen, ProfilesHaveRequestedExtremes) {
  GenOptions opts;
  opts.cond = 100.0;
  for (auto p : {SvProfile::Arithmetic, SvProfile::Geometric,
                 SvProfile::Clustered, SvProfile::Random}) {
    opts.profile = p;
    auto sv = make_singular_values(10, opts);
    EXPECT_EQ(sv.size(), 10u);
    EXPECT_LE(sv.front(), 1.0 + 1e-15);
    for (size_t i = 1; i < sv.size(); ++i) EXPECT_LE(sv[i], sv[i - 1]);
    EXPECT_GE(sv.back(), 1.0 / opts.cond - 1e-15);
  }
  opts.profile = SvProfile::Geometric;
  auto sv = make_singular_values(10, opts);
  EXPECT_NEAR(sv.front() / sv.back(), opts.cond, 1e-9);
}

TEST(MatrixGen, GeneratedMatrixHasPrescribedSingularValues) {
  GenOptions opts;
  opts.profile = SvProfile::Geometric;
  opts.cond = 50.0;
  opts.seed = 77;
  std::vector<double> sv;
  Matrix A = generate_latms(30, 12, opts, sv);
  auto computed = jacobi_singular_values(A.cview());
  ASSERT_EQ(computed.size(), sv.size());
  for (size_t i = 0; i < sv.size(); ++i)
    EXPECT_NEAR(computed[i], sv[i], 1e-12);
}

TEST(MatrixGen, RandomMatrixIsReproducible) {
  Matrix A = generate_random(8, 8, 123);
  Matrix B = generate_random(8, 8, 123);
  Matrix C = generate_random(8, 8, 124);
  double diff_same = 0, diff_other = 0;
  for (int j = 0; j < 8; ++j)
    for (int i = 0; i < 8; ++i) {
      diff_same += std::fabs(A(i, j) - B(i, j));
      diff_other += std::fabs(A(i, j) - C(i, j));
    }
  EXPECT_EQ(diff_same, 0.0);
  EXPECT_GT(diff_other, 0.0);
}

}  // namespace
}  // namespace tbsvd
