// Banded matrix storage (LAPACK general-band layout) used between the
// GE2BND and BND2BD stages. GE2BND leaves the band implicitly in the tiled
// matrix (diagonal tiles upper-triangular, superdiagonal tiles
// lower-triangular, Householder data elsewhere); band_from_tiles extracts
// exactly the band part. Templated over the scalar type T in {float,
// double}; the unsuffixed BandMatrix remains the double alias.
#pragma once

#include <vector>

#include "lac/dense.hpp"
#include "tile/tile_matrix.hpp"

namespace tbsvd {

/// n x n band matrix with kl subdiagonals and ku superdiagonals.
/// Entry (i, j) is stored iff -ku <= i - j <= kl.
template <class T>
class BandMatrixT {
 public:
  BandMatrixT() = default;
  BandMatrixT(int n, int kl, int ku);

  [[nodiscard]] int n() const noexcept { return n_; }
  [[nodiscard]] int kl() const noexcept { return kl_; }
  [[nodiscard]] int ku() const noexcept { return ku_; }

  [[nodiscard]] bool in_band(int i, int j) const noexcept {
    const int d = i - j;
    return d <= kl_ && -d <= ku_;
  }

  /// Mutable in-band element (caller must ensure in_band).
  [[nodiscard]] T& at(int i, int j) noexcept {
    return ab_[static_cast<std::size_t>(j) * ldab_ + (ku_ + i - j)];
  }
  /// Value with zero outside the band.
  [[nodiscard]] T get(int i, int j) const noexcept {
    if (i < 0 || j < 0 || i >= n_ || j >= n_ || !in_band(i, j)) return T(0);
    return ab_[static_cast<std::size_t>(j) * ldab_ + (ku_ + i - j)];
  }

  /// Dense column-major view of the m x n rectangle rooted at (i0, j0).
  /// Stepping one column right and one row down is one band column, so
  /// (i, j) sits at (i - j) + j * ldab and the rectangle has ld = ldab - 1.
  /// Every entry of the rectangle must lie in the stored band.
  [[nodiscard]] MatrixViewT<T> view(int i0, int j0, int m, int n) {
    TBSVD_ASSERT(i0 >= 0 && j0 >= 0 && i0 + m <= n_ && j0 + n <= n_);
    TBSVD_ASSERT(m == 0 || n == 0 ||
                 (in_band(i0 + m - 1, j0) && in_band(i0, j0 + n - 1)));
    return {&at(i0, j0), m, n, ldab_ - 1};
  }

  [[nodiscard]] MatrixT<T> to_dense() const;

 private:
  int n_ = 0, kl_ = 0, ku_ = 0, ldab_ = 1;
  std::vector<T> ab_;
};

using BandMatrix = BandMatrixT<double>;

/// Extract the band-bidiagonal result of GE2BND from the tiled matrix:
/// an n x n upper-band matrix with ku = nb (kl = 0), where n = A.cols().
/// Only the structurally meaningful parts of the tiles are read.
template <class T>
BandMatrixT<T> band_from_tiles(const TileMatrixT<T>& A);

}  // namespace tbsvd
