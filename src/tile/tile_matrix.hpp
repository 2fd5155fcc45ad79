// Tiled matrix storage: the matrix is partitioned into nb x nb tiles, each
// stored contiguously in column-major order (PLASMA's CCRB layout). Tile
// (i, j) is the unit of data for the task runtime. Templated over the
// scalar type T in {float, double}; the unsuffixed TileMatrix remains the
// double alias.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "lac/dense.hpp"

namespace tbsvd {

/// Tile-contiguous matrix of scalars T. Element dimensions must be
/// multiples of the tile size nb (drivers pad workloads up front; see
/// pad_to_tiles).
template <class T>
class TileMatrixT {
 public:
  TileMatrixT() = default;

  /// m x n elements in nb x nb tiles; m and n must be multiples of nb.
  TileMatrixT(int m, int n, int nb);

  [[nodiscard]] int rows() const noexcept { return m_; }
  [[nodiscard]] int cols() const noexcept { return n_; }
  [[nodiscard]] int nb() const noexcept { return nb_; }
  /// Number of tile rows (p in the paper).
  [[nodiscard]] int mt() const noexcept { return mt_; }
  /// Number of tile columns (q in the paper).
  [[nodiscard]] int nt() const noexcept { return nt_; }

  /// Mutable view of tile (i, j); leading dimension is nb.
  [[nodiscard]] MatrixViewT<T> tile(int i, int j) noexcept {
    return {tile_ptr(i, j), nb_, nb_, nb_};
  }
  [[nodiscard]] ConstMatrixViewT<T> tile(int i, int j) const noexcept {
    return {tile_ptr(i, j), nb_, nb_, nb_};
  }

  /// Base pointer of tile (i, j); doubles as the runtime data key.
  [[nodiscard]] T* tile_ptr(int i, int j) noexcept {
    return buf_.data() + tile_offset(i, j);
  }
  [[nodiscard]] const T* tile_ptr(int i, int j) const noexcept {
    return buf_.data() + tile_offset(i, j);
  }

  /// Element access (debug/convenience; not for hot loops).
  [[nodiscard]] T& at(int i, int j) noexcept {
    return buf_[tile_offset(i / nb_, j / nb_) +
                static_cast<std::size_t>(j % nb_) * nb_ + (i % nb_)];
  }
  [[nodiscard]] T at(int i, int j) const noexcept {
    return buf_[tile_offset(i / nb_, j / nb_) +
                static_cast<std::size_t>(j % nb_) * nb_ + (i % nb_)];
  }

  void set_zero() noexcept { std::fill(buf_.begin(), buf_.end(), T(0)); }

  /// Copy from a dense column-major view no larger than the matrix; the
  /// elements past A's rows and columns are set to zero.
  void from_dense(ConstMatrixViewT<T> A);
  /// Copy out to a dense column-major view of matching element dimensions.
  void to_dense(MatrixViewT<T> A) const;
  [[nodiscard]] MatrixT<T> to_dense() const;

 private:
  [[nodiscard]] std::size_t tile_offset(int i, int j) const noexcept {
    // Column-major tile order: all tiles of tile-column j are contiguous.
    return (static_cast<std::size_t>(j) * mt_ + i) *
           (static_cast<std::size_t>(nb_) * nb_);
  }

  int m_ = 0, n_ = 0, nb_ = 1, mt_ = 0, nt_ = 0;
  std::vector<T> buf_;
};

using TileMatrix = TileMatrixT<double>;

/// Smallest multiple of nb that is >= x.
[[nodiscard]] constexpr int pad_to_tiles(int x, int nb) noexcept {
  return ((x + nb - 1) / nb) * nb;
}

/// Copy a dense matrix into a zero-padded TileMatrix of tile-multiple shape.
template <class T>
TileMatrixT<T> tile_from_dense_padded(ConstMatrixViewT<T> A, int nb);

}  // namespace tbsvd
