// 2D block-cyclic tile-to-node distribution (ScaLAPACK convention), used by
// the distributed-memory simulator. Tile (i, j) lives on grid position
// (i mod R, j mod C); nodes are numbered row-major on the grid.
#pragma once

#include "common/check.hpp"

namespace tbsvd {

/// R x C process grid with block-cyclic ownership at tile granularity.
class Distribution {
 public:
  Distribution() = default;
  Distribution(int grid_rows, int grid_cols)
      : r_(grid_rows), c_(grid_cols) {
    TBSVD_CHECK(grid_rows >= 1 && grid_cols >= 1, "grid must be >= 1x1");
  }

  [[nodiscard]] int grid_rows() const noexcept { return r_; }
  [[nodiscard]] int grid_cols() const noexcept { return c_; }
  [[nodiscard]] int nodes() const noexcept { return r_ * c_; }

  /// Node owning tile (i, j).
  [[nodiscard]] int owner(int i, int j) const noexcept {
    return (i % r_) * c_ + (j % c_);
  }

  /// Square-ish grid for `nodes` nodes: R = floor(sqrt(nodes)) adjusted to
  /// divide, C = nodes / R (the paper uses sqrt(N) x sqrt(N) for square
  /// matrices and N x 1 for tall-and-skinny ones).
  static Distribution square_grid(int nodes);
  static Distribution tall_grid(int nodes) { return {nodes, 1}; }

 private:
  int r_ = 1;
  int c_ = 1;
};

}  // namespace tbsvd
