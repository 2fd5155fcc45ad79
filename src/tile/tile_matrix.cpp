#include "tile/tile_matrix.hpp"

#include <cstring>

#include "common/check.hpp"

namespace tbsvd {

template <class T>
TileMatrixT<T>::TileMatrixT(int m, int n, int nb)
    : m_(m), n_(n), nb_(nb), mt_(m / nb), nt_(n / nb) {
  TBSVD_CHECK(m >= 0 && n >= 0 && nb >= 1, "invalid TileMatrix dimensions");
  TBSVD_CHECK(m % nb == 0 && n % nb == 0,
              "TileMatrix dimensions must be multiples of nb (use "
              "tile_from_dense_padded to pad)");
  buf_.assign(static_cast<std::size_t>(mt_) * nt_ * nb_ * nb_, T(0));
}

template <class T>
void TileMatrixT<T>::from_dense(ConstMatrixViewT<T> A) {
  TBSVD_CHECK(A.m <= m_ && A.n <= n_, "from_dense: A larger than the tiles");
  // One memcpy per tile column segment; rows and columns past A are zeroed.
  for (int tj = 0; tj < nt_; ++tj) {
    for (int ti = 0; ti < mt_; ++ti) {
      MatrixViewT<T> t = tile(ti, tj);
      const int r0 = ti * nb_;
      const int rows = std::clamp(A.m - r0, 0, nb_);
      for (int j = 0; j < nb_; ++j) {
        const int c = tj * nb_ + j;
        const int len = c < A.n ? rows : 0;
        if (len > 0) {
          std::memcpy(t.col(j), A.col(c) + r0,
                      static_cast<std::size_t>(len) * sizeof(T));
        }
        std::fill(t.col(j) + len, t.col(j) + nb_, T(0));
      }
    }
  }
}

template <class T>
void TileMatrixT<T>::to_dense(MatrixViewT<T> A) const {
  TBSVD_CHECK(A.m == m_ && A.n == n_, "to_dense shape mismatch");
  for (int tj = 0; tj < nt_; ++tj) {
    for (int ti = 0; ti < mt_; ++ti) {
      ConstMatrixViewT<T> t = tile(ti, tj);
      MatrixViewT<T> d = A.block(ti * nb_, tj * nb_, nb_, nb_);
      for (int j = 0; j < nb_; ++j) {
        std::memcpy(d.col(j), t.col(j),
                    static_cast<std::size_t>(nb_) * sizeof(T));
      }
    }
  }
}

template <class T>
MatrixT<T> TileMatrixT<T>::to_dense() const {
  MatrixT<T> A(m_, n_);
  to_dense(A.view());
  return A;
}

template <class T>
TileMatrixT<T> tile_from_dense_padded(ConstMatrixViewT<T> A, int nb) {
  const int mp = pad_to_tiles(A.m, nb);
  const int np = pad_to_tiles(A.n, nb);
  TileMatrixT<T> Tt(mp, np, nb);
  Tt.from_dense(A);
  return Tt;
}

template class TileMatrixT<float>;
template class TileMatrixT<double>;
template TileMatrixT<float> tile_from_dense_padded<float>(
    ConstMatrixViewT<float>, int);
template TileMatrixT<double> tile_from_dense_padded<double>(
    ConstMatrixViewT<double>, int);

}  // namespace tbsvd
