// Column-major dense matrix storage and non-owning views, templated over
// the scalar type T in {float, double}.
//
// Everything in the library operates on column-major data (LAPACK
// convention), so tile kernels can be validated directly against textbook
// formulations. The unsuffixed names (MatrixView, Matrix, ...) remain
// aliases for the double instantiations, which keeps the double-only call
// sites (tests, benches, examples) unchanged.
#pragma once

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "common/check.hpp"

namespace tbsvd {

/// Non-owning mutable view of a column-major matrix block.
template <class T>
struct MatrixViewT {
  T* a = nullptr;
  int m = 0;   ///< rows
  int n = 0;   ///< cols
  int ld = 0;  ///< leading dimension (>= m)

  MatrixViewT() = default;
  MatrixViewT(T* data, int rows, int cols, int lead) noexcept
      : a(data), m(rows), n(cols), ld(lead) {}

  [[nodiscard]] T& operator()(int i, int j) const noexcept {
    return a[static_cast<std::size_t>(j) * ld + i];
  }

  /// Sub-block view rooted at (i0, j0) of size mm x nn.
  [[nodiscard]] MatrixViewT block(int i0, int j0, int mm, int nn) const {
    TBSVD_ASSERT(i0 >= 0 && j0 >= 0 && i0 + mm <= m && j0 + nn <= n);
    return {a + static_cast<std::size_t>(j0) * ld + i0, mm, nn, ld};
  }

  /// Pointer to the top of column j.
  [[nodiscard]] T* col(int j) const noexcept {
    return a + static_cast<std::size_t>(j) * ld;
  }
};

/// Non-owning read-only view of a column-major matrix block.
template <class T>
struct ConstMatrixViewT {
  const T* a = nullptr;
  int m = 0;
  int n = 0;
  int ld = 0;

  ConstMatrixViewT() = default;
  ConstMatrixViewT(const T* data, int rows, int cols, int lead) noexcept
      : a(data), m(rows), n(cols), ld(lead) {}
  ConstMatrixViewT(const MatrixViewT<T>& v) noexcept  // NOLINT(google-explicit-constructor)
      : a(v.a), m(v.m), n(v.n), ld(v.ld) {}

  [[nodiscard]] T operator()(int i, int j) const noexcept {
    return a[static_cast<std::size_t>(j) * ld + i];
  }

  [[nodiscard]] ConstMatrixViewT block(int i0, int j0, int mm, int nn) const {
    TBSVD_ASSERT(i0 >= 0 && j0 >= 0 && i0 + mm <= m && j0 + nn <= n);
    return {a + static_cast<std::size_t>(j0) * ld + i0, mm, nn, ld};
  }

  [[nodiscard]] const T* col(int j) const noexcept {
    return a + static_cast<std::size_t>(j) * ld;
  }
};

/// Owning column-major matrix (ld == m), zero-initialized.
template <class T>
class MatrixT {
 public:
  MatrixT() = default;
  MatrixT(int rows, int cols)
      : m_(rows), n_(cols),
        buf_(static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols)) {
    TBSVD_CHECK(rows >= 0 && cols >= 0, "matrix dimensions must be >= 0");
  }

  [[nodiscard]] int rows() const noexcept { return m_; }
  [[nodiscard]] int cols() const noexcept { return n_; }

  [[nodiscard]] T& operator()(int i, int j) noexcept {
    return buf_[static_cast<std::size_t>(j) * m_ + i];
  }
  [[nodiscard]] T operator()(int i, int j) const noexcept {
    return buf_[static_cast<std::size_t>(j) * m_ + i];
  }

  [[nodiscard]] MatrixViewT<T> view() noexcept {
    return {buf_.data(), m_, n_, m_};
  }
  [[nodiscard]] ConstMatrixViewT<T> cview() const noexcept {
    return {buf_.data(), m_, n_, m_};
  }
  [[nodiscard]] MatrixViewT<T> block(int i0, int j0, int mm, int nn) {
    return view().block(i0, j0, mm, nn);
  }

  [[nodiscard]] T* data() noexcept { return buf_.data(); }
  [[nodiscard]] const T* data() const noexcept { return buf_.data(); }

  void set_zero() noexcept { std::fill(buf_.begin(), buf_.end(), T(0)); }

  /// n x n identity.
  static MatrixT identity(int n) {
    MatrixT I(n, n);
    for (int i = 0; i < n; ++i) I(i, i) = T(1);
    return I;
  }

 private:
  int m_ = 0;
  int n_ = 0;
  std::vector<T> buf_;
};

/// Double-precision aliases: the historical (and still primary) API names.
using MatrixView = MatrixViewT<double>;
using ConstMatrixView = ConstMatrixViewT<double>;
using Matrix = MatrixT<double>;

/// Elementwise precision conversion (float <-> double).
template <class TDst, class TSrc>
inline void convert_matrix(ConstMatrixViewT<TSrc> src, MatrixViewT<TDst> dst) {
  TBSVD_ASSERT(src.m == dst.m && src.n == dst.n);
  for (int j = 0; j < src.n; ++j) {
    const TSrc* s = src.col(j);
    TDst* d = dst.col(j);
    for (int i = 0; i < src.m; ++i) d[i] = static_cast<TDst>(s[i]);
  }
}

}  // namespace tbsvd
