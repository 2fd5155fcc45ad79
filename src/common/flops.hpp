// Floating-point operation counts used for GFlop/s reporting.
//
// The paper (Section VI.B) normalizes all GE2BND / GE2VAL rates by the
// classical bidiagonalization operation count 4n^2(m - n/3) (LAPACK
// installation guide, Blackford & Dongarra), *also* for R-BIDIAG, so that
// curves are directly comparable. We follow the same convention.
#pragma once

#include <cstdint>

namespace tbsvd {

/// Flops of the standard full->bidiagonal reduction (GE2BD/GE2BND), m >= n.
constexpr double flops_ge2bnd(double m, double n) noexcept {
  return 4.0 * n * n * (m - n / 3.0);
}

/// Flops of a blocked QR factorization of an m x n matrix, m >= n.
constexpr double flops_geqrf(double m, double n) noexcept {
  return 2.0 * n * n * (m - n / 3.0);
}

/// Flops of the band->bidiagonal stage for an n x n band of width nb
/// (Householder bulge chase, band/bnd2bd.hpp): each of ~n^2 / (2 nb)
/// steps applies a right and a left reflector of length nb to a
/// (2 nb - 1) x nb block, 4 * (2 nb - 1) * nb flops each, ~16 nb^2 per
/// step. Shorter steps at the trailing edge bring the exact count to
/// ~7.2 n^2 nb at n = 768, nb = 64.
constexpr double flops_bnd2bd(double n, double nb) noexcept {
  return 8.0 * n * n * nb;
}

/// Table I unit: one time unit == nb^3/3 flops.
constexpr double kernel_unit_flops(double nb) noexcept {
  return nb * nb * nb / 3.0;
}

}  // namespace tbsvd
