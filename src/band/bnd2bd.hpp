// BND2BD: reduce an upper-band matrix (bandwidth ku = b) to upper
// bidiagonal form by a Householder bulge chase (Haidar–Ltaief–Dongarra,
// the algorithm PLASMA runs for this stage in the paper; it is
// memory-bound and ran on a single node even in the paper's distributed
// runs). Templated over the scalar type T in {float, double}.
//
// Algorithm. Sweep s = 0 .. n-2 cleans row s. It starts at (r, c) =
// (s, s+1) and steps (r, c) <- (c, c+b) while c < n; step k of the sweep
// sets L = min(b, n-c) and, when L >= 2,
//   1. generates a right reflector from row r over columns [c, c+L) and
//      applies it to rows r+1 .. min(n-1, c+L-1) — this leaves a lower
//      bulge in columns [c, c+L);
//   2. generates a left reflector from column c over rows [c, c+L) and
//      applies it to columns c+1 .. min(n-1, c+L-1+b) — this leaves an
//      upper bulge in rows [c, c+L) past the band.
// Only the first row and column of each bulge are annihilated; the next
// step removes row c's part, and later sweeps remove the rest. A step
// applies two reflectors of length <= b to (2b-1) x b blocks, ≈ 16 b^2
// flops, over ≈ n^2 / (2b) steps (common/flops.hpp: flops_bnd2bd).
//
// Storage. The chase works on a copy of the input held as a
// BandMatrixT(n, kl = b, ku = 2b): b subdiagonals hold the lower bulge,
// the extra b superdiagonals the upper one. Each reflector and the block
// it updates is a dense rectangle inside that band, reached through
// BandMatrixT::view (ld = ldab - 1), so the lac larfg / larf_left /
// larf_right routines run on it unchanged.
//
// Dependencies. With c the column of step (s, k), the step's blocks span
// rows c-b+1 .. c+b-1 and columns c .. c+2b-1. They overlap the blocks of
// step (s-1, k+1) and share entry (c+b-1, c+2b-1) with the right
// reflector of step (s-1, k+2); nothing later in sweep s-1 is touched. So
// (s, k) must follow (s-1, k+2): sweeps could pipeline three steps apart,
// which caps the concurrency near n / (3b) (about 4 at n = 768, b = 64).
// This implementation runs the sweeps serially.
#pragma once

#include <vector>

#include "band/band_matrix.hpp"

namespace tbsvd {

/// Upper bidiagonal matrix: diagonal d (n) and superdiagonal e (n-1).
template <class T>
struct BidiagonalT {
  std::vector<T> d;
  std::vector<T> e;
};

using Bidiagonal = BidiagonalT<double>;

/// Reduce B (kl = 0, any ku >= 0) to upper bidiagonal form by orthogonal
/// two-sided transformations, so the singular values are preserved. B is
/// copied into working storage with bulge slots and left unchanged.
/// O(n^2 ku) flops.
template <class T>
BidiagonalT<T> bnd2bd(const BandMatrixT<T>& B);

}  // namespace tbsvd
