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
// Dependencies. With c the column of step (s, k), the right half's block
// spans rows c-b .. c+b-1 and columns c .. c+b-1; the left half's spans
// rows c .. c+b-1 and columns c .. c+2b-1. Against sweep s-1, whose step
// k+j sits at column c-1+jb:
//   - the right half of (s, k) shares entry (c+b-1, c+b-1) with the left
//     half of (s-1, k+1) and nothing with (s-1, k+2), so it needs all of
//     (s-1, k+1) done;
//   - the left half of (s, k) shares entry (c+b-1, c+2b-1) with the right
//     half of (s-1, k+2) and nothing with its left half, so it needs only
//     that right half done.
// Counting halves h = 0, 1, 2, ... along a sweep (2k right, 2k+1 left),
// both rules read the same: half h of sweep s waits until sweep s-1 has
// completed h + 4 halves. Earlier sweeps are further ahead still, so
// nothing else is shared.
//
// Parallel schedule. P workers (the calling thread and P-1 spawned ones)
// claim sweeps in increasing order, so in steady state worker t runs
// sweeps t, t+P, t+2P, ... Each sweep publishes its completed-half count
// in an atomic (release after each half; kDone when the sweep ends), and
// each half acquire-spins on the previous sweep's count before it starts
// (pause, then yield). Every entry is updated by the same operations in
// the same order as in the serial chase, so the result is bitwise
// identical for every P. Sweeps trail each other by two steps instead of
// the three that whole-step dependencies would impose; costing each half
// by its block area, the ideal speed-up at n = 768, b = 64 is 2.9 on four
// workers (2.2 under whole-step dependencies). Every hand-off moves the
// block between cores, and with two workers that traffic ate the gain
// (512 x 512, b = 64), so P = min(nthreads, floor(n / (3b))) and the
// chase runs on the calling thread alone (P = 1, the same loop) when that
// is below 3: at 768 x 768 with b = 64, P = 4 at nthreads >= 4; at
// n = 256, b = 64, the chase is serial.
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
/// O(n^2 ku) flops. nthreads (>= 1) bounds the sweep pipeline's workers
/// (see the header comment for the rule); the result does not depend on it.
template <class T>
BidiagonalT<T> bnd2bd(const BandMatrixT<T>& B, int nthreads = 1);

}  // namespace tbsvd
