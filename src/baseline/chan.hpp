// Chan's algorithm (preQR + bidiagonalization of R), the trick Elemental
// applies automatically when m >= 1.2 n (Section VI.B). Serves as the
// "Elemental" stand-in baseline; below the switch it is plain GEBRD
// ("ScaLAPACK"/"MKL" stand-ins). Templated over the scalar type T in
// {float, double}.
//
// The staging (preQR through the recursive panel, one-stage GEBRD, BD2VAL)
// is shared: the batched direct path and the randomized truncated driver
// (src/rsvd, whose l x n projected matrix lands in this size class) run
// chan_stage_values on their own working storage, and the batched tiled
// path reuses chan_preqr for its R-first pre-reduction.
#pragma once

#include <vector>

#include "band/bd2val.hpp"
#include "baseline/gebrd.hpp"
#include "lac/dense.hpp"

namespace tbsvd {

/// True when Chan's preQR pays off: m >= 1.2 n, Elemental's switch ratio.
[[nodiscard]] bool chan_uses_preqr(int m, int n);

/// The preQR-to-R step: factors s (m >= n >= 1) in place through the
/// recursive panel and returns its n x n R as a view over rbuf (upper
/// triangle copied, zero below). tfac and rbuf are caller scratch of
/// >= n*n elements each.
template <class T>
MatrixViewT<T> chan_preqr(MatrixViewT<T> s, T* tfac, T* rbuf);

/// Full spectrum (descending, in T) of s (m >= n >= 1), consumed in place:
/// chan_preqr when chan_uses_preqr(m, n), then GEBRD + BD2VAL. Scratch as
/// for chan_preqr (untouched without preQR). s must already be finite and
/// inside the safe range: the caller's SafeScaling owns the protocol.
template <class T>
std::vector<T> chan_stage_values(MatrixViewT<T> s, T* tfac, T* rbuf,
                                 const GebrdOptions& gebrd = {},
                                 const Bd2valOptions& bd2val = {},
                                 Bd2valInfo* info = nullptr);

/// Singular values of A (m >= n): SafeScaling + chan_stage_values on a
/// working copy.
template <class T>
std::vector<double> chan_singular_values(ConstMatrixViewT<T> A,
                                         const GebrdOptions& opts = {});

}  // namespace tbsvd
