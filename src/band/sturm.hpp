// Bisection on the Golub-Kahan tridiagonal form: robust (if slower)
// reference method for bidiagonal singular values, used as the fallback
// when bd2val's dqds runs out of budget or fails, and as an independent
// oracle in tests. Templated over the
// scalar type T in {float, double}; counts and bisection run in T
// arithmetic with numeric_limits<T>-derived pivot floors.
//
// TGK(d, e) is the symmetric tridiagonal matrix with zero diagonal and
// off-diagonals d1, e1, d2, e2, ..., dn; its eigenvalues are exactly
// {±sigma_i} of the bidiagonal B(d, e), so a Sturm count locates every
// singular value by bisection.
#pragma once

#include <vector>

namespace tbsvd {

/// Number of eigenvalues of TGK(d, e) strictly less than x.
template <class T>
int tgk_sturm_count(const std::vector<T>& d, const std::vector<T>& e,
                    T x) noexcept;

/// All singular values of the bidiagonal (d, e), sorted descending,
/// computed to ~eps_T * sigma_max absolute accuracy by bisection.
template <class T>
std::vector<T> sturm_singular_values(const std::vector<T>& d,
                                     const std::vector<T>& e);

}  // namespace tbsvd
