// Givens plane rotations (LAPACK dlartg equivalent), used by the
// bidiagonal QR iteration (BD2VAL). Templated over the scalar type
// T in {float, double}; the unsuffixed names remain the double aliases.
#pragma once

namespace tbsvd {

/// Plane rotation: computes c, s with c^2 + s^2 = 1 such that
/// [ c  s ; -s  c ] [ f ; g ] = [ r ; 0 ]. Matches dlartg semantics.
template <class T>
struct GivensRotationT {
  T c;
  T s;
  T r;
};

using GivensRotation = GivensRotationT<double>;

template <class T>
[[nodiscard]] GivensRotationT<T> lartg(T f, T g) noexcept;

/// Apply rotation to the pair (x, y): x' = c*x + s*y, y' = -s*x + c*y,
/// over n strided elements.
template <class T>
void rot(int n, T* x, int incx, T* y, int incy, T c, T s) noexcept;

}  // namespace tbsvd
