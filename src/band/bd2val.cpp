#include "band/bd2val.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "band/sturm.hpp"
#include "common/check.hpp"
#include "common/fault.hpp"
#include "common/hazard.hpp"

namespace tbsvd {

namespace {

// Transforms the budget allows on top of max_sweeps_per_value * n.
constexpr long long kTransformSlack = 8;

// Eigenvalues of the 2x2 qd block (a, b, c) = (q1, e1, q2), in the squared
// domain (xLASQ2's n = 2 case, xLASQ3 label 40): on return a >= c are the
// two eigenvalues of B^T B.
template <class T>
void qd_2x2(T& a, T b, T& c) {
  constexpr T tol = T(100) * std::numeric_limits<T>::epsilon();
  if (c > a) std::swap(a, c);
  const T t = T(0.5) * ((a - c) + b);
  if (b > c * tol * tol && t != T(0)) {
    T s = c * (b / t);
    if (s <= t) {
      s = c * (b / (t * (T(1) + std::sqrt(T(1) + s / t))));
    } else {
      s = c * (b / (t + std::sqrt(t) * std::sqrt(t + s)));
    }
    const T u = a + (s + b);
    c = c * (a / u);
    a = u;
  }
}

// The dqds state of LAPACK xLASQ2-xLASQ6 on one qd array. z is indexed
// 1..4n as in LAPACK: z[4k-3], z[4k-1] hold q_k, e_k of the "ping" half
// and z[4k-2], z[4k] the "pong" half. A transform with parity pp reads
// one half and writes the other.
template <class T>
class Dqds {
 public:
  Dqds(std::vector<T>& zbuf, int n, long long budget)
      : z_(zbuf.data()), n_(n), budget_(budget) {}

  /// Runs dqds to completion; false when the budget ran out or the
  /// iteration failed. On success z[4k-3], k = 1..n, hold the eigenvalues
  /// of B^T B (unsorted).
  bool run();
  [[nodiscard]] long long transforms() const noexcept { return transforms_; }

 private:
  static constexpr T kEps = std::numeric_limits<T>::epsilon();
  static constexpr T kSafmin = std::numeric_limits<T>::min();
  static constexpr T kTol = T(100) * kEps;
  static constexpr T kTol2 = kTol * kTol;
  static constexpr T kCbias = T(1.5);

  void reverse(int i0, int n0);
  void dqds(int i0, int n0, int pp, T tau);
  void dqd(int i0, int n0, int pp);
  [[nodiscard]] T shift(int i0, int n0, int pp, int n0in);
  bool step(int i0, int& n0, int& pp);

  T* z_;
  int n_;
  long long budget_;
  long long transforms_ = 0;
  // Carried between steps exactly as xLASQ2 carries them into xLASQ3.
  T sigma_ = 0, desig_ = 0, qmax_ = 0, tau_ = 0, g_ = 0;
  T dmin_ = 0, dmin1_ = 0, dmin2_ = 0, dn_ = 0, dn1_ = 0, dn2_ = 0;
  int ttype_ = 0;
};

// Reverses block [i0, n0] of both halves, so the larger q comes last.
template <class T>
void Dqds<T>::reverse(int i0, int n0) {
  T* z = z_;
  const int ipn4 = 4 * (i0 + n0);
  for (int i4 = 4 * i0; i4 <= 2 * (i0 + n0 - 1); i4 += 4) {
    std::swap(z[i4 - 3], z[ipn4 - i4 - 3]);
    std::swap(z[i4 - 2], z[ipn4 - i4 - 2]);
    std::swap(z[i4 - 1], z[ipn4 - i4 - 5]);
    std::swap(z[i4], z[ipn4 - i4 - 4]);
  }
}

// One dqds transform with shift tau on [i0, n0], n0 - i0 >= 2 (xLASQ5,
// IEEE variant: a division by zero yields inf/NaN and a negative dmin,
// which step() rejects). Sets dmin (dmin = NaN when the transform went
// NaN), dmin1/dmin2 and dn/dn1/dn2 for the shift choice; stores emin in
// the unused z[4*n0-pp] slot for the split test.
template <class T>
void Dqds<T>::dqds(int i0, int n0, int pp, T tau) {
  T* z = z_;
  int j4 = 4 * i0 + pp - 3;
  T emin = z[j4 + 4];
  T d = z[j4] - tau;
  T dmin = d;
  dmin1_ = -z[j4];
  for (j4 = 4 * i0; j4 <= 4 * (n0 - 3); j4 += 4) {
    z[j4 - 2 - pp] = d + z[j4 - 1 + pp];
    const T temp = z[j4 + 1 + pp] / z[j4 - 2 - pp];
    d = d * temp - tau;
    dmin = std::min(dmin, d);
    z[j4 - pp] = z[j4 - 1 + pp] * temp;
    emin = std::min(z[j4 - pp], emin);
  }
  // The last two steps, unrolled to record dn1, dn2, dmin1, dmin2.
  dn2_ = d;
  dmin2_ = dmin;
  j4 = 4 * (n0 - 2) - pp;
  int j4p2 = j4 + 2 * pp - 1;
  z[j4 - 2] = dn2_ + z[j4p2];
  z[j4] = z[j4p2 + 2] * (z[j4p2] / z[j4 - 2]);
  dn1_ = z[j4p2 + 2] * (dn2_ / z[j4 - 2]) - tau;
  dmin = std::min(dmin, dn1_);
  dmin1_ = dmin;
  j4 += 4;
  j4p2 = j4 + 2 * pp - 1;
  z[j4 - 2] = dn1_ + z[j4p2];
  z[j4] = z[j4p2 + 2] * (z[j4p2] / z[j4 - 2]);
  dn_ = z[j4p2 + 2] * (dn1_ / z[j4 - 2]) - tau;
  dmin = std::min(dmin, dn_);
  z[j4 + 2] = dn_;
  z[4 * n0 - pp] = emin;
  // std::min drops a NaN operand; once d goes NaN it stays NaN through
  // dn, so dn carries the NaN to the caller's test.
  dmin_ = std::isnan(dn_) ? dn_ : dmin;
}

// One dqd transform (zero shift) with underflow guards (xLASQ6), for when
// dqds risks underflow. Same outputs as dqds().
template <class T>
void Dqds<T>::dqd(int i0, int n0, int pp) {
  T* z = z_;
  int j4 = 4 * i0 + pp - 3;
  T emin = z[j4 + 4];
  T d = z[j4];
  T dmin = d;
  // One step: q' = d + e; e' = e q_next / q'; d' = d q_next / q'.
  const auto advance = [&](int qo, int ei, int qn, int eo, T dv) {
    z[qo] = dv + z[ei];
    if (z[qo] == T(0)) {
      z[eo] = T(0);
      dv = z[qn];
      dmin = dv;
      emin = T(0);
    } else if (kSafmin * z[qn] < z[qo] && kSafmin * z[qo] < z[qn]) {
      const T temp = z[qn] / z[qo];
      z[eo] = z[ei] * temp;
      dv *= temp;
    } else {
      z[eo] = z[qn] * (z[ei] / z[qo]);
      dv = z[qn] * (dv / z[qo]);
    }
    dmin = std::min(dmin, dv);
    return dv;
  };
  for (j4 = 4 * i0; j4 <= 4 * (n0 - 3); j4 += 4) {
    d = advance(j4 - 2 - pp, j4 - 1 + pp, j4 + 1 + pp, j4 - pp, d);
    emin = std::min(emin, z[j4 - pp]);
  }
  dn2_ = d;
  dmin2_ = dmin;
  j4 = 4 * (n0 - 2) - pp;
  int j4p2 = j4 + 2 * pp - 1;
  dn1_ = advance(j4 - 2, j4p2, j4p2 + 2, j4, dn2_);
  dmin1_ = dmin;
  j4 += 4;
  j4p2 = j4 + 2 * pp - 1;
  dn_ = advance(j4 - 2, j4p2, j4p2 + 2, j4, dn1_);
  z[j4 + 2] = dn_;
  z[4 * n0 - pp] = emin;
  dmin_ = dmin;
}

// The shift for the next transform, from the tail of the array (xLASQ4,
// cases 1-12; ttype records the case). Where xLASQ4 returns early without
// setting tau (a ratio test fails), this returns the conservative s
// already chosen for the case instead of keeping the previous tau.
template <class T>
T Dqds<T>::shift(int i0, int n0, int pp, int n0in) {
  constexpr T cnst1 = T(0.563), cnst2 = T(1.01), cnst3 = T(1.05);
  constexpr T qurtr = T(0.25), third = T(0.333), half = T(0.5);
  const T* z = z_;
  const T dmin = dmin_, dmin1 = dmin1_, dmin2 = dmin2_;
  const T dn = dn_, dn1 = dn1_, dn2 = dn2_;
  if (dmin <= T(0)) {  // case 1: a negative dmin gives the shift
    ttype_ = -1;
    return -dmin;
  }
  const int nn = 4 * n0 + pp;
  T s = T(0);
  // Sums the ratios z[i4]/z[i4-2] of the rest of the array (a norm
  // estimate for the Rayleigh-quotient bound); false when a ratio is > 1.
  const auto tail_sum = [&](int from, T& a2, T& b2) {
    for (int i4 = from; i4 >= 4 * i0 - 1 + pp; i4 -= 4) {
      if (b2 == T(0)) break;
      const T b1 = b2;
      if (z[i4] > z[i4 - 2]) return false;
      b2 *= z[i4] / z[i4 - 2];
      a2 += b2;
      if (T(100) * std::max(b2, b1) < a2 || cnst1 < a2) break;
    }
    return true;
  };
  if (n0in == n0) {  // no eigenvalue deflated
    if (dmin == dn || dmin == dn1) {
      const T b1 = std::sqrt(z[nn - 3]) * std::sqrt(z[nn - 5]);
      const T b2 = std::sqrt(z[nn - 7]) * std::sqrt(z[nn - 9]);
      const T a2 = z[nn - 7] + z[nn - 5];
      if (dmin == dn && dmin1 == dn1) {  // cases 2 and 3
        const T gap2 = dmin2 - a2 - dmin2 * qurtr;
        const T gap1 = (gap2 > T(0) && gap2 > b2)
                           ? a2 - dn - (b2 / gap2) * b2
                           : a2 - dn - (b1 + b2);
        if (gap1 > T(0) && gap1 > b1) {
          s = std::max(dn - (b1 / gap1) * b1, half * dmin);
          ttype_ = -2;
        } else {
          if (dn > b1) s = dn - b1;
          if (a2 > b1 + b2) s = std::min(s, a2 - (b1 + b2));
          s = std::max(s, third * dmin);
          ttype_ = -3;
        }
      } else {  // case 4
        ttype_ = -4;
        s = qurtr * dmin;
        T gam, a2b, b2b;
        int np;
        if (dmin == dn) {
          gam = dn;
          a2b = T(0);
          if (z[nn - 5] > z[nn - 7]) return s;
          b2b = z[nn - 5] / z[nn - 7];
          np = nn - 9;
        } else {
          np = nn - 2 * pp;
          gam = dn1;
          if (z[np - 4] > z[np - 2]) return s;
          a2b = z[np - 4] / z[np - 2];
          if (z[nn - 9] > z[nn - 11]) return s;
          b2b = z[nn - 9] / z[nn - 11];
          np = nn - 13;
        }
        a2b += b2b;
        if (!tail_sum(np, a2b, b2b)) return s;
        a2b *= cnst3;
        if (a2b < cnst1) s = gam * (T(1) - std::sqrt(a2b)) / (T(1) + a2b);
      }
    } else if (dmin == dn2) {  // case 5
      ttype_ = -5;
      s = qurtr * dmin;
      const int np = nn - 2 * pp;
      const T b1 = z[np - 2];
      T b2 = z[np - 6];
      const T gam = dn2;
      if (z[np - 8] > b2 || z[np - 4] > b1) return s;
      T a2 = (z[np - 8] / b2) * (T(1) + z[np - 4] / b1);
      if (n0 - i0 > 2) {
        b2 = z[nn - 13] / z[nn - 15];
        a2 += b2;
        if (!tail_sum(nn - 17, a2, b2)) return s;
        a2 *= cnst3;
      }
      if (a2 < cnst1) s = gam * (T(1) - std::sqrt(a2)) / (T(1) + a2);
    } else {  // case 6: no information to guide us
      if (ttype_ == -6) {
        g_ += third * (T(1) - g_);
      } else if (ttype_ == -18) {
        g_ = qurtr * third;
      } else {
        g_ = qurtr;
      }
      s = g_ * dmin;
      ttype_ = -6;
    }
  } else if (n0in == n0 + 1) {  // one eigenvalue just deflated
    if (dmin1 == dn1 && dmin2 == dn2) {  // cases 7 and 8
      ttype_ = -7;
      s = third * dmin1;
      if (z[nn - 5] > z[nn - 7]) return s;
      T b1 = z[nn - 5] / z[nn - 7];
      T b2 = b1;
      if (b2 != T(0)) {
        for (int i4 = 4 * n0 - 9 + pp; i4 >= 4 * i0 - 1 + pp; i4 -= 4) {
          const T a2 = b1;
          if (z[i4] > z[i4 - 2]) return s;
          b1 *= z[i4] / z[i4 - 2];
          b2 += b1;
          if (T(100) * std::max(b1, a2) < b2) break;
        }
      }
      b2 = std::sqrt(cnst3 * b2);
      const T a2 = dmin1 / (T(1) + b2 * b2);
      const T gap2 = half * dmin2 - a2;
      if (gap2 > T(0) && gap2 > b2 * a2) {
        s = std::max(s, a2 * (T(1) - cnst2 * a2 * (b2 / gap2) * b2));
      } else {
        s = std::max(s, a2 * (T(1) - cnst2 * b2));
        ttype_ = -8;
      }
    } else {  // case 9
      s = (dmin1 == dn1 ? half : qurtr) * dmin1;
      ttype_ = -9;
    }
  } else if (n0in == n0 + 2) {  // two eigenvalues deflated
    if (dmin2 == dn2 && T(2) * z[nn - 5] < z[nn - 7]) {  // case 10
      ttype_ = -10;
      s = third * dmin2;
      if (z[nn - 5] > z[nn - 7]) return s;
      T b1 = z[nn - 5] / z[nn - 7];
      T b2 = b1;
      if (b2 != T(0)) {
        for (int i4 = 4 * n0 - 9 + pp; i4 >= 4 * i0 - 1 + pp; i4 -= 4) {
          if (z[i4] > z[i4 - 2]) return s;
          b1 *= z[i4] / z[i4 - 2];
          b2 += b1;
          if (T(100) * b1 < b2) break;
        }
      }
      b2 = std::sqrt(cnst3 * b2);
      const T a2 = dmin2 / (T(1) + b2 * b2);
      const T gap2 = z[nn - 7] + z[nn - 9] -
                     std::sqrt(z[nn - 11]) * std::sqrt(z[nn - 9]) - a2;
      if (gap2 > T(0) && gap2 > b2 * a2) {
        s = std::max(s, a2 * (T(1) - cnst2 * a2 * (b2 / gap2) * b2));
      } else {
        s = std::max(s, a2 * (T(1) - cnst2 * b2));
      }
    } else {  // case 11
      s = qurtr * dmin2;
      ttype_ = -11;
    }
  } else {  // case 12: more than two deflated, no information
    s = T(0);
    ttype_ = -12;
  }
  return s;
}

// Deflates converged values at the bottom of [i0, n0], then takes one
// accepted dqds (or dqd) transform (xLASQ3). pp == 2 means the block was
// just reversed: skip the deflation tests and run with pp = 0. False when
// the budget ran out.
template <class T>
bool Dqds<T>::step(int i0, int& n0, int& pp) {
  T* z = z_;
  const int n0in = n0;
  // Deflation: one value when e[n0-1] is negligible, two when e[n0-2] is.
  while (pp != 2 && n0 >= i0) {
    const int nn = 4 * n0 + pp;
    const bool big = n0 > i0 + 1;  // a 1x1 or 2x2 block always deflates
    if (n0 == i0 || (big && !(z[nn - 5] > kTol2 * (sigma_ + z[nn - 3]) &&
                              z[nn - 2 * pp - 4] > kTol2 * z[nn - 7]))) {
      z[4 * n0 - 3] = z[4 * n0 + pp - 3] + sigma_;
      --n0;
    } else if (big && z[nn - 9] > kTol2 * sigma_ &&
               z[nn - 2 * pp - 8] > kTol2 * z[nn - 11]) {
      break;
    } else {
      qd_2x2(z[nn - 7], z[nn - 5], z[nn - 3]);
      z[4 * n0 - 7] = z[nn - 7] + sigma_;
      z[4 * n0 - 3] = z[nn - 3] + sigma_;
      n0 -= 2;
    }
  }
  if (n0 < i0) return true;
  if (pp == 2) pp = 0;

  // Reverse the block when its top q is much smaller than its bottom one.
  if ((dmin_ <= T(0) || n0 < n0in) &&
      kCbias * z[4 * i0 + pp - 3] < z[4 * n0 + pp - 3]) {
    reverse(i0, n0);
    if (n0 - i0 <= 4) {
      z[4 * n0 + pp - 1] = z[4 * i0 + pp - 1];
      z[4 * n0 - pp] = z[4 * i0 - pp];
    }
    dmin2_ = std::min(dmin2_, z[4 * n0 + pp - 1]);
    z[4 * n0 + pp - 1] = std::min(
        {z[4 * n0 + pp - 1], z[4 * i0 + pp - 1], z[4 * i0 + pp + 3]});
    z[4 * n0 - pp] =
        std::min({z[4 * n0 - pp], z[4 * i0 - pp], z[4 * i0 - pp + 4]});
    qmax_ = std::max({qmax_, z[4 * i0 + pp - 3], z[4 * i0 + pp + 1]});
    dmin_ = -T(0);
  }

  tau_ = shift(i0, n0, pp, n0in);
  // Transform until the result is positive; the input half stays intact,
  // so a rejected shift is retried from the same data.
  for (;;) {
    if (++transforms_ > budget_) return false;
    dqds(i0, n0, pp, tau_);
    if (dmin_ >= T(0) && dmin1_ >= T(0)) break;
    if (dmin_ < T(0) && dmin1_ > T(0) &&
        z[4 * (n0 - 1) - pp] < kTol * (sigma_ + dn1_) &&
        std::fabs(dn_) < kTol * sigma_) {
      // Convergence hidden by a negative dn: the last value has converged.
      z[4 * (n0 - 1) - pp + 2] = T(0);
      dmin_ = T(0);
      break;
    }
    if (dmin_ < T(0)) {  // tau too big: choose a smaller one and retry
      if (ttype_ < -22) {
        tau_ = T(0);
      } else if (dmin1_ > T(0)) {  // late failure: an excellent shift
        tau_ = (tau_ + dmin_) * (T(1) - T(2) * kEps);
        ttype_ -= 11;
      } else {  // early failure
        tau_ *= T(0.25);
        ttype_ -= 12;
      }
      continue;
    }
    if (std::isnan(dmin_) && tau_ != T(0)) {
      tau_ = T(0);
      continue;
    }
    // Possible underflow (or NaN at zero shift): play it safe.
    if (++transforms_ > budget_) return false;
    dqd(i0, n0, pp);
    tau_ = T(0);
    break;
  }
  // sigma += tau, compensated through desig.
  T t;
  if (tau_ < sigma_) {
    desig_ += tau_;
    t = sigma_ + desig_;
    desig_ -= t - sigma_;
  } else {
    t = sigma_ + tau_;
    desig_ = sigma_ + (desig_ - (t - tau_));
  }
  sigma_ = t;
  return true;
}

// xLASQ2 from the rearranged array on: split on negligible e and
// Li's test, two dqd passes, then one unreduced block at a time from the
// bottom, splitting it further whenever an e becomes negligible.
template <class T>
bool Dqds<T>::run() {
  T* z = z_;
  const int n = n_;
  int i0 = 1, n0 = n;
  if (kCbias * z[4 * i0 - 3] < z[4 * n0 - 3]) reverse(i0, n0);

  int pp = 0;
  for (int k = 0; k < 2; ++k) {
    // Bottom-up: flag e's negligible against the differential d.
    T d = z[4 * n0 + pp - 3];
    for (int i4 = 4 * (n0 - 1) + pp; i4 >= 4 * i0 + pp; i4 -= 4) {
      if (z[i4 - 1] <= kTol2 * d) {
        z[i4 - 1] = -T(0);
        d = z[i4 - 3];
      } else {
        d = z[i4 - 3] * (d / (d + z[i4 - 1]));
      }
    }
    // One guarded dqd transform into the other half.
    d = z[4 * i0 + pp - 3];
    for (int i4 = 4 * i0 + pp; i4 <= 4 * (n0 - 1) + pp; i4 += 4) {
      T& qo = z[i4 - 2 * pp - 2];
      T& eo = z[i4 - 2 * pp];
      qo = d + z[i4 - 1];
      if (z[i4 - 1] <= kTol2 * d) {
        z[i4 - 1] = -T(0);
        qo = d;
        eo = T(0);
        d = z[i4 + 1];
      } else if (kSafmin * z[i4 + 1] < qo && kSafmin * qo < z[i4 + 1]) {
        const T temp = z[i4 + 1] / qo;
        eo = z[i4 - 1] * temp;
        d *= temp;
      } else {
        eo = z[i4 + 1] * (z[i4 - 1] / qo);
        d = z[i4 + 1] * (d / qo);
      }
    }
    z[4 * n0 - pp - 2] = d;
    qmax_ = z[4 * i0 - pp - 2];
    for (int i4 = 4 * i0 - pp + 2; i4 <= 4 * n0 - pp - 2; i4 += 4) {
      qmax_ = std::max(qmax_, z[i4]);
    }
    pp = 1 - pp;
    ++transforms_;
  }

  while (n0 >= 1) {
    // e[n0] holds -sigma of the block ending at n0 when it split off.
    desig_ = T(0);
    sigma_ = n0 == n ? T(0) : -z[4 * n0 - 1];
    if (sigma_ < T(0)) return false;
    // Find the top i0 of the last unreduced block, its qmax, and a
    // Gershgorin-type initial shift when its q's dominate its e's.
    T emax = T(0), qmin = z[4 * n0 - 3];
    qmax_ = qmin;
    int i4 = 4 * n0;
    for (; i4 >= 8; i4 -= 4) {
      if (z[i4 - 5] <= T(0)) break;
      if (qmin >= T(4) * emax) {
        qmin = std::min(qmin, z[i4 - 3]);
        emax = std::max(emax, z[i4 - 5]);
      }
      qmax_ = std::max(qmax_, z[i4 - 7] + z[i4 - 5]);
    }
    i0 = i4 / 4;
    pp = 0;
    if (n0 - i0 > 1) {
      // Reverse when the smallest differential d sits near the top.
      T dee = z[4 * i0 - 3], deemin = dee;
      int kmin = i0;
      for (int j = 4 * i0 + 1; j <= 4 * n0 - 3; j += 4) {
        dee = z[j] * (dee / (dee + z[j - 2]));
        if (dee <= deemin) {
          deemin = dee;
          kmin = (j + 3) / 4;
        }
      }
      if ((kmin - i0) * 2 < n0 - kmin && deemin <= T(0.5) * z[4 * n0 - 3]) {
        reverse(i0, n0);
        pp = 2;
      }
    }
    dmin_ = -std::max(T(0), qmin - T(2) * std::sqrt(qmin) * std::sqrt(emax));

    while (i0 <= n0) {
      if (!step(i0, n0, pp)) return false;
      pp = 1 - pp;
      // When emin is very small, split the block on negligible e's.
      if (pp == 0 && n0 - i0 >= 3 &&
          (z[4 * n0] <= kTol2 * qmax_ || z[4 * n0 - 1] <= kTol2 * sigma_)) {
        int splt = i0 - 1;
        qmax_ = z[4 * i0 - 3];
        T emin = z[4 * i0 - 1], oldemn = z[4 * i0];
        for (int j = 4 * i0; j <= 4 * (n0 - 3); j += 4) {
          if (z[j] <= kTol2 * z[j - 3] || z[j - 1] <= kTol2 * sigma_) {
            z[j - 1] = -sigma_;
            splt = j / 4;
            qmax_ = T(0);
            emin = z[j + 3];
            oldemn = z[j + 4];
          } else {
            qmax_ = std::max(qmax_, z[j + 1]);
            emin = std::min(emin, z[j - 1]);
            oldemn = std::min(oldemn, z[j]);
          }
        }
        z[4 * n0 - 1] = emin;
        z[4 * n0] = oldemn;
        i0 = splt + 1;
      }
    }
  }
  return true;
}

}  // namespace

template <class T>
std::vector<T> bd2val(std::vector<T> d, std::vector<T> e,
                      const Bd2valOptions& opts, Bd2valInfo* info) {
  const int n = static_cast<int>(d.size());
  TBSVD_CHECK(static_cast<int>(e.size()) >= std::max(0, n - 1),
              "bd2val: e must have n-1 entries");
  TBSVD_CHECK(opts.max_sweeps_per_value >= 0,
              "bd2val: max_sweeps_per_value must be >= 0");
  if (info != nullptr) *info = Bd2valInfo{};
  if (n == 0) return {};
  if (!all_finite(d.data(), d.size()) ||
      !all_finite(e.data(), static_cast<std::size_t>(n - 1))) {
    // NaN never passes a deflation test, so the iteration would spin on it;
    // reject up front rather than time out or emit NaN "singular values".
    throw numerical_hazard_error("bd2val: non-finite entry in bidiagonal");
  }

  bool fell_back = TBSVD_FAULT_FIRE("band.bd2val.force_stall");
  std::vector<T> sv(n);
  T emax = T(0), amax = T(0);
  for (int i = 0; i + 1 < n; ++i) emax = std::max(emax, std::fabs(e[i]));
  for (int i = 0; i < n; ++i) amax = std::max(amax, std::fabs(d[i]));
  amax = std::max(amax, emax);
  if (!fell_back && emax == T(0)) {  // diagonal (n = 1 included)
    for (int i = 0; i < n; ++i) sv[i] = std::fabs(d[i]);
  } else if (!fell_back) {
    // xLASQ1: scale the largest entry to sqrt(eps/safmin) and square, so
    // the squares neither overflow nor lose small values to underflow.
    const T scale = std::sqrt(std::numeric_limits<T>::epsilon() /
                              std::numeric_limits<T>::min());
    const auto sq = [&](T v) {
      const T s = (std::fabs(v) / amax) * scale;
      return s * s;
    };
    // z[1..4n] (z[0] unused) in the ping/pong layout of class Dqds.
    std::vector<T> z(4 * static_cast<std::size_t>(n) + 1, T(0));
    for (int k = 1; k <= n; ++k) {
      z[4 * k - 3] = sq(d[k - 1]);
      if (k < n) z[4 * k - 1] = sq(e[k - 1]);
    }
    long long transforms = 0;
    if (n == 2) {
      qd_2x2(z[1], z[3], z[5]);
    } else {
      Dqds<T> dq(z, n, static_cast<long long>(opts.max_sweeps_per_value) * n +
                           kTransformSlack);
      fell_back = !dq.run();
      transforms = dq.transforms();
    }
    if (info != nullptr) info->qr_iterations = transforms;
    for (int k = 1; k <= n; ++k) {
      sv[k - 1] = (std::sqrt(std::max(z[4 * k - 3], T(0))) / scale) * amax;
    }
  }

  if (fell_back) {
    if (!opts.allow_bisection_fallback) {
      throw convergence_error(
          "bd2val: dqds failed to converge and the bisection fallback is "
          "disabled");
    }
    // dqds works on its own qd array, so (d, e) is the untouched input;
    // bisection always terminates.
    if (info != nullptr) {
      info->bisection_fallback = true;
      info->status = Status::Degraded;
    }
    return sturm_singular_values<T>(d, e);
  }
  std::sort(sv.begin(), sv.end(), std::greater<>());
  return sv;
}

#define TBSVD_INSTANTIATE_BD2VAL(T)                           \
  template std::vector<T> bd2val<T>(std::vector<T>, std::vector<T>, \
                                    const Bd2valOptions&, Bd2valInfo*);

TBSVD_INSTANTIATE_BD2VAL(float)
TBSVD_INSTANTIATE_BD2VAL(double)

#undef TBSVD_INSTANTIATE_BD2VAL

}  // namespace tbsvd
