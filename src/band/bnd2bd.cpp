#include "band/bnd2bd.hpp"

#include <algorithm>
#include <atomic>
#include <limits>
#include <system_error>
#include <thread>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

#include "common/check.hpp"
#include "common/fault.hpp"
#include "lac/householder.hpp"

namespace tbsvd {

namespace {

// Generate the reflector annihilating x[1..len) against x[0] (stride inc),
// apply it through `apply` with x[0] temporarily set to 1 (the v(0) == 1
// convention of larf_*), then leave beta in x[0] and zeros in the tail.
template <class T, class Apply>
void reflect(int len, T* x, int inc, Apply apply) {
  const T tau = larfg<T>(len, x[0], x + inc, inc);
  if (tau == T(0)) return;
  const T beta = x[0];
  x[0] = T(1);
  apply(tau, x);
  x[0] = beta;
  for (int k = 1; k < len; ++k) x[k * inc] = T(0);
}

// Spin until a sweep's progress counter reaches `need` halves. The waits
// are short (one half-step of the sweep ahead), so pause first and yield
// only when the owner of that sweep is descheduled.
inline void wait_for(const std::atomic<int>& progress, int need) {
  int spins = 0;
  while (progress.load(std::memory_order_acquire) < need) {
    if (spins < 256) {
      ++spins;
#if defined(__x86_64__) || defined(__i386__)
      _mm_pause();
#endif
    } else {
      std::this_thread::yield();
    }
  }
}

}  // namespace

template <class T>
BidiagonalT<T> bnd2bd(const BandMatrixT<T>& B, int nthreads) {
  TBSVD_CHECK(B.kl() == 0, "bnd2bd expects an upper-band matrix (kl = 0)");
  TBSVD_CHECK(nthreads >= 1, "bnd2bd: nthreads must be >= 1");
  const int n = B.n();
  const int b = B.ku();
  BidiagonalT<T> out;
  out.d.resize(n, T(0));
  out.e.resize(std::max(0, n - 1), T(0));

  // Working band: b subdiagonals for the lower fill of a right reflector,
  // 2b superdiagonals for the upper bulge of a left reflector.
  BandMatrixT<T> W(n, b, 2 * b);
  for (int j = 0; j < n; ++j) {
    for (int i = std::max(0, j - b); i <= j; ++i) W.at(i, j) = B.get(i, j);
  }
  const int nsweeps = (b >= 2) ? std::max(0, n - 1) : 0;
  // done[s] counts the completed halves of sweep s (kDone once the sweep
  // is over). Half h of sweep s waits for h + 4 halves of sweep s - 1.
  constexpr int kDone = std::numeric_limits<int>::max();
  std::vector<std::atomic<int>> done(nsweeps);
  const auto sweep = [&](int s) {
    const auto wait_prev = [&](int h) {
      if (s > 0) wait_for(done[s - 1], h + 4);
    };
    int h = 0;
    for (int r = s, c = s + 1; c < n; r = c, c += b) {
      const int L = std::min(b, n - c);
      if (L < 2) break;
      // Right reflector: row r keeps only column c of [c, c + L). Its
      // columns reach rows r+1 .. c+L-1 and leave lower fill below (c, c).
      wait_prev(h);
      const int rlast = std::min(n - 1, c + L - 1);
      MatrixViewT<T> row = W.view(r, c, 1, L);
      reflect<T>(L, row.a, row.ld, [&](T tau, const T* v) {
        larf_right<T>(tau, v, row.ld, W.view(r + 1, c, rlast - r, L));
      });
      done[s].store(++h, std::memory_order_release);
      // Left reflector: column c keeps only row c of [c, c + L). Its rows
      // reach columns c+1 .. c+L-1+b; row c's part past c+b is the bulge
      // the next step's right reflector removes.
      wait_prev(h);
      const int clast = std::min(n - 1, c + L - 1 + b);
      MatrixViewT<T> col = W.view(c, c, L, 1);
      reflect<T>(L, col.a, 1, [&](T tau, const T* v) {
        larf_left<T>(tau, v, 1, W.view(c, c + 1, L, clast - c));
      });
      done[s].store(++h, std::memory_order_release);
    }
    done[s].store(kDone, std::memory_order_release);
  };
  // Workers claim sweeps in increasing order (worker t of P takes sweeps
  // t, t + P, ... while they run at the same pace), so the lowest
  // unfinished sweep always has a running owner and every wait ends, with
  // any number of workers. P = 1 is the serial chase.
  std::atomic<int> next{0};
  const auto work = [&] {
    for (int s; (s = next.fetch_add(1, std::memory_order_relaxed)) < nsweeps;) {
      sweep(s);
    }
  };
  int P = (b >= 2) ? std::min(nthreads, n / (3 * b)) : 1;
  if (P < 3) P = 1;
  std::vector<std::thread> workers;
  try {
    for (int t = 1; t < P; ++t) workers.emplace_back(work);
  } catch (const std::system_error&) {
    // No thread to spare: the workers that did start and this thread
    // finish the chase, with the same result.
  }
  work();
  for (std::thread& w : workers) w.join();

  for (int i = 0; i < n; ++i) out.d[i] = W.get(i, i);
  for (int i = 0; i + 1 < n; ++i) out.e[i] = W.get(i, i + 1);
  if (n > 0 && TBSVD_FAULT_FIRE("band.bnd2bd.poison_nan")) {
    out.d[0] = std::numeric_limits<T>::quiet_NaN();
  }
  return out;
}

template BidiagonalT<float> bnd2bd<float>(const BandMatrixT<float>&, int);
template BidiagonalT<double> bnd2bd<double>(const BandMatrixT<double>&, int);

}  // namespace tbsvd
