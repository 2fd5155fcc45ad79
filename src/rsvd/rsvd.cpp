#include "rsvd/rsvd.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "baseline/chan.hpp"
#include "common/check.hpp"
#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/hazard.hpp"
#include "common/rng.hpp"
#include "lac/blas.hpp"
#include "runtime/task_graph.hpp"
#include "tune/tune.hpp"

namespace tbsvd {

namespace {

/// Library default for GesvdTruncatedOptions::oversample == 0.
constexpr int kDefaultOversample = 8;

/// Rows per task of the tall products. A constant rather than a function
/// of nthreads, so every thread count runs the same gemm calls and sums
/// the same partials in the same order: the products, and with them the
/// whole solve, are bitwise identical for every nthreads.
constexpr int kRowChunk = 1024;

/// C = A B for tall A (m x n) and C (m x l): one serial gemm per
/// kRowChunk-row chunk of A and C, on nthreads workers.
template <class T>
void gemm_tall_nn(ConstMatrixViewT<T> A, ConstMatrixViewT<T> B,
                  MatrixViewT<T> C, int nthreads) {
  TaskGraph g;
  for (int r0 = 0; r0 < A.m; r0 += kRowChunk) {
    const int rows = std::min(kRowChunk, A.m - r0);
    const MatrixViewT<T> Cc = C.block(r0, 0, rows, C.n);
    g.submit("rsvd_gemm_nn", [A, B, Cc, r0, rows] {
      gemm<T>(Trans::No, Trans::No, T(1), A.block(r0, 0, rows, A.n), B, T(0),
              Cc);
    }, {{Cc.a, Access::Write}});
  }
  g.run(nthreads);
}

/// C = A^T B for tall A (m x n) and B (m x l), C (n x l): one partial
/// product per kRowChunk-row chunk, then the partials summed in chunk
/// order, one task per kSumCols-column block of C.
template <class T>
void gemm_tall_tn(ConstMatrixViewT<T> A, ConstMatrixViewT<T> B,
                  MatrixViewT<T> C, int nthreads) {
  constexpr int kSumCols = 8;
  const int nchunks = (A.m + kRowChunk - 1) / kRowChunk;
  const std::size_t psize = static_cast<std::size_t>(C.m) * C.n;
  std::vector<T> part(psize * nchunks);
  TaskGraph g;
  std::vector<DataRef> sum_refs;
  for (int c = 0; c < nchunks; ++c) {
    const int r0 = c * kRowChunk;
    const int rows = std::min(kRowChunk, A.m - r0);
    const MatrixViewT<T> P(part.data() + psize * c, C.m, C.n, C.m);
    g.submit("rsvd_gemm_tn", [A, B, P, r0, rows] {
      gemm<T>(Trans::Yes, Trans::No, T(1), A.block(r0, 0, rows, A.n),
              B.block(r0, 0, rows, B.n), T(0), P);
    }, {{P.a, Access::Write}});
    sum_refs.push_back({P.a, Access::Read});
  }
  // Each sum task reads every partial and writes its block of C.
  sum_refs.push_back({nullptr, Access::Write});
  for (int j0 = 0; j0 < C.n; j0 += kSumCols) {
    const int cols = std::min(kSumCols, C.n - j0);
    sum_refs.back().key = C.col(j0);
    g.submit("rsvd_gemm_tn_sum", [&part, psize, nchunks, C, j0, cols] {
      for (int j = j0; j < j0 + cols; ++j) {
        const T* p0 = part.data() + static_cast<std::size_t>(j) * C.m;
        std::copy(p0, p0 + C.m, C.col(j));
        for (int c = 1; c < nchunks; ++c) {
          axpy<T>(C.m, T(1), p0 + psize * c, 1, C.col(j), 1);
        }
      }
    }, sum_refs);
  }
  g.run(nthreads);
}

/// One-sided Jacobi with accumulated right rotations: on exit the columns
/// of W (n x l) are mutually orthogonal, J (l x l, entered as identity)
/// holds the accumulated rotation product, and sigma[j] = ||W col j||.
/// With W entered as B^T this yields B = J diag(sigma) V^T where V is W's
/// normalized columns — the factor pieces gesvd_truncated needs. Only used
/// on the l-column projected matrix, so the O(l^2 n) sweeps are cheap.
template <class T>
void one_sided_jacobi(MatrixViewT<T> W, MatrixViewT<T> J,
                      std::vector<double>& sigma) {
  const int n = W.m, l = W.n;
  const double eps = static_cast<double>(std::numeric_limits<T>::epsilon());
  constexpr int kMaxSweeps = 30;
  bool converged = false;
  for (int sweep = 0; sweep < kMaxSweeps && !converged; ++sweep) {
    converged = true;
    for (int p = 0; p < l - 1; ++p) {
      for (int q = p + 1; q < l; ++q) {
        double app = 0.0, aqq = 0.0, apq = 0.0;
        const T* wp = W.col(p);
        const T* wq = W.col(q);
        for (int i = 0; i < n; ++i) {
          const double x = wp[i], y = wq[i];
          app += x * x;
          aqq += y * y;
          apq += x * y;
        }
        // sqrt(app) * sqrt(aqq), not sqrt(app * aqq): the product
        // overflows for column norms above ~1e77 and underflows below
        // ~1e-77, which would pass or never pass the test regardless of
        // the actual angle.
        if (std::fabs(apq) <= 8.0 * eps * std::sqrt(app) * std::sqrt(aqq) ||
            apq == 0.0) {
          continue;
        }
        converged = false;
        // Rutishauser rotation zeroing the (p, q) Gram entry.
        const double tau = (aqq - app) / (2.0 * apq);
        const double t = (tau >= 0.0 ? 1.0 : -1.0) /
                         (std::fabs(tau) + std::sqrt(1.0 + tau * tau));
        const double c = 1.0 / std::sqrt(1.0 + t * t);
        const double s = t * c;
        T* mwp = W.col(p);
        T* mwq = W.col(q);
        for (int i = 0; i < n; ++i) {
          const double x = mwp[i], y = mwq[i];
          mwp[i] = static_cast<T>(c * x - s * y);
          mwq[i] = static_cast<T>(s * x + c * y);
        }
        T* jp = J.col(p);
        T* jq = J.col(q);
        for (int i = 0; i < l; ++i) {
          const double x = jp[i], y = jq[i];
          jp[i] = static_cast<T>(c * x - s * y);
          jq[i] = static_cast<T>(s * x + c * y);
        }
      }
    }
  }
  if (!converged) {
    throw convergence_error(
        "gesvd_truncated: one-sided Jacobi failed to converge");
  }
  sigma.resize(l);
  for (int j = 0; j < l; ++j) {
    sigma[j] = static_cast<double>(nrm2<T>(n, W.col(j), 1));
  }
}

}  // namespace

template <class T>
TruncatedSvdT<T> gesvd_truncated(ConstMatrixViewT<T> A, int k,
                                 const GesvdTruncatedOptions& opts) {
  TBSVD_CHECK(A.m >= A.n && A.n >= 1,
              "gesvd_truncated requires m >= n >= 1 (transpose first)");
  TBSVD_CHECK(A.a != nullptr && A.ld >= A.m,
              "gesvd_truncated: invalid input view");
  TBSVD_CHECK(k >= 1 && k <= std::min(A.m, A.n),
              "gesvd_truncated: k must be in [1, min(m, n)]");
  TBSVD_CHECK(opts.oversample >= 0,
              "gesvd_truncated: oversample must be >= 0 (0 = default)");
  TBSVD_CHECK(opts.power_iters >= 0,
              "gesvd_truncated: power_iters must be >= 0");
  TBSVD_CHECK(opts.nb >= 0 && opts.ib >= 0,
              "gesvd_truncated: nb/ib must be >= 0 (0 = tuned)");
  TBSVD_CHECK(opts.nthreads >= 1, "gesvd_truncated: nthreads must be >= 1");

  const int m = A.m, n = A.n;
  TruncatedSvdT<T> res;
  SvdInfo& si = res.info;

  // The sketch products square the norm, so they must see data inside the
  // per-precision safe range: when the guard scales, they read a scaled
  // working copy; otherwise they read A itself.
  const SafeScaling<T> guard(A, "gesvd_truncated");
  MatrixT<T> scaled;
  ConstMatrixViewT<T> Aw = A;
  if (guard.active()) {
    scaled = MatrixT<T>(m, n);
    copy<T>(A, scaled.view());
    guard.scale(scaled.view());
    Aw = scaled.cview();
  }
  const int nt = opts.nthreads;

  const int oversample =
      tune::resolved_oversample(opts.oversample, kDefaultOversample);
  const int l = std::min(n, k + oversample);

  // Gaussian sketch: Y = A * Omega picks up a basis of A's dominant range
  // with the oversampled columns absorbing the noise subspace.
  Rng rng(opts.seed);
  MatrixT<T> Omega(n, l);
  for (int j = 0; j < l; ++j) {
    for (int i = 0; i < n; ++i) Omega(i, j) = static_cast<T>(rng.normal());
  }
  MatrixT<T> Y(m, l);
  gemm_tall_nn<T>(Aw, Omega.cview(), Y.view(), nt);
  if (TBSVD_FAULT_FIRE("rsvd.sketch_poison")) {
    Y(0, 0) = std::numeric_limits<T>::quiet_NaN();
  }

  TsqrOptions qo;
  qo.tree = opts.tree;
  qo.nb = opts.nb;
  qo.ib = opts.ib;
  qo.nthreads = nt;
  std::size_t tasks = 0;
  auto orthonormalize = [&](ConstMatrixViewT<T> X) {
    TsqrFactorsT<T> f = tsqr<T>(X, qo);
    tasks += f.ntasks;
    return tsqr_form_q<T>(f, nt);
  };

  // Subspace iteration on (A A^T), re-orthonormalized through TSQR on the
  // SHORT side (n x l) after each round trip: normalizing Qz bounds the
  // basis against collapse onto the top vector, while the expensive tall
  // m x l TSQR runs exactly once, after the loop. The unnormalized
  // intermediates stay inside the safe range because the dlascl
  // pre-scaling above caps amax at svd_safe_target — chosen so amax^2
  // times the dimension factors cannot overflow the working precision.
  for (int it = 0; it < opts.power_iters; ++it) {
    MatrixT<T> Z(n, l);
    gemm_tall_tn<T>(Aw, Y.cview(), Z.view(), nt);
    const MatrixT<T> Qz = orthonormalize(Z.cview());  // n x l, cheap
    gemm_tall_nn<T>(Aw, Qz.cview(), Y.view(), nt);
  }
  const MatrixT<T> Q = orthonormalize(Y.cview());  // m x l
  si.ge2bnd_tasks = tasks;

  // Projected matrix, stored transposed: W = A^T Q = B^T (n x l, tall),
  // the m >= n orientation the shared direct staging wants.
  MatrixT<T> W(n, l);
  gemm_tall_tn<T>(Aw, Q.cview(), W.view(), nt);

  // Values through the Chan staging (on a copy when the factor path still
  // needs W), unscaled by the guard.
  {
    MatrixT<T> Wc = W;
    std::vector<T> tfac(static_cast<std::size_t>(l) * l);
    std::vector<T> rbuf(static_cast<std::size_t>(l) * l);
    Bd2valInfo bi;
    res.values = guard.finish(
        chan_stage_values<T>(Wc.view(), tfac.data(), rbuf.data(), {},
                             opts.bd2val, &bi),
        bi, &si);
    res.values.resize(k);
  }

  if (opts.want_factors) {
    // B = Q^T A = J diag(sigma) V^T from the one-sided Jacobi on W = B^T,
    // so U = Q J[:, :k] and V = W's normalized columns. The Jacobi sigmas
    // only order/normalize the vectors; the returned values stay the
    // direct-staging ones above (identical to working precision).
    MatrixT<T> J = MatrixT<T>::identity(l);
    std::vector<double> sigma;
    one_sided_jacobi<T>(W.view(), J.view(), sigma);
    std::vector<int> order(l);
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(),
              [&sigma](int a, int b) { return sigma[a] > sigma[b]; });
    MatrixT<T> Jk(l, k);
    res.V = MatrixT<T>(n, k);
    for (int j = 0; j < k; ++j) {
      const int src = order[j];
      for (int i = 0; i < l; ++i) Jk(i, j) = J(i, src);
      if (sigma[src] > 0.0) {
        const T inv = static_cast<T>(1.0 / sigma[src]);
        for (int i = 0; i < n; ++i) res.V(i, j) = W(i, src) * inv;
      }  // a zero singular value has no defined vector; leave the column 0
    }
    res.U = MatrixT<T>(m, k);
    gemm_tall_nn<T>(Q.cview(), Jk.cview(), res.U.view(), nt);
  }
  return res;
}

#define TBSVD_INSTANTIATE_RSVD(T)                                         \
  template TruncatedSvdT<T> gesvd_truncated<T>(                           \
      ConstMatrixViewT<T>, int, const GesvdTruncatedOptions&);

TBSVD_INSTANTIATE_RSVD(float)
TBSVD_INSTANTIATE_RSVD(double)

#undef TBSVD_INSTANTIATE_RSVD

}  // namespace tbsvd
