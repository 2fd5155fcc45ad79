#include "rsvd/tsqr.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/error.hpp"
#include "common/hazard.hpp"
#include "core/alg_gen.hpp"
#include "kernels/qr_kernels.hpp"
#include "lac/blas.hpp"
#include "runtime/task_graph.hpp"
#include "tune/tune.hpp"

namespace tbsvd {

namespace {

// Same resolution rule as the dense SVD driver: explicit nb wins, the 0
// sentinel takes the tuned nb capped at the panel width (rounded up for
// kernel alignment, floored at 16 so tiles stay efficient). The cap
// matters: every tile kernel costs O(nb^3) regardless of how many of the
// nb columns are real, so a 64-wide tile on a 40-column sketch panel
// wastes ~2.5x the flops in padding — and the range finder's TSQR runs on
// exactly such panels.
template <class T>
int resolve_tsqr_nb(int requested, int n) {
  const int nb = tune::resolved_nb(requested, static_cast<int>(sizeof(T)),
                                   /*fallback=*/64);
  if (requested > 0) return nb;
  const int cap = std::max(16, ((n + 7) / 8) * 8);
  return std::max(1, std::min(nb, cap));
}

// Replay the factorization's QR panel transforms over one tile column of C:
// forward order composes Q^T, reverse order Q.
template <class T>
void replay_col(const TsqrFactorsT<T>& f, Trans trans, TileMatrixT<T>& C,
                int jq) {
  using namespace kernels;
  const int ib = f.ib;
  auto apply = [&](const TileOp& t) {
    switch (t.op) {
      case Op::GEQRT:
        unmqr<T>(trans, f.A.tile(t.tgt, t.k), f.t.tqts.tile(t.tgt, t.k),
                 C.tile(t.tgt, jq), ib);
        break;
      case Op::TSQRT:
        tsmqr<T>(trans, C.tile(t.piv, jq), C.tile(t.tgt, jq),
                 f.A.tile(t.tgt, t.k), f.t.tqts.tile(t.tgt, t.k), ib);
        break;
      case Op::TTQRT:
        ttmqr<T>(trans, C.tile(t.piv, jq), C.tile(t.tgt, jq),
                 f.A.tile(t.tgt, t.k), f.t.tqtt.tile(t.tgt, t.k), ib);
        break;
      default:
        break;
    }
  };
  if (trans == Trans::Yes) {
    for (const TileOp& t : f.ops) {
      if (op_is_panel(t.op) && !op_is_lq(t.op)) apply(t);
    }
  } else {
    for (auto it = f.ops.rbegin(); it != f.ops.rend(); ++it) {
      if (op_is_panel(it->op) && !op_is_lq(it->op)) apply(*it);
    }
  }
}

// Tile columns of C are independent under the replay; one task per column
// keeps the executor's queues busy without any inter-task dependencies.
template <class T>
void replay_q(const TsqrFactorsT<T>& f, Trans trans, TileMatrixT<T>& C,
              int nthreads) {
  TBSVD_CHECK(nthreads >= 1, "tsqr_apply_q: nthreads must be >= 1");
  const int nct = C.nt();
  if (nthreads == 1 || nct == 1) {
    for (int jq = 0; jq < nct; ++jq) replay_col<T>(f, trans, C, jq);
    return;
  }
  TaskGraph g;
  for (int jq = 0; jq < nct; ++jq) {
    g.submit("tsqr_apply_col",
             [&f, trans, &C, jq] { replay_col<T>(f, trans, C, jq); },
             {{C.tile_ptr(0, jq), Access::Write}});
  }
  g.run(nthreads);
}

}  // namespace

template <class T>
MatrixT<T> TsqrFactorsT<T>::r() const {
  MatrixT<T> R(n, n);
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i <= j; ++i) R(i, j) = A.at(i, j);
  }
  return R;
}

template <class T>
TsqrFactorsT<T> tsqr(ConstMatrixViewT<T> A, const TsqrOptions& opts) {
  TBSVD_CHECK(A.m >= A.n && A.n >= 1,
              "tsqr requires m >= n >= 1 (tall-skinny; transpose first)");
  TBSVD_CHECK(A.a != nullptr && A.ld >= A.m, "tsqr: invalid input view");
  TBSVD_CHECK(opts.nb >= 0 && opts.ib >= 0,
              "tsqr: nb/ib must be >= 0 (0 = tuned)");
  TBSVD_CHECK(opts.nthreads >= 1, "tsqr: nthreads must be >= 1");
  if (!all_finite<T>(A)) {
    throw numerical_hazard_error("tsqr: non-finite entry in input");
  }

  TsqrFactorsT<T> f;
  f.m = A.m;
  f.n = A.n;
  const int nb = resolve_tsqr_nb<T>(opts.nb, A.n);
  f.A = tile_from_dense_padded<T>(A, nb);
  const int p = f.A.mt(), q = f.A.nt();
  f.ib = std::min(
      tune::resolved_ib(opts.ib, static_cast<int>(sizeof(T)), /*fallback=*/32),
      nb);

  AlgConfig cfg;
  cfg.qr_tree = opts.tree;
  cfg.ncores = opts.nthreads;
  cfg.gamma = opts.gamma;
  f.ops = build_hqr_ops(p, q, cfg);
  f.t = TFactorsT<T>(p, q, f.ib, nb);

  ExecOptions eo;
  eo.ib = f.ib;
  eo.nthreads = opts.nthreads;
  const ExecResult r = execute_tile_ops<T>(f.A, f.ops, eo, f.t);
  f.ntasks = r.ntasks;
  return f;
}

template <class T>
void tsqr_apply_q(const TsqrFactorsT<T>& f, Trans trans, MatrixViewT<T> C,
                  int nthreads) {
  TBSVD_CHECK(C.m == f.m, "tsqr_apply_q: C must have the factored row count");
  TBSVD_CHECK(C.n >= 0 && (C.n == 0 || (C.a != nullptr && C.ld >= C.m)),
              "tsqr_apply_q: invalid C view");
  if (C.n == 0) return;
  TileMatrixT<T> Ct = tile_from_dense_padded<T>(ConstMatrixViewT<T>(C),
                                                f.A.nb());
  replay_q<T>(f, trans, Ct, nthreads);
  const MatrixT<T> dense = Ct.to_dense();
  copy<T>(dense.cview().block(0, 0, C.m, C.n), C);
}

template <class T>
MatrixT<T> tsqr_form_q(const TsqrFactorsT<T>& f, int nthreads) {
  const int nb = f.A.nb();
  TileMatrixT<T> Ct(f.A.rows(), pad_to_tiles(f.n, nb), nb);
  for (int i = 0; i < f.n; ++i) Ct.at(i, i) = T(1);
  replay_q<T>(f, Trans::No, Ct, nthreads);
  const MatrixT<T> dense = Ct.to_dense();
  MatrixT<T> Q(f.m, f.n);
  copy<T>(dense.cview().block(0, 0, f.m, f.n), Q.view());
  return Q;
}

#define TBSVD_INSTANTIATE_TSQR(T)                                         \
  template struct TsqrFactorsT<T>;                                        \
  template TsqrFactorsT<T> tsqr<T>(ConstMatrixViewT<T>,                   \
                                   const TsqrOptions&);                   \
  template void tsqr_apply_q<T>(const TsqrFactorsT<T>&, Trans,            \
                                MatrixViewT<T>, int);                     \
  template MatrixT<T> tsqr_form_q<T>(const TsqrFactorsT<T>&, int);

TBSVD_INSTANTIATE_TSQR(float)
TBSVD_INSTANTIATE_TSQR(double)

#undef TBSVD_INSTANTIATE_TSQR

}  // namespace tbsvd
