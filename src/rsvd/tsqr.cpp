#include "rsvd/tsqr.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "common/error.hpp"
#include "common/hazard.hpp"
#include "core/alg_gen.hpp"
#include "kernels/qr_kernels.hpp"
#include "lac/blas.hpp"
#include "runtime/task_graph.hpp"

namespace tbsvd {

namespace {

// Built-in tile width and inner blocking behind the TsqrOptions 0 sentinels.
constexpr int kDefaultNb = 64;
constexpr int kDefaultIb = 32;

// Explicit nb wins. The 0 sentinel splits the panel into the tile count
// nearest n / kDefaultNb, then takes the narrowest tile that covers it
// (rounded up for kernel alignment, floored at 16 so tiles stay
// efficient). Every tile kernel costs O(nb^3) whether or not its columns
// are real, so a 72-wide sketch panel gets one 72-wide tile rather than
// 64 + 64 (88% of the second tile padding), a 40-wide one stays 40, and
// a 256-wide one keeps 64.
int resolve_tsqr_nb(int requested, int n) {
  if (requested > 0) return requested;
  const int q = std::max(
      1, static_cast<int>(std::lround(static_cast<double>(n) / kDefaultNb)));
  const int width = (n + q - 1) / q;
  return std::max(16, ((width + 7) / 8) * 8);
}

// Apply one recorded QR panel transform to tile column jq of C.
template <class T>
void apply_panel(const TsqrFactorsT<T>& f, Trans trans, const TileOp& t,
                 TileMatrixT<T>& C, int jq) {
  using namespace kernels;
  switch (t.op) {
    case Op::GEQRT:
      unmqr<T>(trans, f.A.tile(t.tgt, t.k), f.t.tqts.tile(t.tgt, t.k),
               C.tile(t.tgt, jq), f.ib);
      break;
    case Op::TSQRT:
      tsmqr<T>(trans, C.tile(t.piv, jq), C.tile(t.tgt, jq),
               f.A.tile(t.tgt, t.k), f.t.tqts.tile(t.tgt, t.k), f.ib);
      break;
    case Op::TTQRT:
      ttmqr<T>(trans, C.tile(t.piv, jq), C.tile(t.tgt, jq),
               f.A.tile(t.tgt, t.k), f.t.tqtt.tile(t.tgt, t.k), f.ib);
      break;
    default:
      break;
  }
}

// Replay the factorization's QR panel transforms on C as a tile DAG: one
// task per (panel op, tile column of C) with ReadWrite on the C tiles the
// op touches. Forward order composes Q^T, reverse order Q. The derived
// dependencies keep each tile's updates in replay order, so the result is
// bitwise the serial replay's for every nthreads, while the reduction
// tree's independent row tiles fan out over the workers.
template <class T>
void replay_q(const TsqrFactorsT<T>& f, Trans trans, TileMatrixT<T>& C,
              int nthreads) {
  TBSVD_CHECK(nthreads >= 1, "tsqr_apply_q: nthreads must be >= 1");
  std::vector<TileOp> panels;
  for (const TileOp& t : f.ops) {
    if (op_is_panel(t.op) && !op_is_lq(t.op)) panels.push_back(t);
  }
  if (trans == Trans::No) std::reverse(panels.begin(), panels.end());

  TaskGraph g;
  for (const TileOp& t : panels) {
    for (int jq = 0; jq < C.nt(); ++jq) {
      auto task = [&f, trans, t, &C, jq] {
        apply_panel<T>(f, trans, t, C, jq);
      };
      if (t.op == Op::GEQRT) {
        g.submit("tsqr_apply_q", task,
                 {{C.tile_ptr(t.tgt, jq), Access::ReadWrite}});
      } else {
        g.submit("tsqr_apply_q", task,
                 {{C.tile_ptr(t.piv, jq), Access::ReadWrite},
                  {C.tile_ptr(t.tgt, jq), Access::ReadWrite}});
      }
    }
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
              "tsqr: nb/ib must be >= 0 (0 = default)");
  TBSVD_CHECK(opts.nthreads >= 1, "tsqr: nthreads must be >= 1");
  if (!all_finite<T>(A)) {
    throw numerical_hazard_error("tsqr: non-finite entry in input");
  }

  TsqrFactorsT<T> f;
  f.m = A.m;
  f.n = A.n;
  const int nb = resolve_tsqr_nb(opts.nb, A.n);
  f.A = tile_from_dense_padded<T>(A, nb);
  const int p = f.A.mt(), q = f.A.nt();
  f.ib = std::min(opts.ib > 0 ? opts.ib : kDefaultIb, nb);

  AlgConfig cfg;
  cfg.qr_tree = opts.tree;
  cfg.ncores = kAutoTargetWorkers;  // tree from the grid, not nthreads
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
