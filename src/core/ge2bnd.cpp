#include "core/ge2bnd.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/hazard.hpp"
#include "common/timer.hpp"
#include "kernels/lq_kernels.hpp"
#include "kernels/qr_kernels.hpp"
#include "kernels/tgrid.hpp"
#include "tune/tune.hpp"

namespace tbsvd {

namespace {

// Resolves a symbolic TileAccess to the concrete tile base pointer.
template <class T>
struct GridSet {
  TileMatrixT<T>* A;
  TGridT<T>* tqts;
  TGridT<T>* tqtt;
  TGridT<T>* tlts;
  TGridT<T>* tltt;

  // Region-granular dependency key: the three parts of an A-tile map to
  // three distinct addresses inside the tile (base, +1, +2). For nb == 1
  // these may collide with a neighbouring tile's key, which only adds
  // conservative (correct) dependencies.
  const T* ptr(Grid g, int i, int j, Part part) const {
    switch (g) {
      case Grid::A: return A->tile_ptr(i, j) + static_cast<int>(part);
      case Grid::Tqts: return tqts->tile_ptr(i, j);
      case Grid::Tqtt: return tqtt->tile_ptr(i, j);
      case Grid::Tlts: return tlts->tile_ptr(i, j);
      case Grid::Tltt: return tltt->tile_ptr(i, j);
    }
    return nullptr;
  }
};

// The kernel call for one op. Captured by value in the task lambda.
template <class T>
void run_op(const TileOp& t, const GridSet<T>& g, int ib) {
  TileMatrixT<T>& A = *g.A;
  using namespace kernels;
  switch (t.op) {
    case Op::GEQRT:
      geqrt<T>(A.tile(t.tgt, t.k), g.tqts->tile(t.tgt, t.k), ib);
      break;
    case Op::UNMQR:
      unmqr<T>(Trans::Yes, A.tile(t.tgt, t.k), g.tqts->tile(t.tgt, t.k),
               A.tile(t.tgt, t.upd), ib);
      break;
    case Op::TSQRT:
      tsqrt<T>(A.tile(t.piv, t.k), A.tile(t.tgt, t.k),
               g.tqts->tile(t.tgt, t.k), ib);
      break;
    case Op::TSMQR:
      tsmqr<T>(Trans::Yes, A.tile(t.piv, t.upd), A.tile(t.tgt, t.upd),
               A.tile(t.tgt, t.k), g.tqts->tile(t.tgt, t.k), ib);
      break;
    case Op::TTQRT:
      ttqrt<T>(A.tile(t.piv, t.k), A.tile(t.tgt, t.k),
               g.tqtt->tile(t.tgt, t.k), ib);
      break;
    case Op::TTMQR:
      ttmqr<T>(Trans::Yes, A.tile(t.piv, t.upd), A.tile(t.tgt, t.upd),
               A.tile(t.tgt, t.k), g.tqtt->tile(t.tgt, t.k), ib);
      break;
    case Op::GELQT:
      gelqt<T>(A.tile(t.k, t.tgt), g.tlts->tile(t.k, t.tgt), ib);
      break;
    case Op::UNMLQ:
      unmlq<T>(Trans::Yes, A.tile(t.k, t.tgt), g.tlts->tile(t.k, t.tgt),
               A.tile(t.upd, t.tgt), ib);
      break;
    case Op::TSLQT:
      tslqt<T>(A.tile(t.k, t.piv), A.tile(t.k, t.tgt),
               g.tlts->tile(t.k, t.tgt), ib);
      break;
    case Op::TSMLQ:
      tsmlq<T>(Trans::Yes, A.tile(t.upd, t.piv), A.tile(t.upd, t.tgt),
               A.tile(t.k, t.tgt), g.tlts->tile(t.k, t.tgt), ib);
      break;
    case Op::TTLQT:
      ttlqt<T>(A.tile(t.k, t.piv), A.tile(t.k, t.tgt),
               g.tltt->tile(t.k, t.tgt), ib);
      break;
    case Op::TTMLQ:
      ttmlq<T>(Trans::Yes, A.tile(t.upd, t.piv), A.tile(t.upd, t.tgt),
               A.tile(t.k, t.tgt), g.tltt->tile(t.k, t.tgt), ib);
      break;
    case Op::LASET: {
      MatrixViewT<T> tile = A.tile(t.tgt, t.k);
      if (t.upd == 0) {
        for (int j = 0; j < tile.n; ++j) {
          for (int i = 0; i < tile.m; ++i) tile(i, j) = T(0);
        }
      } else {
        for (int j = 0; j < tile.n; ++j) {
          for (int i = j + 1; i < tile.m; ++i) tile(i, j) = T(0);
        }
      }
      break;
    }
  }
}

}  // namespace

template <class T>
ExecResult execute_tile_ops(TileMatrixT<T>& A, const std::vector<TileOp>& ops,
                            const ExecOptions& opt) {
  TFactorsT<T> tf(A.mt(), A.nt(), std::min(opt.ib, A.nb()), A.nb());
  return execute_tile_ops<T>(A, ops, opt, tf);
}

template <class T>
ExecResult execute_tile_ops(TileMatrixT<T>& A, const std::vector<TileOp>& ops,
                            const ExecOptions& opt, TFactorsT<T>& tf) {
  TBSVD_CHECK(opt.ib >= 1 && opt.ib <= A.nb(), "ExecOptions: need 1<=ib<=nb");
  TBSVD_CHECK(opt.nthreads >= 1, "ExecOptions: need nthreads >= 1");
  GridSet<T> grids{&A, &tf.tqts, &tf.tqtt, &tf.tlts, &tf.tltt};

  // Ready tasks run critical-path first: each task's priority is its
  // upward rank in this graph, weighted by the active calibration's
  // measured kernel seconds when one is loaded and by the paper's Table-I
  // units otherwise. Priorities only order ready tasks, so the result is
  // bit-identical whatever the weights.
  const OpCost cost = tune::active_op_cost(static_cast<int>(sizeof(T)));
  std::vector<double> weight(ops.size());
  TaskGraph graph;
  std::vector<TileAccess> acc;
  std::vector<DataRef> refs;
  for (std::size_t id = 0; id < ops.size(); ++id) {
    const TileOp& t = ops[id];
    weight[id] = cost ? cost(t) : op_weight_units(t.op);
    acc.clear();
    op_accesses(t, acc);
    refs.clear();
    for (const TileAccess& a : acc) {
      refs.push_back(DataRef{grids.ptr(a.grid, a.i, a.j, a.part), a.access});
    }
    graph.submit(op_name(t.op), [t, grids, ib = opt.ib] {
      run_op<T>(t, grids, ib);
    }, refs);
  }
  graph.prioritize_by_rank(weight);

  WallTimer timer;
  if (opt.nthreads == 1) {
    graph.run_serial();
  } else {
    graph.run(opt.nthreads);
  }
  ExecResult res;
  res.seconds = timer.seconds();
  res.trace = graph.trace();
  res.ntasks = graph.size();
  return res;
}

template <class T>
ExecResult ge2bnd(TileMatrixT<T>& A, const Ge2bndOptions& opt) {
  const int p = A.mt(), q = A.nt();
  TBSVD_CHECK(p >= q && q >= 1, "ge2bnd requires p >= q >= 1 tiles");
  TBSVD_CHECK(opt.ib >= 0, "ge2bnd: need ib >= 0 (0 = tuned/default)");
  TBSVD_CHECK(opt.nthreads >= 1, "ge2bnd: need nthreads >= 1");
  TBSVD_CHECK(opt.gamma > 0.0, "ge2bnd: need gamma > 0");
  // A NaN/Inf anywhere poisons the whole reduction (Householder norms and
  // T factors mix every entry of a panel); reject before spending O(mn^2).
  for (int j = 0; j < q; ++j) {
    for (int i = 0; i < p; ++i) {
      if (!all_finite<T>(A.tile(i, j))) {
        throw numerical_hazard_error("ge2bnd: non-finite entry in tile");
      }
    }
  }
  AlgConfig cfg;
  cfg.qr_tree = opt.qr_tree;
  cfg.lq_tree = opt.lq_tree;
  cfg.ncores = opt.nthreads;
  cfg.gamma = opt.gamma;

  const bool use_r = (opt.alg == BidiagAlg::RBidiag) ||
                     (opt.alg == BidiagAlg::Auto && prefer_rbidiag(p, q));
  std::vector<TileOp> ops =
      use_r ? build_rbidiag_ops(p, q, cfg) : build_bidiag_ops(p, q, cfg);

  ExecOptions eo;
  const int ib =
      tune::resolved_ib(opt.ib, static_cast<int>(sizeof(T)), /*fallback=*/32);
  eo.ib = std::min(ib, A.nb());  // nb caps the useful inner blocking
  eo.nthreads = opt.nthreads;
  return execute_tile_ops<T>(A, ops, eo);
}

#define TBSVD_INSTANTIATE_GE2BND(T)                                       \
  template ExecResult execute_tile_ops<T>(                                \
      TileMatrixT<T>&, const std::vector<TileOp>&, const ExecOptions&);   \
  template ExecResult execute_tile_ops<T>(                                \
      TileMatrixT<T>&, const std::vector<TileOp>&, const ExecOptions&,    \
      TFactorsT<T>&);                                                     \
  template ExecResult ge2bnd<T>(TileMatrixT<T>&, const Ge2bndOptions&);

TBSVD_INSTANTIATE_GE2BND(float)
TBSVD_INSTANTIATE_GE2BND(double)

#undef TBSVD_INSTANTIATE_GE2BND

}  // namespace tbsvd
