#include "core/alg_gen.hpp"

#include "common/check.hpp"
#include "trees/greedy_sched.hpp"

namespace tbsvd {

namespace {

// Pipelined greedy QR factorization: eliminations paired by availability
// across panels (Section IV.B's QR-GRE). Used for the full-QR phase when
// the Greedy tree is requested on a single node; the per-panel binomial
// tree would serialize panel tails and lose the 22q + o(q) behaviour.
void emit_greedy_hqr(std::vector<TileOp>& ops, int p, int q) {
  const GreedyQrSchedule sched = greedy_qr_schedule(p, q);
  const int steps = static_cast<int>(sched.column_elims.size());
  for (int k = 0; k < steps; ++k) {
    for (int i = k; i < p; ++i) {
      ops.push_back({Op::GEQRT, k, -1, i, -1});
      for (int j = k + 1; j < q; ++j) {
        ops.push_back({Op::UNMQR, k, -1, i, j});
      }
    }
    for (const Elim& e : sched.column_elims[k]) {
      ops.push_back({Op::TTQRT, k, e.piv, e.row, -1});
      for (int j = k + 1; j < q; ++j) {
        ops.push_back({Op::TTMQR, k, e.piv, e.row, j});
      }
    }
  }
}

StepPlan plan_for_step(TreeKind kind, const AlgConfig& cfg, int u, int offset,
                       int grid_dim, int ntrail) {
  AutoConfig ac;
  ac.ncores = cfg.ncores;
  ac.gamma = cfg.gamma;
  ac.ntrail = ntrail;
  if (cfg.dist != nullptr && grid_dim > 1) {
    HierConfig hc;
    hc.grid_dim = grid_dim;
    hc.top_greedy = (kind == TreeKind::Greedy || kind == TreeKind::Auto);
    hc.local = kind;
    hc.auto_cfg = ac;
    return make_hier_plan(u, offset, hc);
  }
  return make_step_plan(kind, u, &ac);
}

// QR step k on tile rows k..p_eff-1, updating columns k+1..q_eff-1.
void emit_qr_step(std::vector<TileOp>& ops, int k, int q_eff,
                  const StepPlan& plan) {
  for (int loc : plan.prep) {
    const int i = k + loc;
    ops.push_back({Op::GEQRT, k, -1, i, -1});
    for (int j = k + 1; j < q_eff; ++j) {
      ops.push_back({Op::UNMQR, k, -1, i, j});
    }
  }
  for (const Elim& e : plan.elims) {
    const int piv = k + e.piv;
    const int row = k + e.row;
    if (e.kind == ElimKind::TS) {
      ops.push_back({Op::TSQRT, k, piv, row, -1});
      for (int j = k + 1; j < q_eff; ++j) {
        ops.push_back({Op::TSMQR, k, piv, row, j});
      }
    } else {
      ops.push_back({Op::TTQRT, k, piv, row, -1});
      for (int j = k + 1; j < q_eff; ++j) {
        ops.push_back({Op::TTMQR, k, piv, row, j});
      }
    }
  }
}

// LQ step k on tile columns k+1..q_eff-1, updating rows k+1..p_eff-1.
void emit_lq_step(std::vector<TileOp>& ops, int k, int p_eff,
                  const StepPlan& plan) {
  for (int loc : plan.prep) {
    const int j = k + 1 + loc;
    ops.push_back({Op::GELQT, k, -1, j, -1});
    for (int i = k + 1; i < p_eff; ++i) {
      ops.push_back({Op::UNMLQ, k, -1, j, i});
    }
  }
  for (const Elim& e : plan.elims) {
    const int pj = k + 1 + e.piv;
    const int j = k + 1 + e.row;
    if (e.kind == ElimKind::TS) {
      ops.push_back({Op::TSLQT, k, pj, j, -1});
      for (int i = k + 1; i < p_eff; ++i) {
        ops.push_back({Op::TSMLQ, k, pj, j, i});
      }
    } else {
      ops.push_back({Op::TTLQT, k, pj, j, -1});
      for (int i = k + 1; i < p_eff; ++i) {
        ops.push_back({Op::TTMLQ, k, pj, j, i});
      }
    }
  }
}

int qr_grid_dim(const AlgConfig& cfg) {
  return cfg.dist ? cfg.dist->grid_rows() : 1;
}
int lq_grid_dim(const AlgConfig& cfg) {
  return cfg.dist ? cfg.dist->grid_cols() : 1;
}

}  // namespace

std::vector<TileOp> build_hqr_ops(int p, int q, const AlgConfig& cfg) {
  TBSVD_CHECK(p >= 1 && q >= 1, "build_hqr_ops: empty grid");
  std::vector<TileOp> ops;
  if (cfg.qr_tree == TreeKind::Greedy && cfg.dist == nullptr) {
    emit_greedy_hqr(ops, p, q);
    return ops;
  }
  const int steps = std::min(p, q);
  for (int k = 0; k < steps; ++k) {
    StepPlan plan =
        plan_for_step(cfg.qr_tree, cfg, p - k, k, qr_grid_dim(cfg), q - k - 1);
    emit_qr_step(ops, k, q, plan);
  }
  return ops;
}

std::vector<TileOp> build_bidiag_ops(int p, int q, const AlgConfig& cfg) {
  TBSVD_CHECK(p >= q && q >= 1, "BIDIAG requires p >= q >= 1");
  std::vector<TileOp> ops;
  for (int k = 0; k < q; ++k) {
    StepPlan plan = plan_for_step(cfg.qr_tree, cfg, p - k, k,
                                  qr_grid_dim(cfg), q - k - 1);
    emit_qr_step(ops, k, q, plan);
    if (k < q - 1) {
      plan = plan_for_step(cfg.lq_tree, cfg, q - k - 1, k + 1,
                           lq_grid_dim(cfg), p - k - 1);
      emit_lq_step(ops, k, p, plan);
    }
  }
  return ops;
}

std::vector<TileOp> build_rbidiag_ops(int p, int q, const AlgConfig& cfg) {
  TBSVD_CHECK(p >= q && q >= 1, "R-BIDIAG requires p >= q >= 1");
  // Phase 1: full QR factorization of the p x q grid (pipelined greedy
  // ordering when the Greedy tree is requested on a single node).
  std::vector<TileOp> ops = build_hqr_ops(p, q, cfg);
  // Phase boundary: the R factor's tiles still hold the QR phase's (dead)
  // Householder vectors — strictly below the diagonal of diagonal tiles and
  // in whole sub-diagonal tiles. Phase 2 reads and right-multiplies those
  // regions, so they must be explicitly cleared to their mathematical value
  // (zero). Column 0 is never touched again and is skipped.
  for (int k = 1; k < q; ++k) {
    ops.push_back({Op::LASET, k, -1, k, 1});  // strictly lower
    for (int i = k + 1; i < q; ++i) {
      ops.push_back({Op::LASET, k, -1, i, 0});  // whole tile
    }
  }
  // Phase 2: bidiagonalization of the top q x q block. Its first QR step
  // is the identity (column 0 of R is already reduced), so the sequence is
  // LQ(0), QR(1), LQ(1), ..., QR(q-1). Data-flow ordering lets LQ(0) start
  // as soon as QR-phase work on row 0 has finished.
  for (int k = 0; k < q; ++k) {
    if (k > 0) {
      StepPlan plan = plan_for_step(cfg.qr_tree, cfg, q - k, k,
                                    qr_grid_dim(cfg), q - k - 1);
      emit_qr_step(ops, k, q, plan);
    }
    if (k < q - 1) {
      StepPlan plan = plan_for_step(cfg.lq_tree, cfg, q - k - 1, k + 1,
                                    lq_grid_dim(cfg), q - k - 1);
      emit_lq_step(ops, k, q, plan);
    }
  }
  return ops;
}

bool prefer_rbidiag(int p, int q) noexcept {
  // Chan's flop crossover m >= 5/3 n, expressed on the tile grid.
  return 3 * p >= 5 * q;
}

}  // namespace tbsvd
