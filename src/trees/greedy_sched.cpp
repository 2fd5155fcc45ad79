#include "trees/greedy_sched.hpp"

#include <algorithm>
#include <queue>

#include "common/check.hpp"
#include "core/tile_ops.hpp"

namespace tbsvd {

GreedyQrSchedule greedy_qr_schedule(int p, int q) {
  TBSVD_CHECK(p >= 1 && q >= 1, "greedy_qr_schedule: empty grid");
  const double w_geqrt = op_weight_units(Op::GEQRT);
  const double w_unmqr = op_weight_units(Op::UNMQR);
  const double w_ttqrt = op_weight_units(Op::TTQRT);
  const double w_ttmqr = op_weight_units(Op::TTMQR);

  const int steps = std::min(p, q);
  GreedyQrSchedule sched;
  sched.column_elims.resize(steps);

  // tau(i, j): completion time of the last operation touching tile (i, j).
  std::vector<std::vector<double>> tau(
      p, std::vector<double>(q, 0.0));
  double makespan = 0.0;

  struct Avail {
    double t;
    int row;
    bool operator>(const Avail& o) const noexcept {
      if (t != o.t) return t > o.t;
      return row > o.row;
    }
  };

  for (int k = 0; k < steps; ++k) {
    // Triangularize every live row as soon as its column-k tile is final,
    // then run its UNMQR update chain on the trailing columns.
    std::priority_queue<Avail, std::vector<Avail>, std::greater<>> pool;
    for (int i = k; i < p; ++i) {
      const double geqrt_end = tau[i][k] + w_geqrt;
      tau[i][k] = geqrt_end;
      makespan = std::max(makespan, geqrt_end);
      double drained = geqrt_end;
      for (int j = k + 1; j < q; ++j) {
        const double end = std::max(geqrt_end, tau[i][j]) + w_unmqr;
        tau[i][j] = end;
        drained = std::max(drained, end);
        makespan = std::max(makespan, end);
      }
      pool.push({drained, i});
    }
    // Greedy pairing: repeatedly eliminate the two earliest-available rows
    // (the lower index survives, so row k survives the whole column). A
    // row re-enters the pool only once its trailing TTMQR updates have
    // drained — pairing on the bare TTQRT end (+2) would let one survivor
    // absorb every arrival and serialize a long TTMQR chain on its
    // trailing tiles, destroying the pipelined critical path.
    while (pool.size() > 1) {
      const Avail a1 = pool.top();
      pool.pop();
      const Avail a2 = pool.top();
      pool.pop();
      const double start = std::max(a1.t, a2.t);
      const double ttqrt_end = start + w_ttqrt;
      const int surv = std::min(a1.row, a2.row);
      const int vict = std::max(a1.row, a2.row);
      sched.column_elims[k].push_back(Elim{surv, vict, ElimKind::TT});
      makespan = std::max(makespan, ttqrt_end);
      tau[surv][k] = ttqrt_end;
      tau[vict][k] = ttqrt_end;
      double drained = ttqrt_end;
      for (int j = k + 1; j < q; ++j) {
        const double end =
            std::max({ttqrt_end, tau[surv][j], tau[vict][j]}) + w_ttmqr;
        tau[surv][j] = end;
        tau[vict][j] = end;
        drained = std::max(drained, end);
        makespan = std::max(makespan, end);
      }
      pool.push({drained, surv});
    }
    // Re-express eliminations relative to local index (pivot row = k is
    // local 0) — callers add k back. Keep absolute indices instead:
    // column_elims stores absolute tile rows already.
  }
  sched.simulated_cp = makespan;
  return sched;
}

}  // namespace tbsvd
