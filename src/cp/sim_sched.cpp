#include "cp/sim_sched.hpp"

#include "common/check.hpp"
#include "cp/dist_sim.hpp"

namespace tbsvd {

SimResult simulate_schedule(const std::vector<TileOp>& ops, int nprocs,
                            const OpCost& cost) {
  TBSVD_CHECK(nprocs >= 1, "simulate_schedule: need >= 1 processor");
  // One node of `nprocs` cores: no edge crosses a node, so the network
  // model (and the tile size pricing it) never enters.
  DistSimParams params;
  params.cores_per_node = nprocs;
  params.nb = 1;
  const DistSimResult d =
      simulate_distributed(ops, Distribution(1, 1), params, cost);
  SimResult res;
  res.makespan = d.makespan;
  res.total_work = d.total_work;
  if (d.makespan > 0.0) res.utilization = d.total_work / (d.makespan * nprocs);
  return res;
}

}  // namespace tbsvd
