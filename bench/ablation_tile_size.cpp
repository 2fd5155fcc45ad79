// Ablation of the tile size nb and inner blocking ib (Section VI.B): a
// large nb speeds up GE2BND (better kernel efficiency) but inflates the
// BND2BD Householder bulge chase (flops ~ 8 n^2 nb, common/flops.hpp) and
// its working band; a small nb does the opposite. The paper tuned nb = 160,
// ib = 32 at m = n = 20000..30000. We report the per-stage split of GE2VAL
// across (nb, ib) on a scaled square problem, plus measured kernel
// efficiency per nb.
//
// Every (nb, ib) point lands in the JSON artifact (default
// BENCH_ablation_tile_size.json) as one Record with the problem extents,
// the total seconds and the ge2bnd_s / bnd2bd_s / bd2val_s stage split
// from GesvdTimings, so the split is diffable across PRs via
// bench/history/.
//
// Usage: ablation_tile_size [--smoke] [--out PATH]
#include <algorithm>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "common/flops.hpp"
#include "core/svd.hpp"

int main(int argc, char** argv) {
  using namespace tbsvd;
  using namespace tbsvd::bench;

  bool smoke = false;
  const char* out = "BENCH_ablation_tile_size.json";
  if (!parse_bench_args(argc, argv, smoke, out)) return 2;

  const int hw = static_cast<int>(
      std::max(1u, std::thread::hardware_concurrency()));
  const int m = smoke ? 384 : full_mode() ? 1536 : 768;
  const int n = m;

  print_header("GE2VAL stage split vs (nb, ib), M=N=" + std::to_string(m),
               {"nb", "ib", "ge2bnd(s)", "bnd2bd(s)", "bd2val(s)",
                "total(s)"});
  struct Cfg {
    int nb, ib;
  };
  std::vector<Cfg> cfgs = {{32, 8},  {32, 32}, {64, 8},
                           {64, 16}, {96, 16}, {128, 32}};
  if (smoke) cfgs = {{32, 8}, {64, 16}};
  Matrix A = generate_random(m, n, 99);
  std::vector<Record> records;
  for (const auto& c : cfgs) {
    GesvdOptions o;
    o.nb = c.nb;
    o.ge2bnd.ib = c.ib;
    o.ge2bnd.nthreads = hw;
    GesvdTimings t;
    auto sv = gesvd_values(A.cview(), o, &t);
    benchmark_keep(sv);
    std::printf("%14d%14d%14.3f%14.3f%14.3f%14.3f\n", c.nb, c.ib,
                t.ge2bnd_seconds, t.bnd2bd_seconds, t.bd2val_seconds,
                t.total());
    Record r = e2e_record("ablation_ge2val", c.nb, c.ib, m, n, t.total());
    r.ge2bnd_s = t.ge2bnd_seconds;
    r.bnd2bd_s = t.bnd2bd_seconds;
    r.bd2val_s = t.bd2val_seconds;
    records.push_back(r);
  }

  print_header("Kernel efficiency vs nb (GEQRT GFlop/s, ib=nb/4)",
               {"nb", "GFlop/s"});
  const std::vector<int> kernel_nbs =
      smoke ? std::vector<int>{32, 64}
            : std::vector<int>{32, 64, 96, 128, 160, 224};
  for (int nb : kernel_nbs) {
    auto ktab = calibrate_kernels(nb, std::max(4, nb / 4));
    std::printf("%14d%14.2f\n", nb,
                kernels::flops_geqrt(nb, nb) / ktab.at(Op::GEQRT) / 1e9);
  }
  return write_json(out, records) ? 0 : 1;
}
