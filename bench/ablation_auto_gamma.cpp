// Ablation of the AUTO tree (Section V): the gamma parameter sets the
// parallelism target (ready tasks >= gamma * cores) that picks the FlatTS
// domain size `a` per step. The paper uses gamma = 2. We sweep gamma and
// core counts through the bounded-resource scheduler with measured kernel
// times, and report the chosen domain sizes on the first panel.
//
// The measured section times gesvd_values (default nb = 64, ib = 32,
// alg = Auto) on the fig2 shapes at P = 1..4 threads: the Greedy tree
// against the Auto tree sized for a target of 2, 4 and 8 workers (the
// driver sizes Auto for kAutoTargetWorkers = 4 whatever P is; targets 2
// and 8 are reached through Ge2bndOptions::gamma = 2 * target / 4).
// Each cell is the median wall time of interleaved repetitions. Every
// cell lands in the JSON artifact (default BENCH_ablation_auto_gamma.json)
// as one Record named measured_<tree>_p<P>[_f32].
//
// Usage: ablation_auto_gamma [--smoke] [--out PATH]
#include <algorithm>
#include <iterator>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/alg_gen.hpp"
#include "core/svd.hpp"
#include "cp/sim_sched.hpp"
#include "trees/tree.hpp"

namespace {
using namespace tbsvd;
using namespace tbsvd::bench;

// The measured trees: Greedy, then Auto at three worker targets.
struct TreeCase {
  const char* name;
  TreeKind tree;
  int target;  ///< Auto's worker target (0 for Greedy)
};
constexpr TreeCase kTreeCases[] = {{"greedy", TreeKind::Greedy, 0},
                                   {"auto_t2", TreeKind::Auto, 2},
                                   {"auto_t4", TreeKind::Auto, 4},
                                   {"auto_t8", TreeKind::Auto, 8}};
constexpr int kNumCases = static_cast<int>(std::size(kTreeCases));

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 == 1 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

// One shape at P = 1..4: for each P, `reps` rounds that run every tree
// case once (after one untimed warm-up round), so drift hits all cases
// alike; prints and records the per-case medians.
template <class T>
void measure_shape(int m, int n, int reps, std::vector<Record>& recs) {
  const Matrix Ad = generate_random(m, n, 5);
  MatrixT<T> A(m, n);
  convert_matrix(Ad.cview(), A.view());
  const std::string suffix = sizeof(T) == 4 ? "_f32" : "";
  for (int P = 1; P <= 4; ++P) {
    std::vector<double> secs[kNumCases];
    for (int r = -1; r < reps; ++r) {
      for (int c = 0; c < kNumCases; ++c) {
        GesvdOptions o;
        o.ge2bnd.nthreads = P;
        o.ge2bnd.qr_tree = o.ge2bnd.lq_tree = kTreeCases[c].tree;
        if (kTreeCases[c].target > 0) {
          o.ge2bnd.gamma = 2.0 * kTreeCases[c].target / kAutoTargetWorkers;
        }
        WallTimer w;
        const auto sv = gesvd_values<T>(A.cview(), o);
        const double t = w.seconds();
        benchmark_keep(sv);
        if (r >= 0) secs[c].push_back(t);
      }
    }
    std::printf("%8dx%-5d%4s%6d", m, n, sizeof(T) == 4 ? "f32" : "f64", P);
    for (int c = 0; c < kNumCases; ++c) {
      const double med = median(secs[c]);
      std::printf("%12.4f", med);
      recs.push_back(e2e_record(std::string("measured_") + kTreeCases[c].name +
                                    "_p" + std::to_string(P) + suffix,
                                64, 32, m, n, med));
    }
    std::printf("\n");
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tbsvd;
  using namespace tbsvd::bench;

  bool smoke = false;
  const char* out = "BENCH_ablation_auto_gamma.json";
  if (!parse_bench_args(argc, argv, smoke, out)) return 2;

  const auto ktab = calibrate_kernels(64, 16);

  print_header("AUTO gamma sweep (simulated makespan, p=q=24 tiles)",
               {"cores", "gamma", "makespan(s)", "util"});
  for (int cores : {4, 12, 24, 48}) {
    for (double gamma : {0.5, 1.0, 2.0, 4.0, 8.0}) {
      AlgConfig cfg;
      cfg.qr_tree = cfg.lq_tree = TreeKind::Auto;
      cfg.ncores = cores;
      cfg.gamma = gamma;
      auto ops = build_bidiag_ops(24, 24, cfg);
      const auto r = simulate_schedule(ops, cores, measured_cost(ktab));
      std::printf("%14d%14.1f%14.4f%14.2f\n", cores, gamma, r.makespan,
                  r.utilization);
    }
  }

  print_header("AUTO domain size a on the first panel (u tiles)",
               {"u", "cores", "gamma", "ntrail", "a"});
  for (int u : {8, 24, 64}) {
    for (int cores : {4, 24}) {
      for (double gamma : {1.0, 2.0, 4.0}) {
        AutoConfig ac;
        ac.ncores = cores;
        ac.gamma = gamma;
        ac.ntrail = u - 1;
        std::printf("%14d%14d%14.1f%14d%14d\n", u, cores, gamma, ac.ntrail,
                    auto_domain_size(u, ac));
      }
    }
  }

  print_header("AUTO vs fixed trees across core counts (p=q=24 tiles)",
               {"cores", "FlatTS", "FlatTT", "Greedy", "Auto"});
  for (int cores : {2, 6, 12, 24, 48}) {
    double ms[4];
    const TreeKind trees[] = {TreeKind::FlatTS, TreeKind::FlatTT,
                              TreeKind::Greedy, TreeKind::Auto};
    for (int t = 0; t < 4; ++t) {
      AlgConfig cfg;
      cfg.qr_tree = cfg.lq_tree = trees[t];
      cfg.ncores = cores;
      auto ops = build_bidiag_ops(24, 24, cfg);
      ms[t] = simulate_schedule(ops, cores, measured_cost(ktab)).makespan;
    }
    std::printf("%14d%14.4f%14.4f%14.4f%14.4f\n", cores, ms[0], ms[1], ms[2],
                ms[3]);
  }

  const int reps = smoke ? 1 : 11;
  std::printf("\n=== Measured gesvd_values wall time (s, median of %d) ===\n",
              reps);
  std::printf("%18s%6s%12s%12s%12s%12s\n", "shape", "P", "Greedy",
              "Auto t=2", "Auto t=4", "Auto t=8");
  std::vector<Record> records;
  if (smoke) {
    measure_shape<float>(1024, 128, reps, records);
    measure_shape<double>(256, 256, reps, records);
  } else {
    measure_shape<float>(16384, 256, reps, records);
    measure_shape<double>(4096, 512, reps, records);
    measure_shape<double>(1536, 768, reps, records);
    measure_shape<double>(1024, 768, reps, records);
    measure_shape<double>(768, 768, reps, records);
  }
  return write_json(out, records) ? 0 : 1;
}
