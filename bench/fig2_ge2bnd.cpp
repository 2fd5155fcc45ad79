// Figure 2, top row: shared-memory GE2BND GFlop/s.
//   (a) square m = n sweep, BIDIAG, trees FlatTS / FlatTT / Greedy / Auto;
//   (b) tall-and-skinny, small n  (paper: n = 2000): BIDIAG vs R-BIDIAG;
//   (c) tall-and-skinny, larger n (paper: n = 10000): same.
//
// Two series per configuration:
//   meas(P=ncores) — real execution on this container's cores;
//   sim(P=24)      — list-scheduled prediction for the paper's 24-core
//                    node, driven by measured kernel times (the substitution
//                    documented in DESIGN.md).
// Paper shapes to reproduce: Auto best everywhere; FlatTT/Greedy win on
// small sizes, FlatTS catches up on large sizes; R-BIDIAG overtakes BIDIAG
// quickly on tall-and-skinny matrices (up to ~1.8x).
//
// --dtype selects the scalar the reduction runs in: f64 (default, the
// historical series) or f32 (16-lane zmm micro-kernel), recorded under its
// own series suffix so the history tier can track the float-vs-double
// throughput ratio. --nb overrides the tile size (default 64; the
// precision comparison in docs/PERF.md uses 160).
// --tune-file takes (nb, ib) and the simulator's kernel table from a
// persisted tbsvd_tune calibration instead of re-calibrating in process
// (an explicit --nb still wins on the tile size).
//
// Every measured and simulated point is also appended to the JSON artifact
// (default BENCH_fig2_ge2bnd.json; same Record schema as the kernel
// benches plus the problem extents), so the end-to-end curves are
// diffable across PRs via bench/history/.
//
// Usage: fig2_ge2bnd [--smoke] [--out PATH] [--dtype f32|f64] [--nb N]
//                    [--tune-file PATH]
#include <algorithm>
#include <thread>

#include "bench_common.hpp"
#include "common/flops.hpp"
#include "core/ge2bnd.hpp"
#include "core/svd.hpp"
#include "cp/sim_sched.hpp"

namespace {

using namespace tbsvd;
using namespace tbsvd::bench;

int g_nb = 64;
int g_ib = 16;
DType g_dtype = DType::F64;

std::vector<Record> g_records;

void record_point(const std::string& name, int m, int n, double seconds) {
  g_records.push_back(e2e_record(name, g_nb, g_ib, m, n, seconds));
}

template <class T>
double measured_gflops_t(int m, int n, TreeKind tree, BidiagAlg alg,
                         int nthreads, const std::string& series) {
  TileMatrixT<T> A(m, n, g_nb);
  Matrix Ad = generate_random(m, n, 42);
  MatrixT<T> At(m, n);
  convert_matrix(Ad.cview(), At.view());
  A.from_dense(At.cview());
  Ge2bndOptions opt;
  opt.qr_tree = opt.lq_tree = tree;
  opt.alg = alg;
  opt.ib = g_ib;
  opt.nthreads = nthreads;
  ExecResult r = ge2bnd(A, opt);
  record_point(series + "_meas", m, n, r.seconds);
  return flops_ge2bnd(m, n) / r.seconds / 1e9;
}

double measured_gflops(int m, int n, TreeKind tree, BidiagAlg alg,
                       int nthreads, const std::string& series) {
  if (g_dtype == DType::F64) {
    return measured_gflops_t<double>(m, n, tree, alg, nthreads, series);
  }
  return measured_gflops_t<float>(m, n, tree, alg, nthreads, series);
}

double simulated_gflops(int m, int n, TreeKind tree, BidiagAlg alg, int cores,
                        const std::map<Op, double>& ktab,
                        const std::string& series) {
  const int p = m / g_nb, q = n / g_nb;
  AlgConfig cfg;
  cfg.qr_tree = cfg.lq_tree = tree;
  cfg.ncores = cores;
  auto ops = (alg == BidiagAlg::RBidiag) ? build_rbidiag_ops(p, q, cfg)
                                         : build_bidiag_ops(p, q, cfg);
  const SimResult r = simulate_schedule(ops, cores, measured_cost(ktab));
  record_point(series + "_sim24", m, n, r.makespan);
  return flops_ge2bnd(m, n) / r.makespan / 1e9;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tbsvd;
  using namespace tbsvd::bench;

  bool smoke = false;
  const char* out = "BENCH_fig2_ge2bnd.json";
  const char* tune_file = nullptr;
  int nb_flag = 0;
  if (!parse_bench_args(argc, argv, smoke, out, &g_dtype, &nb_flag,
                        &tune_file)) {
    return 2;
  }
  if (nb_flag > 0) g_nb = nb_flag;

  const int hw = static_cast<int>(
      std::max(1u, std::thread::hardware_concurrency()));
  std::map<Op, double> ktab;
  tune::Calibration cal;
  if (tune_file != nullptr) {
    const tune::PrecisionCalib& pc =
        load_tune_table(tune_file, cal, g_dtype);
    if (nb_flag == 0) {
      g_nb = pc.nb;
      g_ib = pc.ib;
    }
    std::printf("using persisted calibration %s (nb=%d, ib=%d)\n", tune_file,
                g_nb, g_ib);
    ktab = pc.kernel_seconds;
  } else {
    ktab = (g_dtype == DType::F64)
               ? calibrate_kernels<double>(g_nb, g_ib, smoke ? 2 : 3)
               : calibrate_kernels<float>(g_nb, g_ib, smoke ? 2 : 3);
  }
  const std::string dsuf = dtype_suffix(g_dtype);
  const TreeKind trees[] = {TreeKind::FlatTS, TreeKind::FlatTT,
                            TreeKind::Greedy, TreeKind::Auto};

  // ---- (a) Square BIDIAG ------------------------------------------------
  print_header(std::string("Fig.2a GE2BND square (BIDIAG), GFlop/s [") +
                   dtype_name(g_dtype) + ", nb=" + std::to_string(g_nb) + "]",
               {"M=N", "tree", "meas(P=" + std::to_string(hw) + ")",
                "sim(P=24)"});
  std::vector<int> sizes = {256, 512, 768};
  if (smoke) sizes = {256};
  if (full_mode()) sizes = {256, 512, 768, 1024, 1536, 2048};
  // Sizes must tile evenly for the simulator's (p, q) grid.
  for (int& s : sizes) s = std::max(1, s / g_nb) * g_nb;
  for (int n : sizes) {
    for (TreeKind tree : trees) {
      const std::string series =
          std::string("fig2a_") + tree_name(tree) + dsuf;
      const double meas =
          measured_gflops(n, n, tree, BidiagAlg::Bidiag, hw, series);
      const double sim =
          simulated_gflops(n, n, tree, BidiagAlg::Bidiag, 24, ktab, series);
      std::printf("%14d%14s%14.2f%14.2f\n", n, tree_name(tree), meas, sim);
    }
  }

  // ---- (b)/(c) Tall-and-skinny: BIDIAG vs R-BIDIAG ----------------------
  struct TsCase {
    int n;
    std::vector<int> ms;
  };
  std::vector<TsCase> cases = {{128, {256, 512, 1024, 2048}},
                               {320, {640, 1280, 2560}}};
  if (smoke) cases = {{128, {256, 512}}};
  if (full_mode()) {
    cases = {{128, {256, 512, 1024, 2048, 4096, 8192}},
             {320, {640, 1280, 2560, 5120}}};
  }
  for (auto& c : cases) {
    c.n = std::max(1, c.n / g_nb) * g_nb;
    for (int& m : c.ms) m = std::max(2 * c.n / g_nb, m / g_nb) * g_nb;
  }
  for (const auto& c : cases) {
    print_header("Fig.2b/c GE2BND tall-skinny N=" + std::to_string(c.n) +
                     ", GFlop/s [" + dtype_name(g_dtype) + "]",
                 {"M", "tree", "alg", "meas", "sim(P=24)"});
    for (int m : c.ms) {
      for (TreeKind tree : trees) {
        for (BidiagAlg alg : {BidiagAlg::Bidiag, BidiagAlg::RBidiag}) {
          const std::string series =
              std::string("fig2bc_") + tree_name(tree) + "_" +
              (alg == BidiagAlg::Bidiag ? "bidiag" : "rbidiag") + dsuf;
          const double meas = measured_gflops(m, c.n, tree, alg, hw, series);
          const double sim =
              simulated_gflops(m, c.n, tree, alg, 24, ktab, series);
          std::printf("%14d%14s%14s%14.2f%14.2f\n", m, tree_name(tree),
                      alg == BidiagAlg::Bidiag ? "BiDiag" : "R-BiDiag", meas,
                      sim);
        }
      }
    }
  }
  return write_json(out, g_records) ? 0 : 1;
}
