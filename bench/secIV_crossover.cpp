// Section IV.C reproduction: the BIDIAG -> R-BIDIAG switching ratio
// delta_s = p/q as a function of q, for Greedy trees.
//
// Two variants are printed:
//   estimate — the paper's no-overlap R-BIDIAG costing (the quantity
//              reported as "oscillating between 5 and 8");
//   exact    — the true overlapped R-BIDIAG DAG (smaller: overlap between
//              the QR phase and the bidiagonalization favours R-BIDIAG).
//
// Each variant is evaluated twice: under the paper's Table-I unit weights
// and under the measured per-kernel times of this implementation
// (bench::measured_cost over calibrate_kernels at nb=160, ib=32), to show
// how far the calibration drift documented in docs/PERF.md moves delta_s
// out of the paper's predicted [5, 8] band. See docs/EXPERIMENTS.md.
#include "bench_common.hpp"
#include "cp/crossover.hpp"

namespace {
using namespace tbsvd;
using namespace tbsvd::bench;
}  // namespace

int main(int argc, char** argv) {
  using namespace tbsvd;
  using namespace tbsvd::bench;

  bool smoke = false;
  const char* out = nullptr;  // no JSON artifact; flag kept uniform
  if (!parse_bench_args(argc, argv, smoke, out)) return 1;

  std::vector<int> qs = {2, 3, 4, 5, 6, 8, 10, 12, 16};
  if (smoke) qs = {2, 3, 4};
  if (full_mode()) qs.insert(qs.end(), {20, 24, 32});

  print_header("Sec.IV.C delta_s(q), Greedy trees (Table-I unit weights)",
               {"q", "exact p*", "exact d_s", "estim p*", "estim d_s"});
  for (int q : qs) {
    const auto exact = find_crossover(TreeKind::Greedy, q);
    const auto est = find_crossover_estimate(TreeKind::Greedy, q);
    std::printf("%14d%14d%14.2f%14d%14.2f\n", q, exact.p_switch,
                exact.delta_s, est.p_switch, est.delta_s);
  }

  std::printf("\ncalibrating kernels at nb=160, ib=32 ...\n");
  const OpCost mcost = measured_cost(calibrate_kernels(160, 32));
  print_header("Sec.IV.C delta_s(q), Greedy trees (measured kernel costs)",
               {"q", "exact p*", "exact d_s", "estim p*", "estim d_s"});
  double est_min = 1e300, est_max = 0.0;
  int est_found = 0, est_missing = 0;
  for (int q : qs) {
    const auto exact = find_crossover(TreeKind::Greedy, q, 0, mcost);
    const auto est = find_crossover_estimate(TreeKind::Greedy, q, 0, mcost);
    std::printf("%14d%14d%14.2f%14d%14.2f\n", q, exact.p_switch,
                exact.delta_s, est.p_switch, est.delta_s);
    if (est.p_switch > 0) {
      ++est_found;
      est_min = std::min(est_min, est.delta_s);
      est_max = std::max(est_max, est.delta_s);
    } else {
      ++est_missing;
    }
  }
  if (est_found > 0) {
    std::printf(
        "\nmeasured-weight estimate delta_s spans [%.2f, %.2f] where a\n"
        "crossover exists; the paper's MKL-calibrated prediction oscillates\n"
        "in [5, 8].",
        est_min, est_max);
  } else {
    std::printf(
        "\nmeasured-weight estimate: no crossover within the scanned range\n"
        "(p <= 24q + 24), i.e. delta_s lies above the paper's [5, 8] band\n"
        "everywhere it was predicted to fall inside it.");
  }
  if (est_missing > 0) {
    std::printf(" (p* = -1 marks q with no crossover in range.)");
  }
  std::printf(
      "\nDivergence tracks the kernel-weight drift in docs/PERF.md: the\n"
      "update kernels (TSMQR/TTMQR) are far cheaper per unit here than in\n"
      "the paper's Table I while the gemv-bound panel kernels are not, so\n"
      "critical paths are panel-dominated; BIDIAG's update-heavy chains\n"
      "shrink and the switch to R-BIDIAG moves to much larger p/q.\n");

  print_header("delta_s(q) for the flat trees (reference)",
               {"q", "FlatTS d_s", "FlatTT d_s"});
  for (int q : {2, 4, 8}) {
    const auto ts = find_crossover(TreeKind::FlatTS, q);
    const auto tt = find_crossover(TreeKind::FlatTT, q);
    std::printf("%14d%14.2f%14.2f\n", q, ts.delta_s, tt.delta_s);
  }
  return 0;
}
