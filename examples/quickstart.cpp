// Quickstart: compute the singular values of a matrix with the tiled
// two-stage pipeline (GE2BND -> BND2BD -> BD2VAL) and verify them against
// a prescribed spectrum (the LATMS protocol used in the paper).
//
//   ./quickstart [m] [n]
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "core/svd.hpp"
#include "tile/matrix_gen.hpp"

int main(int argc, char** argv) {
  using namespace tbsvd;
  const int m = argc > 1 ? std::atoi(argv[1]) : 384;
  const int n = argc > 2 ? std::atoi(argv[2]) : 256;

  // 1. Generate A = U diag(sigma) V^T with a known geometric spectrum.
  GenOptions gen;
  gen.profile = SvProfile::Geometric;
  gen.cond = 1e6;
  std::vector<double> prescribed;
  Matrix A = generate_latms(m, n, gen, prescribed);
  std::printf("A is %d x %d with prescribed cond(A) = %.1e\n", m, n,
              gen.cond);

  // 2. Singular values via the tiled pipeline. The defaults are the
  //    paper's Auto reduction tree and automatic BIDIAG / R-BIDIAG
  //    selection; only the thread count is set (all cores).
  GesvdOptions opts;
  opts.nb = 64;
  // hardware_concurrency() may report 0; the option contract is >= 1.
  opts.ge2bnd.nthreads = static_cast<int>(
      std::max(1u, std::thread::hardware_concurrency()));
  GesvdTimings t;
  SvdInfo info;
  const auto sv = gesvd_values(A.cview(), opts, &t, &info);

  // 3. Compare with the prescribed spectrum.
  double max_err = 0.0;
  for (std::size_t i = 0; i < prescribed.size(); ++i) {
    max_err = std::max(max_err, std::abs(sv[i] - prescribed[i]));
  }
  std::printf("largest sv   : computed %.15f, prescribed %.15f\n", sv[0],
              prescribed[0]);
  std::printf("smallest sv  : computed %.3e, prescribed %.3e\n", sv[n - 1],
              prescribed[n - 1]);
  std::printf("max |error|  : %.3e\n", max_err);
  std::printf("timings      : GE2BND %.3fs (%zu tasks), BND2BD %.3fs, "
              "BD2VAL %.3fs\n",
              t.ge2bnd_seconds, info.ge2bnd_tasks, t.bnd2bd_seconds,
              t.bd2val_seconds);
  return max_err < 1e-8 * prescribed[0] ? 0 : 1;
}
