// Principal component analysis — the Big-Data motivation from the paper's
// introduction. A synthetic dataset with a planted low-rank structure is
// centered and its singular values computed with the tiled pipeline; the
// explained-variance profile recovers the planted dimensionality.
//
//   ./pca [samples] [features] [intrinsic_rank]
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "common/rng.hpp"
#include "common/timer.hpp"
#include "core/svd.hpp"
#include "lac/blas.hpp"
#include "rsvd/rsvd.hpp"
#include "tune/tune.hpp"

int main(int argc, char** argv) {
  using namespace tbsvd;
  const int samples = argc > 1 ? std::atoi(argv[1]) : 1024;
  const int features = argc > 2 ? std::atoi(argv[2]) : 96;
  const int rank = argc > 3 ? std::atoi(argv[3]) : 5;

  // Data = low-rank signal + noise: X = S B + 0.05 N.
  Rng rng(2024);
  Matrix scores(samples, rank), basis(rank, features);
  for (int j = 0; j < rank; ++j)
    for (int i = 0; i < samples; ++i)
      scores(i, j) = rng.normal() * (rank - j);  // decaying component power
  for (int j = 0; j < features; ++j)
    for (int i = 0; i < rank; ++i) basis(i, j) = rng.normal();
  Matrix X(samples, features);
  gemm(Trans::No, Trans::No, 1.0, scores.cview(), basis.cview(), 0.0,
       X.view());
  for (int j = 0; j < features; ++j)
    for (int i = 0; i < samples; ++i) X(i, j) += 0.05 * rng.normal();

  // Center columns (PCA preprocessing).
  for (int j = 0; j < features; ++j) {
    double mean = 0.0;
    for (int i = 0; i < samples; ++i) mean += X(i, j);
    mean /= samples;
    for (int i = 0; i < samples; ++i) X(i, j) -= mean;
  }

  // Principal values = singular values of the centered data matrix. The
  // SvdInfo out-param reports how the solve went (docs/ROBUSTNESS.md):
  // whether the input was pre-scaled and whether any degraded path ran.
  // Tile size through the autotuner's 0-sentinel (tools/autotune writes
  // the calibration it resolves from; 32 is the uncalibrated fallback).
  // hardware_concurrency() may return 0 (unknown): the option contract
  // requires nthreads >= 1, so clamp before handing it to the executor.
  GesvdOptions opts;
  opts.nb = tune::resolved_nb(0, sizeof(double), 32);
  opts.ge2bnd.alg = BidiagAlg::Auto;  // tall-and-skinny -> R-BIDIAG
  opts.ge2bnd.nthreads = static_cast<int>(
      std::max(1u, std::thread::hardware_concurrency()));
  std::printf("nb = %d (%s), %d threads\n", opts.nb,
              tune::active() ? "calibrated" : "default",
              opts.ge2bnd.nthreads);
  SvdInfo info;
  WallTimer full_timer;
  const auto sv = gesvd_values(X.cview(), opts, nullptr, &info);
  const double full_sec = full_timer.seconds();
  std::printf("solve: status=%s scaled=%d dqds_transforms=%lld fallback=%d\n",
              status_name(info.status), info.scaled ? 1 : 0,
              info.qr_iterations, info.bisection_fallback ? 1 : 0);

  double total = 0.0;
  for (double s : sv) total += s * s;
  std::printf("%6s %14s %12s %12s\n", "PC", "sigma", "var%", "cumvar%");
  double cum = 0.0;
  int effective = 0;
  for (int i = 0; i < std::min<int>(10, features); ++i) {
    const double var = sv[i] * sv[i] / total;
    cum += var;
    if (cum < 0.995) effective = i + 1;
    std::printf("%6d %14.4f %12.2f %12.2f\n", i + 1, sv[i], 100 * var,
                100 * cum);
  }
  std::printf("planted rank %d; components for 99.5%% variance: %d\n", rank,
              effective + 1);

  // PCA rarely needs the full spectrum: the randomized truncated driver
  // (src/rsvd) resolves just the leading components through a Gaussian
  // sketch + TSQR range finder, at a fraction of the full solve's cost.
  {
    const int k = std::min(10, std::min(samples, features));
    GesvdTruncatedOptions topt;
    topt.nthreads = opts.ge2bnd.nthreads;
    WallTimer t;
    const TruncatedSvd r = gesvd_truncated(X.cview(), k, topt);
    const double trunc_sec = t.seconds();
    double maxrel = 0.0;
    for (int i = 0; i < k; ++i)
      maxrel = std::max(maxrel, std::fabs(r.values[i] - sv[i]) / sv[0]);
    std::printf("truncated top-%d (status=%s): %.1fx faster than full "
                "(%.3fs vs %.3fs), max rel dev %.2e\n",
                k, status_name(r.info.status),
                trunc_sec > 0.0 ? full_sec / trunc_sec : 0.0, trunc_sec,
                full_sec, maxrel);
  }

  // Degraded-but-successful solve: give dqds no transform budget so
  // bd2val must take the Sturm-bisection fallback. The result is flagged
  // Degraded, not an error — and the principal values still match.
  GesvdOptions starved = opts;
  starved.bd2val.max_sweeps_per_value = 0;
  SvdInfo dinfo;
  const auto dsv = gesvd_values(X.cview(), starved, nullptr, &dinfo);
  double maxrel = 0.0;
  for (std::size_t i = 0; i < sv.size(); ++i) {
    if (sv[i] > 0.0)
      maxrel = std::max(maxrel, std::fabs(dsv[i] - sv[i]) / sv[0]);
  }
  std::printf(
      "starved solve: status=%s fallback=%d ok()=%d  max rel dev %.2e\n",
      status_name(dinfo.status), dinfo.bisection_fallback ? 1 : 0,
      dinfo.ok() ? 1 : 0, maxrel);
  // Exit status for CI: the starved solve must take the flagged fallback
  // and still match the primary spectrum.
  return dinfo.bisection_fallback && dinfo.ok() && maxrel < 1e-10 ? 0 : 1;
}
