#include "core/svd.hpp"

#include <algorithm>
#include <limits>

#include "band/band_matrix.hpp"
#include "band/bnd2bd.hpp"
#include "common/check.hpp"
#include "common/fault.hpp"
#include "common/hazard.hpp"
#include "common/timer.hpp"
#include "tune/tune.hpp"

namespace tbsvd {

namespace {

// Tile size for a dense n-column input: explicit opts.nb wins; the 0
// sentinel takes the calibration's tuned nb (else the historical 64),
// capped near n so a large tuned tile never makes a small problem pad up
// to a mostly-empty tile grid.
template <class T>
int resolve_dense_nb(int requested, int n) {
  const int nb = tune::resolved_nb(requested, static_cast<int>(sizeof(T)),
                                   /*fallback=*/64);
  if (requested > 0) return nb;
  return std::max(1, std::min(nb, std::max(64, n)));
}

// One pass over every tile: finiteness plus max |a_ij|. Padding tiles are
// zero, so they never affect the result.
template <class T>
ExtremeScan scan_tiles(const TileMatrixT<T>& A) {
  ExtremeScan s;
  for (int j = 0; j < A.nt(); ++j) {
    for (int i = 0; i < A.mt(); ++i) {
      const ExtremeScan c = scan_extremes<T>(A.tile(i, j));
      s.finite = s.finite && c.finite;
      if (c.amax > s.amax) s.amax = c.amax;
    }
  }
  return s;
}

template <class T>
void scale_tiles(TileMatrixT<T>& A, double cfrom, double cto) {
  for (int j = 0; j < A.nt(); ++j) {
    for (int i = 0; i < A.mt(); ++i) {
      scale_stepwise<T>(A.tile(i, j), cfrom, cto);
    }
  }
}

template <class T>
constexpr Precision precision_of() {
  return sizeof(T) == sizeof(float) ? Precision::F32 : Precision::F64;
}

}  // namespace

template <class T>
std::vector<double> gesvd_values(TileMatrixT<T>& A, const GesvdOptions& opts,
                                 GesvdTimings* timings, SvdInfo* info) {
  TBSVD_CHECK(opts.nb >= 0, "gesvd_values: tile size nb must be >= 0");
  SvdInfo local_info;
  SvdInfo& si = (info != nullptr) ? *info : local_info;
  si = SvdInfo{};
  si.reduce_precision = precision_of<T>();
  si.values_precision = precision_of<T>();

  // Hazard scan + dlascl-style safe pre-scaling (dgesvd protocol): bring
  // extreme norms into the per-precision range [svd_safe_min<T>(),
  // svd_safe_max<T>()] so the reduction squares nothing out of range, and
  // unscale the spectrum on exit.
  const ExtremeScan scan = scan_tiles<T>(A);
  if (!scan.finite) {
    throw numerical_hazard_error("gesvd_values: non-finite entry in input");
  }
  const double target = svd_safe_target<T>(scan.amax);
  if (target != scan.amax) {
    scale_tiles<T>(A, scan.amax, target);
    si.scaled = true;
    si.scale_from = scan.amax;
    si.scale_to = target;
  }
  if (TBSVD_FAULT_FIRE("core.svd.poison_tile")) {
    A.tile(0, 0)(0, 0) = std::numeric_limits<T>::quiet_NaN();
  }

  WallTimer timer;
  ExecResult r = ge2bnd<T>(A, opts.ge2bnd);
  const double t1 = timer.seconds();

  BandMatrixT<T> band = band_from_tiles<T>(A);
  BidiagonalT<T> bd = bnd2bd<T>(band);
  const double t2 = timer.seconds();

  Bd2valInfo bi;
  std::vector<T> svt = bd2val<T>(bd, opts.bd2val, &bi);
  const double t3 = timer.seconds();

  si.qr_iterations = bi.qr_iterations;
  si.bisection_fallback = bi.bisection_fallback;
  si.status = bi.status;
  si.ge2bnd_tasks = r.ntasks;
  std::vector<double> sv(svt.begin(), svt.end());
  if (si.scaled) scale_stepwise<double>(sv, si.scale_to, si.scale_from);

  if (timings != nullptr) {
    timings->ge2bnd_seconds = t1;
    timings->bnd2bd_seconds = t2 - t1;
    timings->bd2val_seconds = t3 - t2;
    timings->ge2bnd_tasks = r.ntasks;
  }
  return sv;
}

template <class T>
std::vector<double> gesvd_values(ConstMatrixViewT<T> A,
                                 const GesvdOptions& opts,
                                 GesvdTimings* timings, SvdInfo* info) {
  TBSVD_CHECK(A.m >= A.n, "gesvd_values requires m >= n (transpose first)");
  TBSVD_CHECK(A.n == 0 || A.a != nullptr, "gesvd_values: null input data");
  TBSVD_CHECK(opts.nb >= 0, "gesvd_values: tile size nb must be >= 0");
  if (info != nullptr) *info = SvdInfo{};
  if (A.n == 0) return {};
  const int nb = resolve_dense_nb<T>(opts.nb, A.n);
  TileMatrixT<T> tiled = tile_from_dense_padded<T>(A, nb);
  std::vector<double> sv = gesvd_values<T>(tiled, opts, timings, info);
  // Padding contributed exactly (padded_n - n) zero singular values at the
  // tail of the sorted spectrum; keep the leading n.
  sv.resize(A.n);
  return sv;
}

#define TBSVD_INSTANTIATE_GESVD(T)                                        \
  template std::vector<double> gesvd_values<T>(                           \
      TileMatrixT<T>&, const GesvdOptions&, GesvdTimings*, SvdInfo*);     \
  template std::vector<double> gesvd_values<T>(                           \
      ConstMatrixViewT<T>, const GesvdOptions&, GesvdTimings*, SvdInfo*);

TBSVD_INSTANTIATE_GESVD(float)
TBSVD_INSTANTIATE_GESVD(double)

#undef TBSVD_INSTANTIATE_GESVD

}  // namespace tbsvd
