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

}  // namespace

template <class T>
std::vector<double> gesvd_values(ConstMatrixViewT<T> A,
                                 const GesvdOptions& opts,
                                 GesvdTimings* timings, SvdInfo* info) {
  TBSVD_CHECK(A.m >= A.n, "gesvd_values requires m >= n (transpose first)");
  TBSVD_CHECK(A.n == 0 || A.a != nullptr, "gesvd_values: null input data");
  TBSVD_CHECK(opts.nb >= 0, "gesvd_values: tile size nb must be >= 0");
  SvdInfo local_info;
  SvdInfo& si = (info != nullptr) ? *info : local_info;
  si = SvdInfo{};
  if (A.n == 0) return {};

  // dgesvd protocol: scan the input once, scale the padded tiles in place
  // so the reduction squares nothing out of range, unscale on exit.
  const SafeScaling<T> guard(A, "gesvd_values");
  const int nb = resolve_dense_nb<T>(opts.nb, A.n);
  TileMatrixT<T> tiles = tile_from_dense_padded<T>(A, nb);
  for (int j = 0; j < tiles.nt(); ++j) {
    for (int i = 0; i < tiles.mt(); ++i) guard.scale(tiles.tile(i, j));
  }
  if (TBSVD_FAULT_FIRE("core.svd.poison_tile")) {
    tiles.tile(0, 0)(0, 0) = std::numeric_limits<T>::quiet_NaN();
  }

  WallTimer timer;
  ExecResult r = ge2bnd<T>(tiles, opts.ge2bnd);
  const double t1 = timer.seconds();

  BandMatrixT<T> band = band_from_tiles<T>(tiles);
  BidiagonalT<T> bd = bnd2bd<T>(band, opts.ge2bnd.nthreads);
  const double t2 = timer.seconds();

  Bd2valInfo bi;
  std::vector<T> svt = bd2val<T>(bd, opts.bd2val, &bi);
  const double t3 = timer.seconds();

  std::vector<double> sv = guard.finish(svt, bi, &si);
  si.ge2bnd_tasks = r.ntasks;
  if (timings != nullptr) {
    timings->ge2bnd_seconds = t1;
    timings->bnd2bd_seconds = t2 - t1;
    timings->bd2val_seconds = t3 - t2;
    timings->ge2bnd_tasks = r.ntasks;
  }
  // Padding contributed exactly (padded_n - n) zero singular values at the
  // tail of the sorted spectrum; keep the leading n.
  sv.resize(A.n);
  return sv;
}

#define TBSVD_INSTANTIATE_GESVD(T)                                        \
  template std::vector<double> gesvd_values<T>(                           \
      ConstMatrixViewT<T>, const GesvdOptions&, GesvdTimings*, SvdInfo*);

TBSVD_INSTANTIATE_GESVD(float)
TBSVD_INSTANTIATE_GESVD(double)

#undef TBSVD_INSTANTIATE_GESVD

}  // namespace tbsvd
