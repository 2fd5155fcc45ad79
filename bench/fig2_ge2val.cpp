// Figure 2, bottom row: shared-memory GE2VAL (singular values only)
// GFlop/s against the competitor stand-ins:
//   tbsvd     — this library: GE2BND (Auto tree; R-BIDIAG on TS shapes)
//               + BND2BD + BD2VAL               (paper: DPLASMA)
//   plasma*   — tiled GE2BND with FlatTS tree   (paper: PLASMA)
//   mkl*      — blocked GEBRD, threaded updates (paper: MKL)
//   scalapack*— blocked GEBRD, nb = 48, serial  (paper: ScaLAPACK)
//   elemental*— Chan preQR switch (recursive-panel QR) + GEBRD
//                                               (paper: Elemental)
// Recorded ordering (bench/history/e14d5c5, 4 threads, nb = 64, f64 and
// f32, one run per point): on squares of 256/512/768 the two tiled
// two-stage codes lead the one-stage stand-ins by 1.4-4.2x; plasma* is
// level with or ahead of tbsvd in f64 (10.8 against 9.1 GFlop/s at 512)
// and at 768 in f32, and within 2% of it at 256 and 512 in f32. On
// tall-and-skinny the one-stage GEBRD codes flatline at 2.3-5.1 GFlop/s
// while tbsvd keeps scaling with M (11.0 -> 18.6 GFlop/s in f64 and
// 10.2 -> 23.0 in f32 at N = 128); plasma* and elemental* scale too,
// except at N = 128 in f64, where both fall from M = 1024 to 2048 (9.3 ->
// 7.6 and 10.1 -> 6.3 GFlop/s; the one-stage codes fell at that point
// as well).
//
// --dtype selects the working precision of every driver: f64 (default) or
// f32. f32 series carry a _f32 suffix so the history tier tracks each
// precision separately.
//
// Every point lands in the JSON artifact (default BENCH_fig2_ge2val.json,
// Record schema plus problem extents) for cross-PR tracking via
// bench/history/.
//
// With --tune-file PATH the tiled columns take (nb, ib) from a persisted
// tbsvd_tune calibration (an explicit --nb still wins on the tile size).
//
// Usage: fig2_ge2val [--smoke] [--out PATH] [--dtype f32|f64] [--nb N]
//                    [--tune-file PATH]
#include <algorithm>
#include <thread>

#include "baseline/chan.hpp"
#include "baseline/gebrd.hpp"
#include "bench_common.hpp"
#include "common/flops.hpp"
#include "core/svd.hpp"

namespace {

using namespace tbsvd;
using namespace tbsvd::bench;

int g_nb = 64;
int g_ib = 16;
DType g_dtype = DType::F64;

std::vector<Record> g_records;

double record_point(const std::string& name, int m, int n, int nb, int ib,
                    double seconds) {
  g_records.push_back(e2e_record(name, nb, ib, m, n, seconds));
  return g_records.back().gflops;
}

template <class T>
MatrixT<T> input_matrix(int m, int n) {
  Matrix Ad = generate_random(m, n, 7);
  MatrixT<T> A(m, n);
  convert_matrix(Ad.cview(), A.view());
  return A;
}

GesvdOptions tiled_opts(int nthreads, TreeKind tree, BidiagAlg alg) {
  GesvdOptions o;
  o.nb = g_nb;
  o.ge2bnd.ib = g_ib;
  o.ge2bnd.qr_tree = o.ge2bnd.lq_tree = tree;
  o.ge2bnd.alg = alg;
  o.ge2bnd.nthreads = nthreads;
  return o;
}

double run_tbsvd(int m, int n, int nthreads, TreeKind tree, BidiagAlg alg,
                 const std::string& series) {
  const GesvdOptions o = tiled_opts(nthreads, tree, alg);
  if (g_dtype == DType::F32) {
    MatrixT<float> A = input_matrix<float>(m, n);
    WallTimer w;
    auto sv = gesvd_values(A.cview(), o);
    benchmark_keep(sv);
    return record_point(series, m, n, o.nb, o.ge2bnd.ib, w.seconds());
  }
  Matrix A = input_matrix<double>(m, n);
  WallTimer w;
  auto sv = gesvd_values(A.cview(), o);
  benchmark_keep(sv);
  return record_point(series, m, n, o.nb, o.ge2bnd.ib, w.seconds());
}

double run_gebrd(int m, int n, int nb, int nthreads,
                 const std::string& series) {
  GebrdOptions o;
  o.nb = nb;
  o.nthreads = nthreads;
  if (g_dtype == DType::F32) {
    MatrixT<float> A = input_matrix<float>(m, n);
    WallTimer w;
    auto sv = gebrd_singular_values(A.cview(), o);
    benchmark_keep(sv);
    return record_point(series, m, n, nb, 0, w.seconds());
  }
  Matrix A = input_matrix<double>(m, n);
  WallTimer w;
  auto sv = gebrd_singular_values(A.cview(), o);
  benchmark_keep(sv);
  return record_point(series, m, n, nb, 0, w.seconds());
}

double run_chan(int m, int n, int nthreads, const std::string& series) {
  GebrdOptions o;
  o.nb = 32;
  o.nthreads = nthreads;
  if (g_dtype == DType::F32) {
    MatrixT<float> A = input_matrix<float>(m, n);
    WallTimer w;
    auto sv = chan_singular_values(A.cview(), o);
    benchmark_keep(sv);
    return record_point(series, m, n, o.nb, 0, w.seconds());
  }
  Matrix A = input_matrix<double>(m, n);
  WallTimer w;
  auto sv = chan_singular_values(A.cview(), o);
  benchmark_keep(sv);
  return record_point(series, m, n, o.nb, 0, w.seconds());
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tbsvd;
  using namespace tbsvd::bench;

  bool smoke = false;
  const char* out = "BENCH_fig2_ge2val.json";
  const char* tune_file = nullptr;
  int nb_flag = 0;
  if (!parse_bench_args(argc, argv, smoke, out, &g_dtype, &nb_flag,
                        &tune_file)) {
    return 2;
  }
  if (nb_flag > 0) g_nb = nb_flag;
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
  }
  const std::string dsuf = dtype_suffix(g_dtype);

  const int hw = static_cast<int>(
      std::max(1u, std::thread::hardware_concurrency()));

  print_header(std::string("Fig.2d GE2VAL square, GFlop/s [") +
                   dtype_name(g_dtype) + ", nb=" + std::to_string(g_nb) + "]",
               {"M=N", "tbsvd", "plasma*", "mkl*", "scalapack*",
                "elemental*"});
  std::vector<int> sizes = {256, 512, 768};
  if (smoke) sizes = {256};
  if (full_mode()) sizes = {256, 512, 768, 1024, 1536};
  for (int& s : sizes) s = std::max(1, s / g_nb) * g_nb;
  for (int n : sizes) {
    std::printf(
        "%14d%14.2f%14.2f%14.2f%14.2f%14.2f\n", n,
        run_tbsvd(n, n, hw, TreeKind::Auto, BidiagAlg::Bidiag,
                  "fig2d_tbsvd" + dsuf),
        run_tbsvd(n, n, hw, TreeKind::FlatTS, BidiagAlg::Bidiag,
                  "fig2d_plasma" + dsuf),
        run_gebrd(n, n, 32, hw, "fig2d_mkl" + dsuf),
        run_gebrd(n, n, 48, 1, "fig2d_scalapack" + dsuf),
        run_chan(n, n, 1, "fig2d_elemental" + dsuf));
  }

  for (int nfix : smoke ? std::vector<int>{128} : std::vector<int>{128, 320}) {
    nfix = std::max(1, nfix / g_nb) * g_nb;
    print_header("Fig.2e/f GE2VAL tall-skinny N=" + std::to_string(nfix) +
                     ", GFlop/s [" + dtype_name(g_dtype) + "]",
                 {"M", "tbsvd", "plasma*", "mkl*", "scalapack*",
                  "elemental*"});
    std::vector<int> ms = {512, 1024, 2048};
    if (smoke) ms = {512};
    if (full_mode()) ms = {512, 1024, 2048, 4096, 8192};
    for (int& m : ms) m = std::max(2 * nfix / g_nb, m / g_nb) * g_nb;
    for (int m : ms) {
      std::printf(
          "%14d%14.2f%14.2f%14.2f%14.2f%14.2f\n", m,
          run_tbsvd(m, nfix, hw, TreeKind::Auto, BidiagAlg::Auto,
                    "fig2ef_tbsvd" + dsuf),
          run_tbsvd(m, nfix, hw, TreeKind::FlatTS, BidiagAlg::Bidiag,
                    "fig2ef_plasma" + dsuf),
          run_gebrd(m, nfix, 32, hw, "fig2ef_mkl" + dsuf),
          run_gebrd(m, nfix, 48, 1, "fig2ef_scalapack" + dsuf),
          run_chan(m, nfix, 1, "fig2ef_elemental" + dsuf));
    }
  }
  return write_json(out, g_records) ? 0 : 1;
}
