// bench_batched: throughput of the batched small-problem serving path
// (src/batched) in problems/sec across batch size x threads x dtype,
// against the serial baseline a naive server would run — one
// gesvd_values call per problem with default (large-matrix) options. The
// batched path wins by amortizing workspace and dispatch across the batch
// and by solving each problem untiled (Chan preQR + one-stage GEBRD +
// BD2VAL in a worker arena) where the serial loop pads a 16-column problem
// to a full 64x64 tile and runs the two-stage pipeline; the acceptance
// target for this series is >= 3x the serial loop at batch >= 256 on the
// 4-thread row, both dtypes. Emits BENCH_batched.json (picked up by
// bench/history/record.sh).
#include <cstdio>
#include <string>
#include <vector>

#include "batched/batched.hpp"
#include "bench_common.hpp"
#include "common/flops.hpp"
#include "core/svd.hpp"
#include "lac/qr_rec.hpp"
#include "tile/matrix_gen.hpp"

namespace tbsvd {
namespace {

using bench::DType;
using bench::Record;

// What the serial loop's GesvdOptions{} runs: the 0 sentinels resolve to
// the built-in tile size 64 and inner blocking 32 (test_bidiag's
// ZeroSentinelsResolveToBuiltInTileSizes pins both), on the default Auto
// tree.
constexpr int kSerialNb = 64, kSerialIb = 32;

// One "small problem" of the serving workload: tall 32x16 (sub-tile-sized
// in the paper's regime — far below the crossover where the large-matrix
// default nb = 64 stops being pure padding overhead).
constexpr int kRowsFull = 32, kColsFull = 16;
constexpr int kRowsSmoke = 24, kColsSmoke = 16;

template <class T>
std::vector<MatrixT<T>> gen_problems(int batch, int m, int n) {
  std::vector<MatrixT<T>> out;
  out.reserve(batch);
  for (int i = 0; i < batch; ++i) {
    const Matrix Ad = generate_random(m, n, 7000 + i);
    MatrixT<T> A(m, n);
    convert_matrix(Ad.cview(), A.view());
    out.push_back(std::move(A));
  }
  return out;
}

template <class T>
void run_svd_series(bool smoke, std::vector<Record>& recs) {
  const DType dt = std::is_same_v<T, float> ? DType::F32 : DType::F64;
  const std::string suffix = bench::dtype_suffix(dt);
  const int m = smoke ? kRowsSmoke : kRowsFull;
  const int n = smoke ? kColsSmoke : kColsFull;
  const std::vector<int> batches = smoke ? std::vector<int>{32}
                                         : std::vector<int>{64, 256, 1024};
  const std::vector<int> threads = smoke ? std::vector<int>{1, 2}
                                         : std::vector<int>{1, 2, 4};
  const int reps = smoke ? 1 : 3;
  const double problem_flops = flops_ge2bnd(m, n);

  bench::print_header("batched svd " + std::string(bench::dtype_name(dt)) +
                          " (" + std::to_string(m) + "x" + std::to_string(n) +
                          " per problem)",
                      {"batch", "config", "seconds", "prob/s", "speedup"});

  for (const int batch : batches) {
    const auto mats = gen_problems<T>(batch, m, n);
    std::vector<ConstMatrixViewT<T>> views;
    views.reserve(mats.size());
    for (const auto& a : mats) views.push_back(a.cview());

    // Serial baseline: one default-options driver call per problem (Auto
    // tree, nb 64, ib 32), the one-at-a-time loop the batch API replaces.
    const double t_serial = bench::time_best(reps, [&] {
      for (const auto& v : views) {
        const auto sv = gesvd_values<T>(v, GesvdOptions{});
        bench::benchmark_keep(sv);
      }
    });
    {
      Record r;
      r.name = "batched_svd_serial" + suffix;
      r.nb = kSerialNb;
      r.ib = kSerialIb;
      r.m = m;
      r.n = n;
      r.seconds = t_serial;
      r.gflops = problem_flops * batch / t_serial / 1e9;
      r.batch = batch;
      r.threads = 1;
      r.problems_per_sec = batch / t_serial;
      recs.push_back(r);
    }
    std::printf("%14d%14s%14.4f%14.1f%14s\n", batch, "serial (Auto)", t_serial,
                batch / t_serial, "1.00x");

    for (const int nt : threads) {
      batched::BatchOptions opts;
      opts.nthreads = nt;
      const double t_batch = bench::time_best(reps, [&] {
        const auto res = batched::svd<T>(views, opts);
        bench::benchmark_keep(res.values);
      });
      Record r;  // nb = ib = 0: the members run untiled
      r.name = "batched_svd" + suffix + "_t" + std::to_string(nt);
      r.m = m;
      r.n = n;
      r.seconds = t_batch;
      r.gflops = problem_flops * batch / t_batch / 1e9;
      r.batch = batch;
      r.threads = nt;
      r.problems_per_sec = batch / t_batch;
      recs.push_back(r);
      std::printf("%14d%14s%14.4f%14.1f%13.2fx\n", batch,
                  ("batched t=" + std::to_string(nt)).c_str(), t_batch,
                  batch / t_batch, t_serial / t_batch);
    }
  }
}

template <class T>
void run_qr_series(bool smoke, std::vector<Record>& recs) {
  const DType dt = std::is_same_v<T, float> ? DType::F32 : DType::F64;
  const std::string suffix = bench::dtype_suffix(dt);
  const int m = smoke ? kRowsSmoke : kRowsFull;
  const int n = smoke ? kColsSmoke : kColsFull;
  const std::vector<int> batches =
      smoke ? std::vector<int>{32} : std::vector<int>{256, 1024};
  const std::vector<int> threads = smoke ? std::vector<int>{1, 2}
                                         : std::vector<int>{1, 2, 4};
  const int reps = smoke ? 1 : 3;

  bench::print_header("batched qr " + std::string(bench::dtype_name(dt)) +
                          " (" + std::to_string(m) + "x" + std::to_string(n) +
                          " per problem)",
                      {"batch", "config", "seconds", "prob/s"});

  for (const int batch : batches) {
    const auto originals = gen_problems<T>(batch, m, n);
    auto work = originals;  // factored in place; recopied per rep
    std::vector<MatrixT<T>> tfs;
    for (int i = 0; i < batch; ++i) tfs.emplace_back(n, n);

    for (const int nt : threads) {
      batched::BatchOptions opts;
      opts.nthreads = nt;
      double best = 1e300;
      for (int r = 0; r < reps; ++r) {
        work = originals;  // reset outside the timed region
        std::vector<batched::QrProblem<T>> probs;
        probs.reserve(batch);
        for (int i = 0; i < batch; ++i) {
          probs.push_back({work[i].view(), tfs[i].view()});
        }
        WallTimer w;
        const auto reports = batched::qr<T>(probs, opts);
        best = std::min(best, w.seconds());
        bench::benchmark_keep(reports);
      }
      Record r;
      r.name = "batched_qr" + suffix + "_t" + std::to_string(nt);
      r.m = m;
      r.n = n;
      r.seconds = best;
      r.gflops = flops_geqrf(m, n) * batch / best / 1e9;
      r.batch = batch;
      r.threads = nt;
      r.problems_per_sec = batch / best;
      recs.push_back(r);
      std::printf("%14d%14s%14.4f%14.1f\n", batch,
                  ("batched t=" + std::to_string(nt)).c_str(), best,
                  batch / best);
    }
  }
}

}  // namespace
}  // namespace tbsvd

int main(int argc, char** argv) {
  bool smoke = false;
  const char* out = "BENCH_batched.json";
  if (!tbsvd::bench::parse_bench_args(argc, argv, smoke, out)) return 2;

  std::vector<tbsvd::bench::Record> recs;
  tbsvd::run_svd_series<double>(smoke, recs);
  tbsvd::run_svd_series<float>(smoke, recs);
  tbsvd::run_qr_series<double>(smoke, recs);
  tbsvd::run_qr_series<float>(smoke, recs);

  if (!tbsvd::bench::write_json(out, recs)) return 1;
  return 0;
}
