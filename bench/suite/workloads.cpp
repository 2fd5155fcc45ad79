#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <limits>
#include <numeric>
#include <utility>

#include "band/band_matrix.hpp"
#include "band/bd2val.hpp"
#include "band/bnd2bd.hpp"
#include "batched/batched.hpp"
#include "common/flops.hpp"
#include "common/rng.hpp"
#include "core/alg_gen.hpp"
#include "core/ge2bnd.hpp"
#include "core/svd.hpp"
#include "cp/sim_sched.hpp"
#include "lac/blas.hpp"
#include "rsvd/rsvd.hpp"
#include "rsvd/tsqr.hpp"
#include "tile/matrix_gen.hpp"
#include "tile/tile_matrix.hpp"
#include "tune/calibrate.hpp"
#include "tune/tune.hpp"

namespace suite {
namespace {

using namespace tbsvd;

std::string fmt(const char* f, double a, double b) {
  char buf[128];
  std::snprintf(buf, sizeof buf, f, a, b);
  return buf;
}

// Largest |got_i - want_i| over the leading `count` values; NaN (fails every
// tolerance) when a value is missing or not a number.
double spectrum_error(const std::vector<double>& got,
                      const std::vector<double>& want, std::size_t count) {
  if (got.size() < count || want.size() < count) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  double err = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    const double d = std::fabs(got[i] - want[i]);
    if (!(d <= err)) err = d;
  }
  return err;
}

void check_spectrum(Outcome& o, const std::vector<double>& got,
                    const std::vector<double>& want, std::size_t count,
                    double tol) {
  const double err = spectrum_error(got, want, count);
  if (!(err <= tol)) {
    o.fail(fmt("spectrum error %.3g > tolerance %.3g", err, tol));
  }
}

// Dense and batched tolerance: 45 n eps_T sigma_max.
template <class T>
double dense_tol(int n, double sigma_max) {
  return 45.0 * n * std::numeric_limits<T>::epsilon() * sigma_max;
}

const char* alg_name(BidiagAlg a) {
  switch (a) {
    case BidiagAlg::Bidiag: return "bidiag";
    case BidiagAlg::RBidiag: return "rbidiag";
    case BidiagAlg::Auto: return "auto";
  }
  return "?";
}

// Kernel families of the per-layer breakdown: QR and LQ kernels of one
// shape (GE / TS / TT, panel or update) are summed.
const char* kernel_family(const char* name) {
  static const std::pair<Op, const char*> kFamilies[] = {
      {Op::GEQRT, "kernels.panel_s"},    {Op::GELQT, "kernels.panel_s"},
      {Op::UNMQR, "kernels.update_s"},   {Op::UNMLQ, "kernels.update_s"},
      {Op::TSQRT, "kernels.ts_panel_s"}, {Op::TSLQT, "kernels.ts_panel_s"},
      {Op::TSMQR, "kernels.ts_update_s"}, {Op::TSMLQ, "kernels.ts_update_s"},
      {Op::TTQRT, "kernels.tt_panel_s"}, {Op::TTLQT, "kernels.tt_panel_s"},
      {Op::TTMQR, "kernels.tt_update_s"}, {Op::TTMLQ, "kernels.tt_update_s"},
  };
  for (const auto& [op, family] : kFamilies) {
    if (std::strcmp(op_name(op), name) == 0) return family;
  }
  return nullptr;
}

// Table-I model flops of one executed kernel (weight x nb^3/3).
double kernel_flops(const char* name, int nb) {
  for (int i = 0; i <= static_cast<int>(Op::LASET); ++i) {
    const Op op = static_cast<Op>(i);
    if (std::strcmp(op_name(op), name) == 0) {
      return op_weight_units(op) * kernel_unit_flops(nb);
    }
  }
  return 0.0;
}

// ---------------------------------------------------------------- dense ---
// gesvd_values<T> on one m x n input (square_f64, tall_f32). The traced
// round runs the driver's stages one by one through their public entry
// points, so each stage gets its own span.
template <class T>
class Dense final : public Workload {
 public:
  Dense(int m, int n, BidiagAlg alg, std::uint64_t seed) : m_(m), n_(n) {
    GenOptions g;
    g.profile = SvProfile::Random;
    g.cond = 1e3;
    g.seed = seed;
    const Matrix A = generate_latms(m, n, g, sv_);
    A_ = MatrixT<T>(m, n);
    convert_matrix<T, double>(A.cview(), A_.view());
    opts_.ge2bnd.alg = alg;
    // The tile size gesvd_values resolves for a dense input (svd.hpp): the
    // tuned or historical nb, capped near n.
    const int bytes = static_cast<int>(sizeof(T));
    nb_ = std::min(tune::resolved_nb(0, bytes, 64), std::max(64, n));
    ib_ = std::min(tune::resolved_ib(0, bytes, 32), nb_);
    tol_ = dense_tol<T>(n, sv_.front());
  }

  Outcome request(int nthreads) override {
    Outcome o;
    o.attempted = 1;
    try {
      GesvdOptions opts = opts_;
      opts.ge2bnd.nthreads = nthreads;
      SvdInfo info;
      last_ = gesvd_values<T>(A_.cview(), opts, nullptr, &info);
      if (!info.ok()) o.fail("gesvd_values reported a non-ok status");
      check_spectrum(o, last_, sv_, sv_.size(), tol_);
    } catch (const std::exception& e) {
      o.fail(e.what());
    }
    return o;
  }

  [[nodiscard]] double flops() const override { return flops_ge2bnd(m_, n_); }

  [[nodiscard]] std::string config() const override {
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "%dx%d %s gesvd_values alg=%s nb=%d ib=%d", m_, n_,
                  sizeof(T) == 4 ? "f32" : "f64", alg_name(opts_.ge2bnd.alg),
                  nb_, ib_);
    return buf;
  }

  void prepare_trace(int nthreads) override {
    // The op stream ge2bnd builds for this grid (same generator and rule),
    // priced by kernel times measured now: the critical-path makespan the
    // executor would reach with no scheduling loss.
    const int p = pad_to_tiles(m_, nb_) / nb_, q = pad_to_tiles(n_, nb_) / nb_;
    AlgConfig cfg;
    cfg.qr_tree = opts_.ge2bnd.qr_tree;
    cfg.lq_tree = opts_.ge2bnd.lq_tree;
    cfg.ncores = nthreads;
    cfg.gamma = opts_.ge2bnd.gamma;
    const BidiagAlg alg = opts_.ge2bnd.alg;
    const bool use_r = alg == BidiagAlg::RBidiag ||
                       (alg == BidiagAlg::Auto && prefer_rbidiag(p, q));
    ops_ = use_r ? build_rbidiag_ops(p, q, cfg) : build_bidiag_ops(p, q, cfg);
    const OpCost cost =
        tune::measured_cost(tune::calibrate_kernels<T>(nb_, ib_));
    sim_makespan_ = simulate_schedule(ops_, nthreads, cost).makespan;
  }

  Outcome traced_round(SpanLog& log, int root, int request_id, int nthreads,
                       Samples& out) override {
    const int untraced = log.begin("core.gesvd_values", root, request_id);
    Outcome o = request(nthreads);
    log.end(untraced);
    const std::vector<double> reference = last_;

    o.attempted += 2;
    Staged par, ser;
    try {
      par = staged(log, "core.staged", root, request_id, nthreads);
      ser = staged(log, "core.staged_serial", root, request_id, 1);
    } catch (const std::exception& e) {
      o.fail(e.what());
      return o;
    }
    check_spectrum(o, par.values, sv_, sv_.size(), tol_);
    check_spectrum(o, ser.values, sv_, sv_.size(), tol_);
    if (par.values != reference) {
      o.fail("staged spectrum is not bitwise equal to gesvd_values'");
    }
    if (par.exec.ntasks != ops_.size()) {
      std::printf("WARN cp.efficiency simulates %zu ops, ge2bnd ran %zu\n",
                  ops_.size(), par.exec.ntasks);
    }

    const double driver = log.duration(par.root);
    const double ge2bnd_s = log.duration(par.ge2bnd);
    const double stages = log.duration(par.pad) + ge2bnd_s +
                          log.duration(par.extract) +
                          log.duration(par.bnd2bd) + log.duration(par.bd2val);
    const double coverage = stages / driver;
    if (!(coverage >= 0.9)) {
      o.fail(fmt("stage coverage %.3f < %.1f", coverage, 0.9));
    }

    const Trace& tr = par.exec.trace;
    const double busy = tr.busy_seconds();
    std::map<std::string, double> family;
    double kflops = 0.0;
    for (const TraceEvent& ev : tr.events()) {
      if (const char* f = kernel_family(ev.name)) {
        family[f] += ev.t_end - ev.t_start;
      }
      kflops += kernel_flops(ev.name, nb_);
    }
    const double kgflops = kflops / busy / 1e9;

    out["tile.pad_s"].push_back(log.duration(par.pad));
    out["core.ge2bnd_s"].push_back(ge2bnd_s);
    out["core.ge2bnd_tasks"].push_back(static_cast<double>(par.exec.ntasks));
    out["runtime.utilization"].push_back(busy / (ge2bnd_s * nthreads));
    out["runtime.idle_s"].push_back(log.self_time(par.ge2bnd));
    out["cp.efficiency"].push_back(sim_makespan_ / ge2bnd_s);
    for (const char* f :
         {"kernels.panel_s", "kernels.update_s", "kernels.ts_panel_s",
          "kernels.ts_update_s", "kernels.tt_panel_s", "kernels.tt_update_s"}) {
      out[f].push_back(family[f]);
    }
    out["kernels.busy_s"].push_back(busy);
    out["kernels.gflops"].push_back(kgflops);
    out["kernels.frac_of_gemm"].push_back(
        kgflops / tune::calibrate_gemm_gflops<T>(nb_));
    out["kernels.busy_inflation"].push_back(busy /
                                            ser.exec.trace.busy_seconds());
    out["band.extract_s"].push_back(log.duration(par.extract));
    out["band.bnd2bd_s"].push_back(log.duration(par.bnd2bd));
    out["band.bd2val_s"].push_back(log.duration(par.bd2val));
    out["band.bd2val_qr_iters"].push_back(
        static_cast<double>(par.qr_iterations));
    out["core.serial_s"].push_back(log.duration(ser.root));
    out["core.parallel_speedup"].push_back(log.duration(ser.root) /
                                           log.duration(untraced));
    out["core.stage_coverage"].push_back(coverage);
    out["trace.overhead"].push_back(driver / log.duration(untraced));
    return o;
  }

 private:
  struct Staged {
    std::vector<double> values;
    ExecResult exec;
    long long qr_iterations = 0;
    int root = -1, pad = -1, ge2bnd = -1, extract = -1, bnd2bd = -1,
        bd2val = -1;
  };

  // gesvd_values' pipeline stage by stage, one span per public call.
  Staged staged(SpanLog& log, const char* name, int parent, int request_id,
                int nthreads) {
    Staged s;
    Ge2bndOptions go = opts_.ge2bnd;
    go.nthreads = nthreads;
    s.root = log.begin(name, parent, request_id);

    s.pad = log.begin("tile.pad", s.root, request_id);
    TileMatrixT<T> tiles = tile_from_dense_padded<T>(A_.cview(), nb_);
    log.end(s.pad);

    s.ge2bnd = log.begin("core.ge2bnd", s.root, request_id);
    s.exec = ge2bnd<T>(tiles, go);
    log.end(s.ge2bnd);
    log.add_tasks(s.ge2bnd, s.exec.trace, s.exec.seconds);

    s.extract = log.begin("band.extract", s.root, request_id);
    const BandMatrixT<T> band = band_from_tiles<T>(tiles);
    log.end(s.extract);

    s.bnd2bd = log.begin("band.bnd2bd", s.root, request_id);
    const BidiagonalT<T> bd = bnd2bd<T>(band);
    log.end(s.bnd2bd);

    s.bd2val = log.begin("band.bd2val", s.root, request_id);
    Bd2valInfo bi;
    const std::vector<T> v = bd2val<T>(bd, opts_.bd2val, &bi);
    log.end(s.bd2val);
    log.end(s.root);

    s.values.assign(v.begin(), v.end());
    s.values.resize(n_);  // padding adds exact zeros at the tail
    s.qr_iterations = bi.qr_iterations;
    return s;
  }

  int m_, n_, nb_ = 0, ib_ = 0;
  MatrixT<T> A_;
  std::vector<double> sv_;
  double tol_ = 0.0;
  GesvdOptions opts_;
  std::vector<double> last_;
  std::vector<TileOp> ops_;
  double sim_makespan_ = 0.0;
};

// -------------------------------------------------------------- batched ---
// One batched::svd<double> call over mixed shapes: n uniform in [4, 64],
// m / n in [1/2, 4]. The shapes are a fixed stratified sample of that
// distribution, so every seed does the same work; the seed orders the
// problems and draws their entries.
class Batched final : public Workload {
 public:
  Batched(int count, std::uint64_t seed) {
    Rng rng(seed);
    std::vector<int> stratum(count);
    std::iota(stratum.begin(), stratum.end(), 0);
    for (int i = count - 1; i > 0; --i) {
      std::swap(stratum[i], stratum[rng.below(i + 1)]);
    }
    const double golden = 0.6180339887498949;
    for (int j : stratum) {
      const int n = 4 + (61 * j) / count;
      const double frac = std::fmod(0.5 + j * golden, 1.0);
      const int m = std::max(
          1, static_cast<int>(std::lround(n * (0.5 + 3.5 * frac))));
      const int mw = std::max(m, n), nw = std::min(m, n);
      GenOptions g;
      g.profile = SvProfile::Random;
      g.cond = 1e3;
      g.seed = rng.next_u64();
      std::vector<double> sv;
      const Matrix tall = generate_latms(mw, nw, g, sv);
      Matrix A(m, n);
      for (int c = 0; c < n; ++c) {
        for (int r = 0; r < m; ++r) A(r, c) = m >= n ? tall(r, c) : tall(c, r);
      }
      flops_ += flops_ge2bnd(mw, nw);
      sv_.push_back(std::move(sv));
      mats_.push_back(std::move(A));
    }
    cutoff_ = tune::resolved_direct_max_cols(0, 8, 48);
    for (int i = 0; i < count; ++i) {
      const int nw = std::min(mats_[i].rows(), mats_[i].cols());
      (nw <= cutoff_ ? direct_ : tiled_).push_back(i);
    }
  }

  Outcome request(int nthreads) override {
    return solve(all(), nthreads, nullptr);
  }

  [[nodiscard]] double flops() const override { return flops_; }

  [[nodiscard]] std::string config() const override {
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "%zu problems f64 batched::svd svd_nb=%d "
                  "direct_max_cols=%d direct=%zu tiled=%zu",
                  mats_.size(), batched::BatchOptions{}.svd_nb, cutoff_,
                  direct_.size(), tiled_.size());
    return buf;
  }

  void prepare_trace(int) override {}

  Outcome traced_round(SpanLog& log, int root, int request_id, int nthreads,
                       Samples& out) override {
    const int untraced = log.begin("batched.untraced", root, request_id);
    Outcome o = request(nthreads);
    log.end(untraced);

    long long qr_iterations = 0;
    const int full = log.begin("batched.svd", root, request_id);
    o.merge(solve(all(), nthreads, &qr_iterations));
    log.end(full);
    const int direct = log.begin("batched.direct", root, request_id);
    o.merge(solve(direct_, nthreads, nullptr));
    log.end(direct);
    const int tiled = log.begin("batched.tiled", root, request_id);
    o.merge(solve(tiled_, nthreads, nullptr));
    log.end(tiled);
    const int serial = log.begin("batched.serial", root, request_id);
    o.merge(solve(all(), 1, nullptr));
    log.end(serial);

    out["batched.svd_s"].push_back(log.duration(full));
    out["batched.direct_s"].push_back(log.duration(direct));
    out["batched.tiled_s"].push_back(log.duration(tiled));
    out["batched.direct_problems"].push_back(
        static_cast<double>(direct_.size()));
    out["batched.tiled_problems"].push_back(
        static_cast<double>(tiled_.size()));
    out["batched.serial_s"].push_back(log.duration(serial));
    out["batched.parallel_speedup"].push_back(log.duration(serial) /
                                              log.duration(untraced));
    out["band.bd2val_qr_iters"].push_back(static_cast<double>(qr_iterations));
    out["trace.overhead"].push_back(log.duration(full) /
                                    log.duration(untraced));
    return o;
  }

 private:
  [[nodiscard]] std::vector<int> all() const {
    std::vector<int> idx(mats_.size());
    std::iota(idx.begin(), idx.end(), 0);
    return idx;
  }

  // One batched::svd call over the problems `idx`, each checked.
  Outcome solve(const std::vector<int>& idx, int nthreads,
                long long* qr_iterations) {
    Outcome o;
    o.attempted = static_cast<long>(idx.size());
    std::vector<ConstMatrixView> views;
    for (int i : idx) views.push_back(mats_[i].cview());
    batched::BatchOptions opts;
    opts.nthreads = nthreads;
    try {
      const batched::SvdBatchResult r = batched::svd<double>(views, opts);
      for (std::size_t j = 0; j < idx.size(); ++j) {
        const std::vector<double>& want = sv_[idx[j]];
        if (!r.reports[j].ok()) {
          o.fail(r.reports[j].message);
          continue;
        }
        check_spectrum(o, r.values[j], want, want.size(),
                       dense_tol<double>(static_cast<int>(want.size()),
                                         want.front()));
        if (qr_iterations != nullptr) {
          *qr_iterations += r.infos[j].qr_iterations;
        }
      }
    } catch (const std::exception& e) {
      o.failed = o.attempted;
      o.note = e.what();
    }
    return o;
  }

  std::vector<Matrix> mats_;
  std::vector<std::vector<double>> sv_;
  std::vector<int> direct_, tiled_;
  int cutoff_ = 0;
  double flops_ = 0.0;
};

// ------------------------------------------------------------ truncated ---
// gesvd_truncated<double>(A, k): k geometric values in [1e-2, 1] over a
// 1e-10 tail, the low-rank-plus-noise shape of a PCA input.
class Truncated final : public Workload {
 public:
  Truncated(int m, int n, int k, std::uint64_t seed)
      : m_(m), n_(n), k_(k), seed_(seed) {
    GenOptions g;
    g.profile = SvProfile::Geometric;
    g.cond = 1e2;
    sv_ = make_singular_values(k, g);
    sv_.resize(n, 1e-10);
    A_ = generate_matrix_with_sv(m, n, sv_, seed);
    l_ = std::min(n, k + tune::resolved_oversample(0, 8));
  }

  Outcome request(int nthreads) override {
    Outcome o;
    o.attempted = 1;
    try {
      GesvdTruncatedOptions opts;
      opts.nthreads = nthreads;
      const TruncatedSvd r = gesvd_truncated<double>(A_.cview(), k_, opts);
      if (!r.info.ok()) o.fail("gesvd_truncated reported a non-ok status");
      check_spectrum(o, r.values, sv_, k_, 1e-8 * sv_.front());
    } catch (const std::exception& e) {
      o.fail(e.what());
    }
    return o;
  }

  [[nodiscard]] double flops() const override { return flops_ge2bnd(m_, n_); }

  [[nodiscard]] std::string config() const override {
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "%dx%d f64 gesvd_truncated k=%d sketch=%d power_iters=%d "
                  "tsqr_nb=%d",
                  m_, n_, k_, l_, GesvdTruncatedOptions{}.power_iters,
                  std::min(tune::resolved_nb(0, 8, 64), l_));
    return buf;
  }

  void prepare_trace(int) override {
    probe_ = generate_random(m_, l_, seed_ + 1);
    omega_ = generate_random(n_, l_, seed_ + 2);
  }

  Outcome traced_round(SpanLog& log, int root, int request_id, int nthreads,
                       Samples& out) override {
    const int untraced = log.begin("rsvd.untraced", root, request_id);
    Outcome o = request(nthreads);
    log.end(untraced);

    const int solve = log.begin("rsvd.solve", root, request_id);
    o.merge(request(nthreads));
    log.end(solve);

    // Probes of the layers the solve is built from, at its shapes.
    Matrix Y(m_, l_);
    const int gemm_span = log.begin("lac.gemm", root, request_id);
    gemm<double>(Trans::No, Trans::No, 1.0, A_.cview(), omega_.cview(), 0.0,
                 Y.view());
    log.end(gemm_span);
    TsqrOptions qo;
    qo.nthreads = nthreads;
    const int tsqr_span = log.begin("rsvd.tsqr", root, request_id);
    const TsqrFactors f = tsqr<double>(probe_.cview(), qo);
    log.end(tsqr_span);
    const int form_q = log.begin("rsvd.form_q", root, request_id);
    const Matrix Q = tsqr_form_q<double>(f, nthreads);
    log.end(form_q);

    const int serial = log.begin("rsvd.serial", root, request_id);
    o.merge(request(1));
    log.end(serial);

    const double gemm_s = log.duration(gemm_span);
    out["rsvd.solve_s"].push_back(log.duration(solve));
    out["rsvd.tsqr_s"].push_back(log.duration(tsqr_span));
    out["rsvd.tsqr_tasks"].push_back(static_cast<double>(f.ntasks));
    out["rsvd.form_q_s"].push_back(log.duration(form_q));
    out["lac.gemm_s"].push_back(gemm_s);
    out["lac.gemm_gflops"].push_back(2.0 * m_ * n_ * l_ / gemm_s / 1e9);
    out["rsvd.serial_s"].push_back(log.duration(serial));
    out["rsvd.parallel_speedup"].push_back(log.duration(serial) /
                                           log.duration(untraced));
    out["trace.overhead"].push_back(log.duration(solve) /
                                    log.duration(untraced));
    return o;
  }

 private:
  int m_, n_, k_, l_ = 0;
  std::uint64_t seed_;
  Matrix A_, probe_, omega_;
  std::vector<double> sv_;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "square_f64", "tall_f32", "batched_f64", "truncated_f64"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, bool smoke) {
  if (name == "square_f64") {
    const int n = smoke ? 128 : 768;
    return std::make_unique<Dense<double>>(n, n, BidiagAlg::Bidiag, seed);
  }
  if (name == "tall_f32") {
    return std::make_unique<Dense<float>>(smoke ? 1024 : 16384,
                                          smoke ? 64 : 256, BidiagAlg::Auto,
                                          seed);
  }
  if (name == "batched_f64") {
    return std::make_unique<Batched>(smoke ? 32 : 512, seed);
  }
  if (name == "truncated_f64") {
    return smoke ? std::make_unique<Truncated>(1024, 128, 16, seed)
                 : std::make_unique<Truncated>(8192, 512, 64, seed);
  }
  return nullptr;
}

}  // namespace suite
