// tbsvd benchmark suite: one closed-loop caller driving one workload
// through the library's public API with P = min(4, nproc) workers.
//
//   tbsvd_suite --workload W --seed N --seconds S --trace 0 [--git-sha SHA]
//       [--cold-sample "cold SECONDS RSS_MB ATTEMPTED FAILED"]...
//     End-to-end run: 2 checked warm-up requests, then timed requests for
//     S seconds (and at least kMinRequests); prints every end-to-end metric.
//     setup_s and peak_rss_mb come from the --cold-sample lines, which
//     run.sh collects from fresh `--cold` processes.
//   tbsvd_suite --workload W --seed N --seconds S --trace 1 [--trace-out PATH]
//     Traced run: rounds of staged / probe calls inside spans for S seconds
//     (at least kMinRounds); prints every per-layer metric and writes the
//     spans as Chrome trace-event JSON.
//   tbsvd_suite --cold W --seed N
//     Generates the inputs, resets the peak-RSS mark, and times the first
//     request of a fresh process.
//   tbsvd_suite --smoke
//     Tiny shapes, 3 requests and 1 traced round per workload.
//
// The last stdout line of a run is one JSON object with the keys correct,
// attempted, failed and metrics. Exit codes: 0 ok, 1 I/O failure, 2 usage
// or a refused run (an active tune calibration), 3 a failed check.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/timer.hpp"
#include "lac/blas.hpp"
#include "tile/matrix_gen.hpp"
#include "tune/tune.hpp"
#include "workloads.hpp"

namespace {

using suite::Outcome;
using suite::Samples;
using tbsvd::WallTimer;

constexpr int kWarmup = 2;
constexpr int kMinRequests = 50;
constexpr int kMinRounds = 5;
constexpr double kTail = 0.8;  // the tail percentile, 10 samples beyond it

struct Metric {
  const char* name;
  const char* unit;
};

// The bounded metrics of BENCHMARK.json. Latency is counted in
// reference-kernel durations (reference_seconds). The p80 tail is printed
// but not bounded: on square_f64 its run-to-run spread reached 20%.
constexpr Metric kEndToEnd[] = {
    {"solve_p50", "refs"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

// Every per-layer metric, for every workload; a layer the workload does
// not enter records no sample and reads 0.
constexpr Metric kPerLayer[] = {
    {"tile.pad_s", "s"},
    {"core.ge2bnd_s", "s"},
    {"core.ge2bnd_tasks", "count"},
    {"runtime.utilization", "ratio"},
    {"runtime.idle_s", "s"},
    {"cp.efficiency", "ratio"},
    {"kernels.panel_s", "s"},
    {"kernels.update_s", "s"},
    {"kernels.ts_panel_s", "s"},
    {"kernels.ts_update_s", "s"},
    {"kernels.tt_panel_s", "s"},
    {"kernels.tt_update_s", "s"},
    {"kernels.busy_s", "s"},
    {"kernels.gflops", "GFlop/s"},
    {"kernels.frac_of_gemm", "ratio"},
    {"kernels.busy_inflation", "ratio"},
    {"band.extract_s", "s"},
    {"band.bnd2bd_s", "s"},
    {"band.bd2val_s", "s"},
    {"band.bd2val_qr_iters", "count"},
    {"core.serial_s", "s"},
    {"core.parallel_speedup", "ratio"},
    {"core.stage_coverage", "ratio"},
    {"batched.svd_s", "s"},
    {"batched.direct_s", "s"},
    {"batched.tiled_s", "s"},
    {"batched.direct_problems", "count"},
    {"batched.tiled_problems", "count"},
    {"batched.serial_s", "s"},
    {"batched.parallel_speedup", "ratio"},
    {"rsvd.solve_s", "s"},
    {"rsvd.tsqr_s", "s"},
    {"rsvd.tsqr_tasks", "count"},
    {"rsvd.form_q_s", "s"},
    {"lac.gemm_s", "s"},
    {"lac.gemm_gflops", "GFlop/s"},
    {"rsvd.serial_s", "s"},
    {"rsvd.parallel_speedup", "ratio"},
    {"host.gemm_gflops", "GFlop/s"},
    {"host.gemm_spread", "ratio"},
    {"host.effective_cores_start", "cores"},
    {"host.effective_cores_end", "cores"},
    {"trace.overhead", "ratio"},
};

// ------------------------------------------------------------ statistics ---
// Linear-interpolation quantile (numpy's default), q in [0, 1].
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

double spread(const std::vector<double>& v) {
  return (quantile(v, 0.75) - quantile(v, 0.25)) / median(v);
}

// ------------------------------------------------------------------ host ---
volatile double g_sink = 0.0;

// Serial 256^3 f64 GEMM rate of the library's backend, once per traced
// round: the lac layer's peak on this host at this moment.
double gemm_anchor_gflops() {
  static const tbsvd::Matrix A = tbsvd::generate_random(256, 256, 11);
  static const tbsvd::Matrix B = tbsvd::generate_random(256, 256, 12);
  static tbsvd::Matrix C(256, 256);
  WallTimer t;
  tbsvd::gemm<double>(tbsvd::Trans::No, tbsvd::Trans::No, 1.0, A.cview(),
                      B.cview(), 0.0, C.view());
  const double s = t.seconds();
  g_sink = C(0, 0);
  return 2.0 * 256.0 * 256.0 * 256.0 / s / 1e9;
}

// The time unit of the end-to-end latencies: best of three runs of a 128^3
// f64 matrix product in plain loops, timed right after each request. It
// shares no code with the library, so no library change can move it, and
// dividing by it takes the host's per-core speed out of a latency. On
// shared hosts that speed swings by 40% between minutes.
double reference_seconds() {
  constexpr int n = 128, nn = n * n;
  // One page-aligned buffer with fixed offsets: the speed of this loop
  // nest depends on how its three arrays alias in cache, so their relative
  // placement must not vary with the process's allocation history.
  static std::vector<double> buf(3 * nn + 24 + 512);
  static double* const a = [] {
    double* p = buf.data();
    while (reinterpret_cast<std::uintptr_t>(p) % 4096 != 0) ++p;
    std::fill(p, p + nn, 1e-3);
    std::fill(p + nn + 8, p + 2 * nn + 8, 2e-3);
    return p;
  }();
  const double* const b = a + nn + 8;
  double* const c = a + 2 * nn + 16;
  double best = 1e300;
  for (int r = 0; r < 3; ++r) {
    WallTimer t;
    std::fill(c, c + nn, 0.0);
    for (int i = 0; i < n; ++i) {
      for (int k = 0; k < n; ++k) {
        const double aik = a[i * n + k];
        for (int j = 0; j < n; ++j) c[i * n + j] += aik * b[k * n + j];
      }
    }
    best = std::min(best, t.seconds());
    g_sink = c[r];
  }
  return best;
}

volatile double g_spin_a = 0.999999, g_spin_b = 1e-6;

// A dependent multiply-add chain the compiler cannot fold: its operands
// are read at run time.
double spin(long iters) {
  const double a = g_spin_a, b = g_spin_b;
  double x = g_sink;
  for (long i = 0; i < iters; ++i) x = x * a + b;
  return x;
}

// P threads spinning a fixed dependent-FMA loop against one thread doing
// the same: P on an idle host, less when other tenants hold the cores.
// Median of three probes; a fresh process's first threads can start on one
// core before the kernel spreads them.
double effective_cores(int P) {
  const long iters = 20'000'000;
  std::vector<double> probes;
  for (int r = 0; r < 3; ++r) {
    WallTimer t;
    g_sink = spin(iters);
    const double one = t.seconds();
    std::vector<std::thread> threads;
    t.reset();
    for (int i = 0; i < P; ++i) {
      threads.emplace_back([iters] { g_sink = spin(iters); });
    }
    for (std::thread& th : threads) th.join();
    probes.push_back(P * one / t.seconds());
  }
  return median(probes);
}

// Resets the kernel's peak-RSS mark (VmHWM) to the current RSS.
bool reset_peak_rss() {
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
  f.flush();
  return static_cast<bool>(f);
}

double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

std::string cpu_model() {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t c = line.find(':');
      if (c != std::string::npos) return line.substr(c + 2);
    }
  }
  return "unknown";
}

int nproc() {
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

int workers() { return std::min(4, nproc()); }

void print_header(const std::string& sha, const std::string& workload,
                  std::uint64_t seed, double seconds, bool trace) {
#ifdef TBSVD_SUITE_MARCH_NATIVE
  const char* native = "yes";
#else
  const char* native = "no";
#endif
#ifdef __AVX512F__
  const char* avx512 = "yes";
#else
  const char* avx512 = "no";
#endif
  std::printf("git: %s\n", sha.c_str());
  std::printf("workload: %s\n", workload.c_str());
  std::printf("seed: %llu seconds: %g trace: %d\n",
              static_cast<unsigned long long>(seed), seconds, trace ? 1 : 0);
  std::printf("host: cpu=\"%s\" nproc=%d P=%d march_native=%s avx512=%s\n",
              cpu_model().c_str(), nproc(), workers(), native, avx512);
}

void warn_if_contended(double cores_start, double cores_end,
                       double reference_spread) {
  const double P = workers();
  if (std::min(cores_start, cores_end) < 0.5 * P || reference_spread > 0.10) {
    std::printf("WARN host-contended effective_cores=%.2f/%.2f of P=%d "
                "reference_spread=%.3f\n",
                cores_start, cores_end, workers(), reference_spread);
  }
}

// The result line: the last line of stdout.
void print_result(const Outcome& o, const std::vector<Metric>& names,
                  const std::vector<double>& values) {
  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
              "\"metrics\": {",
              o.failed == 0 ? "true" : "false", o.attempted, o.failed);
  for (std::size_t i = 0; i < names.size(); ++i) {
    const double v = std::isfinite(values[i]) ? values[i] : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", names[i].name, v, names[i].unit);
  }
  std::printf("}}\n");
}

void print_table(const std::vector<Metric>& names,
                 const std::vector<double>& values) {
  for (std::size_t i = 0; i < names.size(); ++i) {
    std::printf("  %-28s %14.6g %s\n", names[i].name, values[i],
                names[i].unit);
  }
}

int finish(const Outcome& o) {
  if (o.failed != 0) {
    std::fprintf(stderr, "FAILED %ld of %ld: %s\n", o.failed, o.attempted,
                 o.note.c_str());
    return 3;
  }
  return 0;
}

// ----------------------------------------------------------------- modes ---
struct Args {
  std::string workload;
  std::string cold;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string trace_out = "trace.json";
  std::string sha = "unknown";
  std::vector<std::string> cold_samples;
};

int run_cold(const Args& a) {
  auto w = suite::make_workload(a.cold, a.seed, false);
  if (!reset_peak_rss()) {
    std::fprintf(stderr, "cannot reset the peak-RSS mark\n");
    return 1;
  }
  WallTimer t;
  const Outcome o = w->request(workers());
  const double s = t.seconds();
  std::printf("cold %.9f %.6f %ld %ld\n", s, peak_rss_mb(), o.attempted,
              o.failed);
  return finish(o);
}

// The loop runs for a.seconds and at least min_requests, and stops at
// 3 a.seconds + 60 s whatever the count, so a slow host cannot run it past
// the caller's time limit.
int run_e2e(const Args& a, suite::Workload& w, int min_requests) {
  const int P = workers();
  Outcome o;
  std::vector<double> setup, rss;
  for (const std::string& line : a.cold_samples) {
    std::istringstream in(line);
    std::string tag;
    double s = 0.0, mb = 0.0;
    long attempted = 0, failed = 0;
    if (!(in >> tag >> s >> mb >> attempted >> failed) || tag != "cold") {
      std::fprintf(stderr, "malformed --cold-sample '%s'\n", line.c_str());
      return 2;
    }
    setup.push_back(s);
    rss.push_back(mb);
    o.attempted += attempted;
    if (failed != 0) {
      o.failed += failed;
      if (o.note.empty()) o.note = "a cold request failed its check";
    }
  }
  if (setup.empty()) {
    std::fprintf(stderr, "an end-to-end run needs --cold-sample lines "
                         "(run.sh collects them)\n");
    return 2;
  }

  for (int i = 0; i < kWarmup; ++i) o.merge(w.request(P));
  const double cores_start = effective_cores(P);
  std::vector<double> times, refs, latencies;
  WallTimer run;
  while (static_cast<int>(times.size()) < min_requests ||
         run.seconds() < a.seconds) {
    WallTimer t;
    o.merge(w.request(P));
    times.push_back(t.seconds());
    refs.push_back(reference_seconds());
    latencies.push_back(times.back() / refs.back());
    if (run.seconds() > 3.0 * a.seconds + 60.0) break;
  }
  const double cores_end = effective_cores(P);
  warn_if_contended(cores_start, cores_end, spread(refs));

  const double p50 = median(times);
  std::printf("requests: %zu timed in %.2f s, reference kernel %.1f us, "
              "effective cores %.2f -> %.2f\n",
              times.size(), run.seconds(), median(refs) * 1e6, cores_start,
              cores_end);
  std::printf("not bounded (wall time carries the host's speed):\n");
  print_table({{"solve_s_p50", "s"}, {"solve_s_p80", "s"},
               {"gflops_p50", "GFlop/s"}, {"error_rate", "fraction"},
               {"solve_p80", "refs"}},
              {p50, quantile(times, kTail), w.flops() / p50 / 1e9,
               static_cast<double>(o.failed) / o.attempted,
               quantile(latencies, kTail)});
  const std::vector<Metric> names(std::begin(kEndToEnd), std::end(kEndToEnd));
  const std::vector<double> values = {median(latencies), median(setup),
                                      median(rss)};
  std::printf("end-to-end metrics:\n");
  print_table(names, values);
  print_result(o, names, values);
  return finish(o);
}

int run_trace(const Args& a, suite::Workload& w, int min_rounds) {
  const int P = workers();
  Outcome o;
  w.prepare_trace(P);
  o.merge(w.request(P));  // warm-up
  suite::SpanLog log;
  Samples samples;
  const double cores_start = effective_cores(P);
  std::vector<double> anchors, refs;
  WallTimer run;
  for (int r = 0; r < min_rounds || run.seconds() < a.seconds; ++r) {
    const int root = log.begin("request", -1, r);
    const int anchor = log.begin("host.gemm", root, r);
    anchors.push_back(gemm_anchor_gflops());
    log.end(anchor);
    o.merge(w.traced_round(log, root, r, P, samples));
    log.end(root);
    refs.push_back(reference_seconds());
    if (run.seconds() > 3.0 * a.seconds + 60.0) break;
  }
  const double cores_end = effective_cores(P);
  warn_if_contended(cores_start, cores_end, spread(refs));
  samples["host.gemm_gflops"] = anchors;
  samples["host.gemm_spread"] = {spread(anchors)};
  samples["host.effective_cores_start"] = {cores_start};
  samples["host.effective_cores_end"] = {cores_end};

  const std::vector<Metric> names(std::begin(kPerLayer), std::end(kPerLayer));
  std::vector<double> values;
  for (const Metric& m : names) {
    const auto it = samples.find(m.name);
    values.push_back(it == samples.end() ? 0.0 : median(it->second));
  }
  std::printf("rounds: %zu in %.2f s\n", anchors.size(), run.seconds());
  if (log.write_chrome(a.trace_out)) {
    std::printf("trace: %s\n", a.trace_out.c_str());
  } else {
    std::fprintf(stderr, "cannot write %s\n", a.trace_out.c_str());
    return 1;
  }
  print_table(names, values);
  print_result(o, names, values);
  return finish(o);
}

// Every workload at tiny shapes through the same cold, end-to-end and
// traced code paths.
int run_smoke(Args a) {
  int rc = 0;
  for (const std::string& name : suite::workload_names()) {
    auto w = suite::make_workload(name, a.seed, true);
    print_header(a.sha, name, a.seed, 0.0, false);
    std::printf("config: %s\n", w->config().c_str());
    WallTimer t;
    const Outcome cold = w->request(workers());
    char line[160];
    std::snprintf(line, sizeof line, "cold %.9f %.6f %ld %ld", t.seconds(),
                  peak_rss_mb(), cold.attempted, cold.failed);
    a.cold_samples = {line};
    a.seconds = 0.0;
    a.trace_out = "trace-smoke-" + name + ".json";
    rc = std::max(rc, run_e2e(a, *w, 3));
    rc = std::max(rc, run_trace(a, *w, 1));
  }
  return rc;
}

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--smoke") {
      a.smoke = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--cold") {
      a.cold = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), nullptr);
    } else if (k == "--trace") {
      if (v != "0" && v != "1") return false;
      a.trace = v == "1";
    } else if (k == "--trace-out") {
      a.trace_out = v;
    } else if (k == "--git-sha") {
      a.sha = v;
    } else if (k == "--cold-sample") {
      a.cold_samples.push_back(v);
    } else {
      return false;
    }
  }
  const std::string& w = a.cold.empty() ? a.workload : a.cold;
  const auto& names = suite::workload_names();
  return a.smoke ||
         std::find(names.begin(), names.end(), w) != names.end();
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parse(argc, argv, a)) {
    std::fprintf(stderr,
                 "usage: tbsvd_suite --workload W --seed N --seconds S "
                 "--trace 0|1 [--trace-out PATH] [--cold-sample LINE]... | "
                 "--cold W --seed N | --smoke\n");
    return 2;
  }
  // A calibration file changes nb, ib and scheduler priorities: it
  // measures a different program than the one the suite defines.
  if (tbsvd::tune::active() != nullptr) {
    std::fprintf(stderr, "refusing to run: tune calibration active at %s\n",
                 tbsvd::tune::active_load_info().path.c_str());
    return 2;
  }
  if (a.smoke) return run_smoke(a);
  if (!a.cold.empty()) return run_cold(a);
  print_header(a.sha, a.workload, a.seed, a.seconds, a.trace);
  auto w = suite::make_workload(a.workload, a.seed, false);
  std::printf("config: %s\n", w->config().c_str());
  std::fflush(stdout);
  return a.trace ? run_trace(a, *w, kMinRounds)
                 : run_e2e(a, *w, kMinRequests);
}
