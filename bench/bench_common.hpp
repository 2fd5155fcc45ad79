// Shared helpers for the benchmark harnesses: kernel-time calibration (the
// measured cost model driving the 24-core / multi-node simulators), table
// printing, best-of-N timing, and the JSON record emitter used for
// cross-PR perf tracking (BENCH_gemm.json, BENCH_kernels.json).
//
// Every bench prints the series of one paper table/figure. Absolute GFlop/s
// differ from the paper (hand-written kernels on a small container vs MKL
// on a 24-core Haswell); the *shape* — which tree/algorithm wins, where
// crossovers fall — is the reproduction target. docs/EXPERIMENTS.md maps
// each bench binary to its paper table or figure.
#pragma once

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/flops.hpp"
#include "common/timer.hpp"
#include "core/tile_ops.hpp"
#include "cp/dag_analysis.hpp"
#include "kernels/lq_kernels.hpp"
#include "kernels/qr_kernels.hpp"
#include "tile/matrix_gen.hpp"
#include "tune/calibrate.hpp"
#include "tune/tune.hpp"

namespace tbsvd::bench {

/// True when TBSVD_BENCH_FULL=1: larger sweeps (several minutes each).
inline bool full_mode() {
  const char* v = std::getenv("TBSVD_BENCH_FULL");
  return v != nullptr && v[0] == '1';
}

/// Prevents the optimizer from discarding a computed result.
template <class T>
inline void benchmark_keep(const T& v) {
  asm volatile("" : : "g"(&v) : "memory");
}

/// Best-of-N wall time of `fn` (minimum filters scheduler noise).
inline double time_best(int reps, const std::function<void()>& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    WallTimer w;
    fn();
    best = std::min(best, w.seconds());
  }
  return best;
}

/// One benchmark measurement, serialized to the BENCH_*.json artifacts that
/// make perf diffable across PRs. The weight fields are Table-I normalized
/// kernel weights and are emitted only when set (weight_paper >= 0); the
/// matrix extents are emitted only when set (m > 0) — kernel benches key
/// on (nb, ib) alone, the end-to-end fig2 benches add the problem size;
/// the GE2VAL stage split is emitted only when set (ge2bnd_s >= 0).
struct Record {
  std::string name;
  int nb = 0;
  int ib = 0;
  int m = 0;   ///< problem rows (end-to-end benches; 0 = not applicable)
  int n = 0;   ///< problem cols
  double seconds = 0.0;
  double gflops = 0.0;
  double weight_measured = -1.0;  ///< measured time normalized to GEQRT == 4
  double weight_paper = -1.0;     ///< the paper's Table-I weight
  int batch = 0;    ///< problems per batch (batched benches; 0 = n/a)
  int threads = 0;  ///< batch workers (emitted with batch)
  double problems_per_sec = 0.0;  ///< batched throughput (emitted with batch)
  double ge2bnd_s = -1.0;  ///< GE2VAL stage seconds (GesvdTimings)
  double bnd2bd_s = 0.0;   ///< emitted with ge2bnd_s
  double bd2val_s = 0.0;   ///< emitted with ge2bnd_s
};

/// Write records as a JSON array, replacing `path`. Returns false (with a
/// message on stderr) if the file cannot be opened.
inline bool write_json(const char* path, const std::vector<Record>& recs) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench: cannot open %s\n", path);
    return false;
  }
  std::fprintf(f, "[\n");
  for (std::size_t i = 0; i < recs.size(); ++i) {
    const Record& r = recs[i];
    std::fprintf(f,
                 "  {\"name\": \"%s\", \"nb\": %d, \"ib\": %d, "
                 "\"seconds\": %.6e, \"gflops\": %.3f",
                 r.name.c_str(), r.nb, r.ib, r.seconds, r.gflops);
    if (r.m > 0) {
      std::fprintf(f, ", \"m\": %d, \"n\": %d", r.m, r.n);
    }
    if (r.weight_paper >= 0.0) {
      std::fprintf(f, ", \"weight_measured\": %.3f, \"weight_paper\": %.0f",
                   r.weight_measured, r.weight_paper);
    }
    if (r.batch > 0) {
      std::fprintf(f,
                   ", \"batch\": %d, \"threads\": %d, "
                   "\"problems_per_sec\": %.1f",
                   r.batch, r.threads, r.problems_per_sec);
    }
    if (r.ge2bnd_s >= 0.0) {
      std::fprintf(f,
                   ", \"ge2bnd_s\": %.6e, \"bnd2bd_s\": %.6e, "
                   "\"bd2val_s\": %.6e",
                   r.ge2bnd_s, r.bnd2bd_s, r.bd2val_s);
    }
    std::fprintf(f, "}%s\n", i + 1 < recs.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  std::fclose(f);
  std::printf("\nwrote %zu records to %s\n", recs.size(), path);
  return true;
}

/// One end-to-end (GE2BND-flop-normalized) measurement for the fig2
/// benches: fills the extents and derives GFlop/s from the shared flop
/// model so the two emitters cannot drift.
inline Record e2e_record(std::string name, int nb, int ib, int m, int n,
                         double seconds) {
  Record r;
  r.name = std::move(name);
  r.nb = nb;
  r.ib = ib;
  r.m = m;
  r.n = n;
  r.seconds = seconds;
  r.gflops = flops_ge2bnd(m, n) / seconds / 1e9;
  return r;
}

/// Scalar type a bench series runs in. F64 is the historical default.
enum class DType { F64, F32 };

inline const char* dtype_name(DType d) {
  switch (d) {
    case DType::F64: return "f64";
    case DType::F32: return "f32";
  }
  return "?";
}

/// Series-name suffix for a dtype: empty for f64 (keeps the historical
/// series names diffable across PRs), "_f32" otherwise.
inline std::string dtype_suffix(DType d) {
  return d == DType::F64 ? "" : std::string("_") + dtype_name(d);
}

/// Shared argv handling for the benches:
/// `[--smoke] [--out PATH] [--dtype f32|f64] [--nb N]
///  [--tune-file PATH]`.
/// Returns false (after printing usage) on unknown arguments. `smoke`
/// additionally picks up pre-set state (e.g. TBSVD_BENCH_FULL) untouched —
/// it only narrows the sweep; `out` is left at the caller's default when
/// no --out is given. Benches that don't support precision selection, a
/// tile-size override or a persisted calibration pass nullptr for
/// `dtype` / `nb` / `tune_file`, which rejects the flag.
inline bool parse_bench_args(int argc, char** argv, bool& smoke,
                             const char*& out, DType* dtype = nullptr,
                             int* nb = nullptr,
                             const char** tune_file = nullptr) {
  auto usage = [&] {
    std::fprintf(stderr, "usage: %s [--smoke] [--out PATH]%s%s%s\n", argv[0],
                 dtype != nullptr ? " [--dtype f32|f64]" : "",
                 nb != nullptr ? " [--nb N]" : "",
                 tune_file != nullptr ? " [--tune-file PATH]" : "");
    return false;
  };
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out = argv[++i];
    } else if (dtype != nullptr && std::strcmp(argv[i], "--dtype") == 0 &&
               i + 1 < argc) {
      const char* v = argv[++i];
      if (std::strcmp(v, "f64") == 0) {
        *dtype = DType::F64;
      } else if (std::strcmp(v, "f32") == 0) {
        *dtype = DType::F32;
      } else {
        return usage();
      }
    } else if (nb != nullptr && std::strcmp(argv[i], "--nb") == 0 &&
               i + 1 < argc) {
      *nb = std::atoi(argv[++i]);
      if (*nb < 1) return usage();
    } else if (tune_file != nullptr &&
               std::strcmp(argv[i], "--tune-file") == 0 && i + 1 < argc) {
      *tune_file = argv[++i];
    } else {
      return usage();
    }
  }
  return true;
}

/// Load a persisted calibration for a bench run (--tune-file): exits with
/// a message on a corrupt/stale file rather than silently re-calibrating,
/// and prints the host-mismatch flag when the file came from another
/// machine. Returns the per-dtype table.
inline const tune::PrecisionCalib& load_tune_table(const char* path,
                                                   tune::Calibration& cal,
                                                   DType dtype) {
  tune::TuneLoadInfo info;
  try {
    cal = tune::load_calibration(path, &info);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench: --tune-file %s unusable: %s\n", path,
                 e.what());
    std::exit(1);
  }
  if (info.host_mismatch) {
    std::fprintf(stderr, "bench: note: %s\n", info.message.c_str());
  }
  const tune::PrecisionCalib* t =
      cal.find(dtype == DType::F64 ? "f64" : "f32");
  if (t == nullptr) t = &cal.precisions.front();
  return *t;
}

// Kernel-time calibration and the measured cost model were promoted into
// the library (src/tune/calibrate.hpp) so the autotuner and the executor's
// priority weights share them with the benches; re-exported here to keep
// every bench's call sites unchanged.
using tune::calibrate_kernels;
using tune::measured_cost;

inline void print_header(const std::string& title,
                         const std::vector<std::string>& cols) {
  std::printf("\n=== %s ===\n", title.c_str());
  for (const auto& c : cols) std::printf("%14s", c.c_str());
  std::printf("\n");
  for (std::size_t i = 0; i < cols.size(); ++i) std::printf("%14s", "------------");
  std::printf("\n");
}

}  // namespace tbsvd::bench
