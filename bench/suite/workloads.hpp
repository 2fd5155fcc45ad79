// The suite's four workloads. Each one owns its seeded inputs and their
// prescribed spectra, issues one checked request through the public driver,
// and runs one traced round (staged or probe calls inside spans) that
// yields the per-layer values. Why each workload exists is in README.md.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "spans.hpp"

namespace suite {

/// Problems attempted and failed by one or more requests. A failure is an
/// exception, a non-ok report, or a spectrum outside tolerance; `note`
/// describes the first one.
struct Outcome {
  long attempted = 0;
  long failed = 0;
  std::string note;

  void fail(const std::string& why) {
    ++failed;
    if (note.empty()) note = why;
  }
  void merge(const Outcome& o) {
    attempted += o.attempted;
    failed += o.failed;
    if (note.empty()) note = o.note;
  }
};

/// Per-layer values of the traced rounds, one entry per round.
using Samples = std::map<std::string, std::vector<double>>;

class Workload {
 public:
  virtual ~Workload() = default;

  /// One request through the public driver with `nthreads` workers,
  /// checked against the prescribed spectrum.
  virtual Outcome request(int nthreads) = 0;

  /// Model flops of one request (numerator of gflops_p50).
  [[nodiscard]] virtual double flops() const = 0;

  /// Shape, precision and resolved tile parameters, for the run header.
  [[nodiscard]] virtual std::string config() const = 0;

  /// Untimed set-up of the traced rounds (kernel calibration, probe inputs).
  virtual void prepare_trace(int nthreads) = 0;

  /// One traced round under span `root`: an untraced driver call, then the
  /// same work inside spans, then the single-thread baseline. Appends this
  /// round's per-layer values to `out`, trace.overhead included.
  virtual Outcome traced_round(SpanLog& log, int root, int request,
                               int nthreads, Samples& out) = 0;
};

/// Workload names in BENCHMARK.json order.
[[nodiscard]] const std::vector<std::string>& workload_names();

/// Generates the inputs of `name` from `seed`; tiny shapes when `smoke`.
/// Returns nullptr for an unknown name.
[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name,
                                                      std::uint64_t seed,
                                                      bool smoke);

}  // namespace suite
