// In-memory span log for the traced run: one span per public library call
// the suite makes (name, start, end, parent, request id), plus the per-task
// events of a ge2bnd ExecResult::trace grafted under their stage span.
// Spans are kept in memory and written once, at exit, as Chrome
// trace-event JSON (opens in Perfetto or chrome://tracing).
#pragma once

#include <string>
#include <vector>

#include "runtime/trace.hpp"

namespace suite {

struct Span {
  const char* name = "";  ///< static storage: a literal or a kernel name
  double t0 = 0.0;  ///< seconds, steady clock
  double t1 = 0.0;
  int parent = -1;  ///< index of the enclosing span, -1 for a root
  int request = -1;
  int row = 0;      ///< 0 = the calling thread, 1 + w = runtime worker w
};

class SpanLog {
 public:
  /// Open a span on the calling thread; returns its id.
  int begin(const char* name, int parent, int request);
  void end(int id);

  /// Graft the runtime's per-task events under span `parent`. The trace's
  /// clock starts when the graph starts running, which the executor reports
  /// as `run_seconds` before `parent` closed; events are placed from there.
  void add_tasks(int parent, const tbsvd::Trace& trace, double run_seconds);

  [[nodiscard]] double duration(int id) const;
  /// Duration minus the part of [t0, t1] covered by direct children.
  [[nodiscard]] double self_time(int id) const;

  /// Write every span as Chrome trace-event JSON ("X" events, times in
  /// microseconds from the first span). Returns false if the file cannot
  /// be written.
  bool write_chrome(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

}  // namespace suite
