#include "spans.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "common/timer.hpp"

namespace suite {

int SpanLog::begin(const char* name, int parent, int request) {
  Span s;
  s.name = name;
  s.parent = parent;
  s.request = request;
  s.t0 = tbsvd::WallTimer::now();
  s.t1 = s.t0;
  spans_.push_back(s);
  return static_cast<int>(spans_.size()) - 1;
}

void SpanLog::end(int id) { spans_[id].t1 = tbsvd::WallTimer::now(); }

void SpanLog::add_tasks(int parent, const tbsvd::Trace& trace,
                        double run_seconds) {
  const Span& p = spans_[parent];
  const double origin = std::max(p.t0, p.t1 - run_seconds);
  const int request = p.request;
  for (const tbsvd::TraceEvent& ev : trace.events()) {
    Span s;
    s.name = ev.name;
    s.parent = parent;
    s.request = request;
    s.row = 1 + ev.worker;
    s.t0 = origin + ev.t_start;
    s.t1 = origin + ev.t_end;
    spans_.push_back(s);
  }
}

double SpanLog::duration(int id) const {
  return spans_[id].t1 - spans_[id].t0;
}

double SpanLog::self_time(int id) const {
  const Span& p = spans_[id];
  std::vector<std::pair<double, double>> iv;
  for (std::size_t i = id + 1; i < spans_.size(); ++i) {
    const Span& c = spans_[i];
    if (c.parent != id) continue;
    const double a = std::max(c.t0, p.t0), b = std::min(c.t1, p.t1);
    if (b > a) iv.emplace_back(a, b);
  }
  std::sort(iv.begin(), iv.end());
  double covered = 0.0, lo = 0.0, hi = -1.0;
  for (const auto& [a, b] : iv) {
    if (a > hi) {
      if (hi > lo) covered += hi - lo;
      lo = a;
      hi = b;
    } else {
      hi = std::max(hi, b);
    }
  }
  if (hi > lo) covered += hi - lo;
  return duration(id) - covered;
}

bool SpanLog::write_chrome(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  double origin = 0.0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (i == 0 || spans_[i].t0 < origin) origin = spans_[i].t0;
  }
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  std::fprintf(f,
               "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
               "\"args\":{\"name\":\"caller\"}}");
  int rows = 0;
  for (const Span& s : spans_) rows = std::max(rows, s.row);
  for (int r = 1; r <= rows; ++r) {
    std::fprintf(f,
                 ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                 "\"tid\":%d,\"args\":{\"name\":\"worker %d\"}}",
                 r, r - 1);
  }
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 ",\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%d,\"request\":%d}}",
                 s.name, s.row, (s.t0 - origin) * 1e6,
                 (s.t1 - s.t0) * 1e6, i, s.parent, s.request);
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace suite
