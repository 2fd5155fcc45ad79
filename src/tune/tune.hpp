// Compatibility shim for bench/suite only. The library resolves every
// 0-sentinel option against a built-in constant and loads no calibration;
// these six names are what the frozen benchmark suite still calls, and
// this file goes with the next change to the benchmark.
#pragma once

#include <string>

namespace tbsvd::tune {

struct TuneLoadInfo {
  std::string path;
};

/// No calibration is ever active.
[[nodiscard]] inline const void* active() noexcept { return nullptr; }

[[nodiscard]] inline const TuneLoadInfo& active_load_info() noexcept {
  static const TuneLoadInfo info;
  return info;
}

/// requested > 0 wins; the 0 sentinel resolves to `fallback`.
[[nodiscard]] inline int resolved_nb(int requested, int /*scalar_bytes*/,
                                     int fallback) noexcept {
  return requested > 0 ? requested : fallback;
}
[[nodiscard]] inline int resolved_ib(int requested, int /*scalar_bytes*/,
                                     int fallback) noexcept {
  return requested > 0 ? requested : fallback;
}
[[nodiscard]] inline int resolved_direct_max_cols(int requested,
                                                  int /*scalar_bytes*/,
                                                  int fallback) noexcept {
  return requested > 0 ? requested : fallback;
}
[[nodiscard]] inline int resolved_oversample(int requested,
                                             int fallback) noexcept {
  return requested > 0 ? requested : fallback;
}

}  // namespace tbsvd::tune
