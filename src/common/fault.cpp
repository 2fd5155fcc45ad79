#include "common/fault.hpp"

#include <cstring>

#include "common/check.hpp"

namespace tbsvd::fault {

namespace detail {

std::atomic<bool> g_armed{false};

namespace {
// Armed-site state. Written only under arm()/disarm() (test setup, single
// threaded); read concurrently by workers through check_slow, which is why
// the counters are atomics.
const char* g_site = nullptr;
long long g_trigger_hit = 1;
std::atomic<long long> g_hits{0};
std::atomic<long long> g_fired{0};
}  // namespace

bool check_slow(const char* site) noexcept {
  // g_site is stable while armed; compare by content so sites can be named
  // from string literals in different translation units.
  const char* armed_site = g_site;
  if (armed_site == nullptr || std::strcmp(armed_site, site) != 0) {
    return false;
  }
  const long long hit = g_hits.fetch_add(1, std::memory_order_relaxed) + 1;
  if (hit != g_trigger_hit) return false;
  g_fired.fetch_add(1, std::memory_order_relaxed);
  return true;
}

}  // namespace detail

const std::vector<const char*>& all_sites() {
  // Central catalogue: one entry per TBSVD_FAULT_FIRE site in the library.
  // The sweep test asserts each armed site actually fires on the pipeline,
  // so a renamed or dead site fails loudly here rather than rotting.
  static const std::vector<const char*> sites = {
      "core.svd.poison_tile",        // NaN into the input tile before GE2BND
      "kernels.geqrt.poison_nan",    // NaN into R mid-factorization
      "lac.qr_rec.alloc_fail",       // workspace growth throws bad_alloc
      "band.bnd2bd.poison_nan",      // NaN into the bidiagonal output
      "band.bd2val.force_stall",     // dqds skipped as if out of budget
      "runtime.scheduler.task_fail", // a scheduled task throws
      "batched.problem_poison",      // one problem of a batch fails typed
      "tune.load_poison",            // calibration file parse fails typed
      "rsvd.sketch_poison",          // NaN into the Gaussian sketch pre-TSQR
  };
  return sites;
}

void arm(const char* site, long long trigger_hit) {
  TBSVD_CHECK(site != nullptr && trigger_hit >= 1,
              "fault::arm: need a site name and trigger_hit >= 1");
  bool known = false;
  for (const char* s : all_sites()) {
    if (std::strcmp(s, site) == 0) known = true;
  }
  TBSVD_CHECK(known, "fault::arm: site not in fault::all_sites()");
  detail::g_site = site;
  detail::g_trigger_hit = trigger_hit;
  detail::g_hits.store(0, std::memory_order_relaxed);
  detail::g_fired.store(0, std::memory_order_relaxed);
  detail::g_armed.store(true, std::memory_order_release);
}

void disarm() noexcept {
  detail::g_armed.store(false, std::memory_order_release);
  detail::g_site = nullptr;
  detail::g_hits.store(0, std::memory_order_relaxed);
  detail::g_fired.store(0, std::memory_order_relaxed);
}

long long hits() noexcept {
  return detail::g_hits.load(std::memory_order_relaxed);
}

bool fired() noexcept {
  return detail::g_fired.load(std::memory_order_relaxed) > 0;
}

}  // namespace tbsvd::fault
