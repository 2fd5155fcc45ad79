// Fault-injection sweep tier (docs/ROBUSTNESS.md): arm every named site in
// fault::all_sites() in turn, run the full SVD pipeline through it, and
// assert the outcome is one of exactly three things — success with correct
// values, a flagged degraded result with correct values, or a typed error.
// A run that returns unflagged wrong values (silent garbage) fails the
// sweep. Each case also asserts the armed site actually fired, so a site
// that drifts off the executed path fails loudly instead of rotting.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <new>
#include <vector>

#include "batched/batched.hpp"
#include "common/fault.hpp"
#include "core/svd.hpp"
#include "rsvd/rsvd.hpp"
#include "runtime/task_graph.hpp"
#include "test_harness.hpp"

namespace tbsvd {
namespace {

GesvdOptions sweep_opts() {
  GesvdOptions o;
  o.nb = 16;
  o.ge2bnd.ib = 8;
  o.ge2bnd.nthreads = 2;  // exercise the worker-thread propagation path
  return o;
}

// Outcome classification for one faulted pipeline run.
enum class Outcome { Success, Degraded, TypedError, SilentGarbage };

Outcome classify(const Matrix& A, const std::vector<double>& ref) {
  SvdInfo info;
  std::vector<double> sv;
  try {
    sv = gesvd_values(A.cview(), sweep_opts(), nullptr, &info);
  } catch (const invalid_argument_error&) {
    return Outcome::TypedError;
  } catch (const numerical_hazard_error&) {
    return Outcome::TypedError;
  } catch (const convergence_error&) {
    return Outcome::TypedError;
  } catch (const internal_error&) {
    return Outcome::TypedError;
  } catch (const std::bad_alloc&) {
    return Outcome::TypedError;
  }
  // No exception: the values must be correct, flagged or not.
  if (sv.size() != ref.size()) return Outcome::SilentGarbage;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    if (!std::isfinite(sv[i]) ||
        std::fabs(sv[i] - ref[i]) > 1e-9 * (1.0 + ref[0])) {
      return Outcome::SilentGarbage;
    }
  }
  return info.status == Status::Ok ? Outcome::Success : Outcome::Degraded;
}

// batched.* sites live in the batch serving layer, not the dense driver, so
// they sweep through batched::svd. The contract is the per-problem form of
// the same fail-safe rule: exactly one problem takes the injected fault as
// a typed report (which worker reaches the site first is scheduling-
// dependent), and every other problem completes with correct values.
Outcome classify_batched(const Matrix& A, const std::vector<double>& ref) {
  const std::vector<ConstMatrixView> probs = {A.cview(), A.cview()};
  batched::BatchOptions bo;
  bo.nthreads = 2;
  batched::SvdBatchResult res;
  try {
    res = batched::svd<double>(probs, bo);
  } catch (const internal_error&) {
    return Outcome::TypedError;  // infrastructure failure propagates typed
  }
  int poisoned = 0;
  for (std::size_t p = 0; p < probs.size(); ++p) {
    if (!res.reports[p].ok()) {
      ++poisoned;
      if (res.reports[p].status != Status::NumericalHazard) {
        return Outcome::SilentGarbage;
      }
      continue;
    }
    if (res.values[p].size() != ref.size()) return Outcome::SilentGarbage;
    for (std::size_t i = 0; i < ref.size(); ++i) {
      if (!std::isfinite(res.values[p][i]) ||
          std::fabs(res.values[p][i] - ref[i]) > 1e-9 * (1.0 + ref[0])) {
        return Outcome::SilentGarbage;
      }
    }
  }
  return poisoned == 1 ? Outcome::TypedError : Outcome::SilentGarbage;
}

bool batched_site(const char* site) {
  return std::strncmp(site, "batched.", 8) == 0;
}

// rsvd.* sites live in the randomized range-finder, so they sweep through
// gesvd_truncated. The run is deterministic from the fixed seed, so the
// no-exception branch compares against an unfaulted reference run computed
// before arming. Contract for the catalogued site: the poisoned sketch is
// caught by the TSQR input scan and surfaces as a typed
// numerical_hazard_error, never as a quietly wrong basis.
bool rsvd_site(const char* site) {
  return std::strncmp(site, "rsvd.", 5) == 0;
}

GesvdTruncatedOptions rsvd_sweep_opts() {
  GesvdTruncatedOptions o;
  o.nb = 16;
  o.ib = 8;
  o.nthreads = 2;
  return o;
}

std::vector<double> rsvd_ref(const Matrix& A) {
  return gesvd_truncated(A.cview(), 8, rsvd_sweep_opts()).values;
}

Outcome classify_rsvd(const Matrix& A, const std::vector<double>& rref) {
  TruncatedSvd r;
  try {
    r = gesvd_truncated(A.cview(), 8, rsvd_sweep_opts());
  } catch (const invalid_argument_error&) {
    return Outcome::TypedError;
  } catch (const numerical_hazard_error&) {
    return Outcome::TypedError;
  } catch (const convergence_error&) {
    return Outcome::TypedError;
  } catch (const internal_error&) {
    return Outcome::TypedError;
  } catch (const std::bad_alloc&) {
    return Outcome::TypedError;
  }
  if (r.values.size() != rref.size()) return Outcome::SilentGarbage;
  for (std::size_t i = 0; i < rref.size(); ++i) {
    if (!std::isfinite(r.values[i]) ||
        std::fabs(r.values[i] - rref[i]) > 1e-9 * (1.0 + rref[0])) {
      return Outcome::SilentGarbage;
    }
  }
  return r.info.status == Status::Ok ? Outcome::Success : Outcome::Degraded;
}

TEST(FaultSweep, EverySiteFailsSafe) {
  const Matrix A = test::random_matrix(48, 32, 1337);
  const std::vector<double> ref = gesvd_values(A.cview(), sweep_opts());
  const std::vector<double> rref = rsvd_ref(A);

  for (const char* site : fault::all_sites()) {
    SCOPED_TRACE(site);
    fault::Scoped armed(site);
    const Outcome out = batched_site(site) ? classify_batched(A, ref)
                        : rsvd_site(site)  ? classify_rsvd(A, rref)
                                           : classify(A, ref);
    EXPECT_TRUE(fault::fired())
        << "armed site was never reached by the pipeline";
    EXPECT_NE(out, Outcome::SilentGarbage)
        << "fault produced unflagged wrong values";
  }
}

// Pin the per-site contract: which sites merely degrade and which must
// throw (and with what), so a behavior change is a reviewed decision
// rather than an accident.
TEST(FaultSweep, SiteOutcomesMatchContract) {
  const Matrix A = test::random_matrix(48, 32, 4242);
  const std::vector<double> ref = gesvd_values(A.cview(), sweep_opts());

  struct Case {
    const char* site;
    Outcome expected;
  };
  const Case cases[] = {
      {"core.svd.poison_tile", Outcome::TypedError},     // ge2bnd scan
      {"kernels.geqrt.poison_nan", Outcome::TypedError}, // bd2val scan
      {"lac.qr_rec.alloc_fail", Outcome::TypedError},    // bad_alloc
      {"band.bnd2bd.poison_nan", Outcome::TypedError},   // bd2val scan
      {"band.bd2val.force_stall", Outcome::Degraded},    // Sturm fallback
      {"runtime.scheduler.task_fail", Outcome::TypedError},
      {"batched.problem_poison", Outcome::TypedError},   // typed report
      {"rsvd.sketch_poison", Outcome::TypedError},       // TSQR input scan
  };
  const std::vector<double> rref = rsvd_ref(A);
  for (const Case& c : cases) {
    SCOPED_TRACE(c.site);
    fault::Scoped armed(c.site);
    const Outcome out = batched_site(c.site) ? classify_batched(A, ref)
                        : rsvd_site(c.site)  ? classify_rsvd(A, rref)
                                             : classify(A, ref);
    EXPECT_EQ(out, c.expected);
    EXPECT_TRUE(fault::fired());
  }
}

TEST(FaultSweep, ForcedStallIsFlaggedAndCorrect) {
  const Matrix A = test::random_matrix(48, 32, 77);
  const std::vector<double> ref = gesvd_values(A.cview(), sweep_opts());
  fault::Scoped armed("band.bd2val.force_stall");
  SvdInfo info;
  const auto sv = gesvd_values(A.cview(), sweep_opts(), nullptr, &info);
  EXPECT_TRUE(info.bisection_fallback);
  EXPECT_EQ(info.status, Status::Degraded);
  ASSERT_EQ(sv.size(), ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_NEAR(sv[i], ref[i], 1e-9 * (1.0 + ref[0])) << "sv " << i;
  }
}

// The failure-propagation model the executor guarantees: a throwing task
// aborts the run, the first exception reaches the submitting thread, and
// no successor of the failed task executes.
TEST(FaultPropagation, WorkerExceptionReachesCaller) {
  fault::Scoped armed("runtime.scheduler.task_fail");
  TaskGraph g;
  int ran_successor = 0;
  double key = 0.0;
  g.submit("A", [] {}, {{&key, Access::Write}});
  g.submit("B", [&] { ran_successor = 1; }, {{&key, Access::Read}});
  EXPECT_THROW(g.run(2), internal_error);
  EXPECT_EQ(ran_successor, 0);
}

TEST(FaultPropagation, CallerExceptionTypeSurvivesThreads) {
  // A bad_alloc thrown inside a worker must arrive as bad_alloc, not be
  // flattened into a generic failure.
  fault::Scoped armed("lac.qr_rec.alloc_fail");
  const Matrix A = test::random_matrix(48, 32, 5);
  EXPECT_THROW(gesvd_values(A.cview(), sweep_opts()), std::bad_alloc);
}

TEST(FaultFramework, DisarmedSitesCostNothingObservable) {
  // With nothing armed, should_fire is false everywhere and counters stay
  // untouched — the pipeline runs identically to an unfaulted build.
  fault::disarm();
  EXPECT_FALSE(fault::should_fire("band.bd2val.force_stall"));
  EXPECT_FALSE(fault::fired());
  const Matrix A = test::random_matrix(32, 32, 9);
  SvdInfo info;
  const auto sv = gesvd_values(A.cview(), sweep_opts(), nullptr, &info);
  EXPECT_EQ(info.status, Status::Ok);
  EXPECT_EQ(sv.size(), 32u);
}

TEST(FaultFramework, TriggerHitCountsDeterministically) {
  fault::Scoped armed("band.bd2val.force_stall", 2);
  std::vector<double> d(8, 1.0), e(7, 0.25);
  Bd2valInfo i1;
  bd2val(d, e, {}, &i1);  // hit #1: does not fire
  EXPECT_FALSE(i1.bisection_fallback);
  EXPECT_EQ(fault::hits(), 1);
  Bd2valInfo i2;
  bd2val(d, e, {}, &i2);  // hit #2: fires
  EXPECT_TRUE(i2.bisection_fallback);
  EXPECT_TRUE(fault::fired());
}

TEST(FaultFramework, UnknownSiteIsRejected) {
  EXPECT_THROW(fault::arm("no.such.site"), invalid_argument_error);
}

}  // namespace
}  // namespace tbsvd
