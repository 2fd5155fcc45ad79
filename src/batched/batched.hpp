// Batched small-problem serving path: many independent small SVD / QR /
// least-squares solves per request, dispatched once across the task
// runtime's worker pool instead of paying per-problem driver setup.
//
// This is the "millions of users" workload shape from ROADMAP.md (cf. the
// GMLS/compadre exemplar batching thousands of small QR solves over a team
// pool): the per-problem kernels are the existing recursive panel
// factorization (lac/qr_rec) and, for every SVD member whatever its size,
// the Chan staging (preQR through the recursive panel, one-stage GEBRD,
// BD2VAL; baseline/chan). A member runs on one worker, where the tiled
// two-stage pipeline has no parallelism to expose and measured slower at
// every size (docs/PERF.md). The batch layer amortizes what a
// one-at-a-time loop pays per problem — workspace allocation (one arena
// per worker, sized once for the batch's max extents) and scheduler
// dispatch (one TaskGraph run per batch, problems grouped into tasks
// across the Scheduler's workers).
//
// Fault contract (docs/ROBUSTNESS.md): failures are isolated per problem.
// A NaN input, a rank-deficient system, or an invalid view in problem i
// yields a typed ProblemReport for problem i — its neighbors complete
// normally and the batch call never throws for a data failure. Only
// batch-level misuse (mismatched array lengths, bad BatchOptions) throws
// invalid_argument_error, and an infrastructure failure inside the
// executor itself (e.g. the runtime.scheduler.task_fail injection site)
// still propagates typed, exactly as for single-problem runs. On a failed
// problem, in-place inputs (qr / gels) are left in an unspecified but
// owned state — never touching another problem's storage.
#pragma once

#include <string>
#include <vector>

#include "common/error.hpp"
#include "core/svd.hpp"
#include "lac/dense.hpp"

namespace tbsvd::batched {

struct BatchOptions {
  int nthreads = 1;  ///< Scheduler workers serving the batch (>= 1)
  /// Ignored: every SVD member runs untiled. Kept only because the frozen
  /// benchmark suite (bench/suite) prints BatchOptions{}.svd_nb in its
  /// config line; it goes with the next change to the benchmark.
  int svd_nb = 16;
};

/// Typed per-problem outcome. ok() mirrors SvdInfo::ok(): a Degraded solve
/// (e.g. Sturm fallback) still produced a correct result.
struct ProblemReport {
  Status status = Status::Ok;
  std::string message;  ///< non-empty when status is not Ok
  [[nodiscard]] bool ok() const noexcept {
    return status == Status::Ok || status == Status::Degraded;
  }
};

/// One in-place QR problem: A (m x n, any shape) is factored by the
/// recursive panel kernel — R in the upper triangle, the k = min(m, n)
/// Householder vectors below the diagonal — and Tm (>= k x k,
/// caller-allocated) receives the compact-WY T factor.
template <class T>
struct QrProblem {
  MatrixViewT<T> A;
  MatrixViewT<T> Tm;
};

/// One in-place least-squares problem min ||A x - b||_2: A (m x n, m >= n)
/// is overwritten by its QR factorization and the leading n rows of B
/// (m x nrhs) by the solution X (LAPACK dgels convention).
template <class T>
struct GelsProblem {
  MatrixViewT<T> A;
  MatrixViewT<T> B;
};

/// Batched singular values. values[i] holds problem i's spectrum
/// (descending, in double like the single-problem drivers) when
/// reports[i].ok(); infos[i] carries the per-problem SvdInfo diagnostics
/// (scaling, fallback).
struct SvdBatchResult {
  std::vector<std::vector<double>> values;
  std::vector<ProblemReport> reports;
  std::vector<SvdInfo> infos;
  [[nodiscard]] bool all_ok() const noexcept {
    for (const ProblemReport& r : reports) {
      if (!r.ok()) return false;
    }
    return true;
  }
};

/// Singular values of each problem (any shapes, mixed shapes allowed).
/// Each member is copied into the worker arena (wide problems transposed)
/// and solved there by chan_stage_values, so its spectrum is bitwise that
/// of chan_singular_values on the member (or its transpose). Inputs are
/// not modified.
template <class T>
SvdBatchResult svd(const std::vector<ConstMatrixViewT<T>>& problems,
                   const BatchOptions& opts = {});

/// In-place QR of each problem via geqrf_rec. Returns one report per
/// problem; inputs are scanned for non-finite entries first (a NaN problem
/// reports NumericalHazard instead of factoring to silent garbage).
template <class T>
std::vector<ProblemReport> qr(std::vector<QrProblem<T>>& problems,
                              const BatchOptions& opts = {});

/// In-place QR least squares for each problem. An exactly singular R
/// (rank-deficient A) reports NumericalHazard for that problem only.
template <class T>
std::vector<ProblemReport> gels(std::vector<GelsProblem<T>>& problems,
                                const BatchOptions& opts = {});

}  // namespace tbsvd::batched
