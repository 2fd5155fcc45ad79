#include "batched/batched.hpp"

#include <algorithm>
#include <cstddef>
#include <new>

#include "band/bd2val.hpp"
#include "baseline/chan.hpp"
#include "common/check.hpp"
#include "common/fault.hpp"
#include "common/hazard.hpp"
#include "lac/blas.hpp"
#include "lac/gemm_microkernel.hpp"
#include "lac/householder.hpp"
#include "lac/qr_rec.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/task_graph.hpp"

namespace tbsvd::batched {

namespace {

/// Per-worker scratch, sized once per batch for the largest problem and
/// reused across every problem the worker serves. The carved regions cover
/// the batch layer's staging (a copy or transpose of the problem, the
/// preQR's T factor and R); `work` is the grow-once block-reflector
/// workspace larfb reuses across problems.
template <class T>
struct WorkerArena {
  tbsvd::detail::AlignedWorkspace<T> buf;
  MatrixT<T> work;
  T* stage = nullptr;
  T* tfac = nullptr;
  T* rbuf = nullptr;

  void carve(std::size_t stage_elems, std::size_t tfac_elems,
             std::size_t r_elems) {
    const std::size_t total = stage_elems + tfac_elems + r_elems;
    if (total == 0) return;
    T* p = buf.ensure(total);
    stage = p;
    tfac = p + stage_elems;
    rbuf = tfac + tfac_elems;
  }
};

/// Maps the in-flight exception of a failed problem to its typed report
/// fields. Must be called from inside a catch block.
Status classify_current_exception(std::string& msg) {
  try {
    throw;
  } catch (const invalid_argument_error& e) {
    msg = e.what();
    return Status::InvalidArgument;
  } catch (const numerical_hazard_error& e) {
    msg = e.what();
    return Status::NumericalHazard;
  } catch (const convergence_error& e) {
    msg = e.what();
    return Status::ConvergenceFailure;
  } catch (const internal_error& e) {
    msg = e.what();
    return Status::InternalError;
  } catch (const std::bad_alloc&) {
    msg = "allocation failure";
    return Status::InternalError;
  } catch (const std::exception& e) {
    msg = e.what();
    return Status::InternalError;
  } catch (...) {
    msg = "unknown exception";
    return Status::InternalError;
  }
}

/// Batch-level misuse throws (fault contract: only per-problem failures
/// are absorbed into reports). Validated before any early return so a bad
/// BatchOptions is rejected even for an empty batch.
void validate_opts(const BatchOptions& opts) {
  TBSVD_CHECK(opts.nthreads >= 1, "batched: nthreads must be >= 1");
}

/// Dispatches `solve(i, arena)` over the batch through the task runtime:
/// problems are grouped so each task amortizes scheduler overhead, tasks
/// carry no mutual dependencies (pure fan-out, stealable), and a throwing
/// problem is caught and reported without poisoning its task neighbors or
/// aborting the graph.
template <class T, class SolveOne>
void run_batch(std::size_t nproblems, const BatchOptions& opts,
               std::vector<WorkerArena<T>>& arenas,
               std::vector<ProblemReport>& reports, SolveOne&& solve) {
  if (nproblems == 0) return;
  // Several tasks per worker to steal, at most 64 problems per task.
  const std::size_t per_task = std::clamp<std::size_t>(
      nproblems / (static_cast<std::size_t>(opts.nthreads) * 8), 1, 64);

  TaskGraph g;
  for (std::size_t start = 0; start < nproblems; start += per_task) {
    const std::size_t end = std::min(nproblems, start + per_task);
    g.submit("batched_problems",
             [&arenas, &reports, &solve, start, end] {
               const int w = current_worker();
               WorkerArena<T>& ar = arenas[w >= 0 ? w : 0];
               for (std::size_t i = start; i < end; ++i) {
                 try {
                   solve(i, ar);
                 } catch (...) {
                   reports[i].status =
                       classify_current_exception(reports[i].message);
                 }
               }
             },
             {{&reports[start], Access::Write}});
  }
  g.run(opts.nthreads);
}

template <class T>
void check_view(const MatrixViewT<T>& v, const char* who) {
  // A 0-extent view (including a default-constructed one with ld == 0) is a
  // valid empty problem; only views whose data would actually be touched
  // must be well-formed.
  if (v.m < 0 || v.n < 0 ||
      (v.m > 0 && v.n > 0 && (v.ld < v.m || v.a == nullptr))) {
    throw invalid_argument_error(std::string(who) + ": invalid matrix view");
  }
}

template <class T>
void check_finite(ConstMatrixViewT<T> v, const char* who) {
  if (!all_finite<T>(v)) {
    throw numerical_hazard_error(std::string(who) +
                                 ": non-finite entry in input");
  }
}

}  // namespace

template <class T>
SvdBatchResult svd(const std::vector<ConstMatrixViewT<T>>& problems,
                   const BatchOptions& opts) {
  validate_opts(opts);
  const std::size_t np = problems.size();
  SvdBatchResult res;
  res.values.resize(np);
  res.reports.resize(np);
  res.infos.resize(np);
  if (np == 0) return res;

  // Arena extents over the whole batch: staging holds one problem in its
  // m >= n working orientation, tfac/rbuf the preQR's T factor and R.
  std::size_t stage_elems = 0, sq_elems = 0;
  for (const ConstMatrixViewT<T>& p : problems) {
    // Negative dims are a per-problem error reported from the solve lambda;
    // clamp here so a bad problem cannot distort the shared arena sizing.
    const std::size_t mw =
        static_cast<std::size_t>(std::max({p.m, p.n, 0}));
    const std::size_t nw =
        static_cast<std::size_t>(std::max(std::min(p.m, p.n), 0));
    stage_elems = std::max(stage_elems, mw * nw);
    sq_elems = std::max(sq_elems, nw * nw);
  }
  std::vector<WorkerArena<T>> arenas(opts.nthreads);
  for (WorkerArena<T>& ar : arenas) {
    ar.carve(stage_elems, sq_elems, sq_elems);
  }

  run_batch<T>(np, opts, arenas, res.reports,
               [&problems, &res](std::size_t i, WorkerArena<T>& ar) {
    if (TBSVD_FAULT_FIRE("batched.problem_poison")) {
      throw numerical_hazard_error(
          "injected fault: batched problem poisoned");
    }
    const ConstMatrixViewT<T>& p = problems[i];
    if (p.m < 0 || p.n < 0) {
      throw invalid_argument_error("batched::svd: invalid problem view");
    }
    if (p.m == 0 || p.n == 0) return;  // empty spectrum, report stays Ok
    if (p.ld < p.m || p.a == nullptr) {
      throw invalid_argument_error("batched::svd: invalid problem view");
    }

    // Every member goes direct through the Chan staging on an arena copy
    // in the m >= n orientation (the spectrum is transpose-invariant),
    // which the guard scales. On one worker the tiled pipeline's padding,
    // task setup and band detour cost more than they save at every member
    // size measured (docs/PERF.md).
    const int mw = std::max(p.m, p.n), nw = std::min(p.m, p.n);
    MatrixViewT<T> s(ar.stage, mw, nw, mw);
    const SafeScaling<T> guard(p, "batched::svd");
    if (p.m < p.n) {
      transpose<T>(p, s);
    } else {
      copy<T>(p, s);
    }
    guard.scale(s);
    Bd2valInfo bi;
    res.values[i] = guard.finish(
        chan_stage_values<T>(s, ar.tfac, ar.rbuf, {}, {}, &bi), bi,
        &res.infos[i]);
    res.reports[i].status = res.infos[i].status;
  });
  return res;
}

template <class T>
std::vector<ProblemReport> qr(std::vector<QrProblem<T>>& problems,
                              const BatchOptions& opts) {
  validate_opts(opts);
  const std::size_t np = problems.size();
  std::vector<ProblemReport> reports(np);
  if (np == 0) return reports;
  std::vector<WorkerArena<T>> arenas(opts.nthreads);

  run_batch<T>(np, opts, arenas, reports,
               [&problems](std::size_t i, WorkerArena<T>&) {
    if (TBSVD_FAULT_FIRE("batched.problem_poison")) {
      throw numerical_hazard_error(
          "injected fault: batched problem poisoned");
    }
    QrProblem<T>& p = problems[i];
    check_view(p.A, "batched::qr");
    const int k = std::min(p.A.m, p.A.n);
    if (k == 0) return;
    check_view(p.Tm, "batched::qr");
    if (p.Tm.m < k || p.Tm.n < k) {
      throw invalid_argument_error("batched::qr: T factor smaller than k x k");
    }
    check_finite<T>(p.A, "batched::qr");
    geqrf_rec<T>(p.A, p.Tm);
  });
  return reports;
}

template <class T>
std::vector<ProblemReport> gels(std::vector<GelsProblem<T>>& problems,
                                const BatchOptions& opts) {
  validate_opts(opts);
  const std::size_t np = problems.size();
  std::vector<ProblemReport> reports(np);
  if (np == 0) return reports;

  std::size_t tfac_elems = 0;
  int max_n = 0, max_nrhs = 0;
  for (const GelsProblem<T>& p : problems) {
    const std::size_t n = static_cast<std::size_t>(std::max(p.A.n, 0));
    tfac_elems = std::max(tfac_elems, n * n);
    max_n = std::max(max_n, p.A.n);
    max_nrhs = std::max(max_nrhs, p.B.n);
  }
  std::vector<WorkerArena<T>> arenas(opts.nthreads);
  for (WorkerArena<T>& ar : arenas) {
    ar.carve(0, tfac_elems, 0);
    // Pre-size the block-reflector workspace once so larfb never grows it
    // mid-batch.
    if (max_n > 0 && max_nrhs > 0) ar.work = MatrixT<T>(max_n, max_nrhs);
  }

  run_batch<T>(np, opts, arenas, reports,
               [&problems](std::size_t i, WorkerArena<T>& ar) {
    if (TBSVD_FAULT_FIRE("batched.problem_poison")) {
      throw numerical_hazard_error(
          "injected fault: batched problem poisoned");
    }
    GelsProblem<T>& p = problems[i];
    check_view(p.A, "batched::gels");
    check_view(p.B, "batched::gels");
    if (p.A.m < p.A.n) {
      throw invalid_argument_error("batched::gels: need m >= n");
    }
    if (p.B.m != p.A.m) {
      throw invalid_argument_error("batched::gels: B rows must match A rows");
    }
    const int n = p.A.n;
    if (n == 0) return;  // zero unknowns: X is empty
    check_finite<T>(p.A, "batched::gels");
    if (p.B.n > 0) check_finite<T>(p.B, "batched::gels");

    MatrixViewT<T> tf(ar.tfac, n, n, n);
    geqrf_rec<T>(p.A, tf);
    for (int j = 0; j < n; ++j) {
      if (p.A(j, j) == T(0)) {
        throw numerical_hazard_error(
            "batched::gels: exactly singular R (rank-deficient A)");
      }
    }
    if (p.B.n == 0) return;
    larfb<T>(Side::Left, Trans::Yes, p.A, tf, p.B, ar.work);
    trsm_left<T>(UpLo::Upper, Trans::No, Diag::NonUnit,
                 p.A.block(0, 0, n, n), p.B.block(0, 0, n, p.B.n));
  });
  return reports;
}

#define TBSVD_INSTANTIATE_BATCHED(T)                                       \
  template SvdBatchResult svd<T>(const std::vector<ConstMatrixViewT<T>>&,  \
                                 const BatchOptions&);                     \
  template std::vector<ProblemReport> qr<T>(std::vector<QrProblem<T>>&,    \
                                            const BatchOptions&);          \
  template std::vector<ProblemReport> gels<T>(std::vector<GelsProblem<T>>&, \
                                              const BatchOptions&);

TBSVD_INSTANTIATE_BATCHED(float)
TBSVD_INSTANTIATE_BATCHED(double)

#undef TBSVD_INSTANTIATE_BATCHED

}  // namespace tbsvd::batched
