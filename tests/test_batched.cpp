// Batched serving path (src/batched): per-problem correctness against the
// single-problem kernels and the Jacobi oracle, determinism across thread
// counts, and the fault contract — one bad problem in a batch yields a
// typed per-problem status and never poisons its neighbors or aborts the
// batch (docs/ROBUSTNESS.md).
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "batched/batched.hpp"
#include "common/fault.hpp"
#include "lac/jacobi_svd.hpp"
#include "lac/qr_rec.hpp"
#include "test_harness.hpp"

namespace tbsvd {
namespace {

// Mixed small shapes: square, tall (R-first trigger at m > 2n), wide
// (transposed staging), degenerate edges.
const std::vector<std::pair<int, int>>& shapes() {
  static const std::vector<std::pair<int, int>> s = {
      {8, 8}, {16, 12}, {12, 16}, {48, 12}, {5, 37}, {1, 1}, {7, 1}, {1, 6}};
  return s;
}

template <class T>
std::vector<MatrixT<T>> make_problems(std::uint64_t seed0) {
  std::vector<MatrixT<T>> mats;
  std::uint64_t seed = seed0;
  for (const auto& [m, n] : shapes()) {
    mats.push_back(test::random_matrix<T>(m, n, seed++));
  }
  return mats;
}

template <class T>
class BatchedT : public ::testing::Test {};
using Scalars = ::testing::Types<double, float>;
TYPED_TEST_SUITE(BatchedT, Scalars);

TYPED_TEST(BatchedT, QrMatchesDirectRecursivePanel) {
  using T = TypeParam;
  for (int threads : {1, 4}) {
    auto mats = make_problems<T>(100);
    std::vector<MatrixT<T>> tfs;
    std::vector<batched::QrProblem<T>> probs;
    for (auto& a : mats) {
      const int k = std::min(a.rows(), a.cols());
      tfs.emplace_back(std::max(k, 1), std::max(k, 1));
    }
    for (std::size_t i = 0; i < mats.size(); ++i) {
      probs.push_back({mats[i].view(), tfs[i].view()});
    }
    batched::BatchOptions opts;
    opts.nthreads = threads;
    const auto reports = batched::qr<T>(probs, opts);
    ASSERT_EQ(reports.size(), mats.size());

    // Each problem runs single-threaded through the same code path as a
    // direct geqrf_rec call, so the results match exactly.
    auto ref = make_problems<T>(100);
    for (std::size_t i = 0; i < ref.size(); ++i) {
      SCOPED_TRACE(i);
      EXPECT_TRUE(reports[i].ok()) << reports[i].message;
      const int k = std::min(ref[i].rows(), ref[i].cols());
      MatrixT<T> tf(std::max(k, 1), std::max(k, 1));
      if (k > 0) geqrf_rec<T>(ref[i].view(), tf.view());
      for (int j = 0; j < ref[i].cols(); ++j) {
        for (int r = 0; r < ref[i].rows(); ++r) {
          EXPECT_EQ(mats[i](r, j), ref[i](r, j)) << r << "," << j;
        }
      }
    }
  }
}

TYPED_TEST(BatchedT, SvdMatchesJacobiOracle) {
  using T = TypeParam;
  const auto mats = make_problems<T>(200);
  std::vector<ConstMatrixViewT<T>> views;
  for (const auto& a : mats) views.push_back(a.cview());
  batched::BatchOptions opts;
  opts.nthreads = 2;
  const batched::SvdBatchResult res = batched::svd<T>(views, opts);
  ASSERT_EQ(res.values.size(), mats.size());
  EXPECT_TRUE(res.all_ok());
  for (std::size_t i = 0; i < mats.size(); ++i) {
    SCOPED_TRACE(i);
    const auto ref = jacobi_singular_values<T>(mats[i].cview());
    ASSERT_EQ(res.values[i].size(), ref.size());
    const double tol =
        test::tol_eps<T>(500.0) * (1.0 + (ref.empty() ? 0.0 : ref[0]));
    for (std::size_t k = 0; k < ref.size(); ++k) {
      EXPECT_NEAR(res.values[i][k], ref[k], tol) << "sv " << k;
    }
  }
}

TYPED_TEST(BatchedT, SvdDeterministicAcrossThreadCounts) {
  using T = TypeParam;
  const auto mats = make_problems<T>(300);
  std::vector<ConstMatrixViewT<T>> views;
  for (const auto& a : mats) views.push_back(a.cview());
  batched::BatchOptions o1, o4;
  o1.nthreads = 1;
  o4.nthreads = 4;
  o4.chunk = 1;  // maximal interleaving across workers
  const auto r1 = batched::svd<T>(views, o1);
  const auto r4 = batched::svd<T>(views, o4);
  ASSERT_EQ(r1.values.size(), r4.values.size());
  for (std::size_t i = 0; i < r1.values.size(); ++i) {
    ASSERT_EQ(r1.values[i].size(), r4.values[i].size()) << i;
    for (std::size_t k = 0; k < r1.values[i].size(); ++k) {
      EXPECT_EQ(r1.values[i][k], r4.values[i][k]) << i << "," << k;
    }
  }
}

TYPED_TEST(BatchedT, NanProblemIsIsolated) {
  using T = TypeParam;
  auto mats = make_problems<T>(400);
  mats[2](1, 1) = std::numeric_limits<T>::quiet_NaN();
  std::vector<ConstMatrixViewT<T>> views;
  for (const auto& a : mats) views.push_back(a.cview());
  batched::BatchOptions opts;
  opts.nthreads = 4;
  const auto res = batched::svd<T>(views, opts);
  for (std::size_t i = 0; i < mats.size(); ++i) {
    SCOPED_TRACE(i);
    if (i == 2) {
      EXPECT_EQ(res.reports[i].status, Status::NumericalHazard);
      EXPECT_FALSE(res.reports[i].message.empty());
      EXPECT_TRUE(res.values[i].empty());
    } else {
      EXPECT_TRUE(res.reports[i].ok()) << res.reports[i].message;
      const auto ref = jacobi_singular_values<T>(mats[i].cview());
      ASSERT_EQ(res.values[i].size(), ref.size());
      const double tol =
          test::tol_eps<T>(500.0) * (1.0 + (ref.empty() ? 0.0 : ref[0]));
      for (std::size_t k = 0; k < ref.size(); ++k) {
        EXPECT_NEAR(res.values[i][k], ref[k], tol);
      }
    }
  }
}

TYPED_TEST(BatchedT, InvalidViewIsIsolatedInvalidArgument) {
  using T = TypeParam;
  auto mats = make_problems<T>(450);
  std::vector<ConstMatrixViewT<T>> views;
  for (const auto& a : mats) views.push_back(a.cview());
  views[1] = ConstMatrixViewT<T>(nullptr, 4, 4, 4);  // null data, real dims
  const auto res = batched::svd<T>(views);
  EXPECT_EQ(res.reports[1].status, Status::InvalidArgument);
  for (std::size_t i = 0; i < views.size(); ++i) {
    if (i != 1) {
      EXPECT_TRUE(res.reports[i].ok()) << i;
    }
  }
}

TYPED_TEST(BatchedT, GelsSolvesExactSystems) {
  using T = TypeParam;
  const int nrhs = 3;
  std::vector<MatrixT<T>> as, bs, xs;
  std::uint64_t seed = 500;
  for (const auto& [m, n] : std::vector<std::pair<int, int>>{
           {8, 8}, {24, 10}, {13, 13}, {40, 7}}) {
    MatrixT<T> a = test::random_matrix<T>(m, n, seed++);
    for (int j = 0; j < n; ++j) a(j, j) += T(4);  // keep it well-conditioned
    MatrixT<T> x = test::random_matrix<T>(n, nrhs, seed++);
    MatrixT<T> b = test::mul<T>(a.cview(), x.cview());
    as.push_back(std::move(a));
    xs.push_back(std::move(x));
    bs.push_back(std::move(b));
  }
  std::vector<batched::GelsProblem<T>> probs;
  for (std::size_t i = 0; i < as.size(); ++i) {
    probs.push_back({as[i].view(), bs[i].view()});
  }
  batched::BatchOptions opts;
  opts.nthreads = 2;
  const auto reports = batched::gels<T>(probs, opts);
  for (std::size_t i = 0; i < as.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_TRUE(reports[i].ok()) << reports[i].message;
    const int n = xs[i].rows();
    // b = A x exactly, so the LS solution recovers x to O(eps * cond).
    const double tol = test::tol_eps<T>(5000.0) *
                       (1.0 + norm_max<T>(xs[i].cview()));
    for (int j = 0; j < nrhs; ++j) {
      for (int r = 0; r < n; ++r) {
        EXPECT_NEAR(double(bs[i](r, j)), double(xs[i](r, j)), tol)
            << r << "," << j;
      }
    }
  }
}

TYPED_TEST(BatchedT, GelsRankDeficientIsolated) {
  using T = TypeParam;
  std::vector<MatrixT<T>> as, bs;
  for (int i = 0; i < 3; ++i) {
    MatrixT<T> a = test::random_matrix<T>(10, 4, 600 + i);
    for (int j = 0; j < 4; ++j) a(j, j) += T(4);
    as.push_back(std::move(a));
    bs.push_back(test::random_matrix<T>(10, 2, 700 + i));
  }
  // Problem 1: column 2 is exactly zero -> R(2, 2) == 0.
  for (int r = 0; r < 10; ++r) as[1](r, 2) = T(0);
  std::vector<batched::GelsProblem<T>> probs;
  for (std::size_t i = 0; i < as.size(); ++i) {
    probs.push_back({as[i].view(), bs[i].view()});
  }
  const auto reports = batched::gels<T>(probs);
  EXPECT_EQ(reports[1].status, Status::NumericalHazard);
  EXPECT_TRUE(reports[0].ok());
  EXPECT_TRUE(reports[2].ok());
  // The healthy neighbors' solutions are finite (actually solved).
  for (std::size_t i : {std::size_t{0}, std::size_t{2}}) {
    for (int j = 0; j < 2; ++j) {
      for (int r = 0; r < 4; ++r) {
        EXPECT_TRUE(std::isfinite(double(bs[i](r, j)))) << i;
      }
    }
  }
}

TYPED_TEST(BatchedT, EmptyBatchAndEmptyProblems) {
  using T = TypeParam;
  const std::vector<ConstMatrixViewT<T>> none;
  const auto res = batched::svd<T>(none);
  EXPECT_TRUE(res.values.empty());
  EXPECT_TRUE(res.all_ok());

  std::vector<ConstMatrixViewT<T>> empties = {ConstMatrixViewT<T>(),
                                              ConstMatrixViewT<T>()};
  const auto res2 = batched::svd<T>(empties);
  ASSERT_EQ(res2.values.size(), 2u);
  EXPECT_TRUE(res2.all_ok());
  EXPECT_TRUE(res2.values[0].empty());
}

TEST(BatchedFault, InjectedProblemFaultIsTypedAndIsolated) {
  // Deterministic single-worker run: the armed site fires on its 3rd
  // dynamic hit, i.e. problem index 2 of the serial sweep.
  auto mats = make_problems<double>(800);
  std::vector<ConstMatrixView> views;
  for (const auto& a : mats) views.push_back(a.cview());
  fault::Scoped armed("batched.problem_poison", 3);
  batched::BatchOptions opts;
  opts.nthreads = 1;
  const auto res = batched::svd<double>(views, opts);
  EXPECT_TRUE(fault::fired());
  int bad = 0;
  for (std::size_t i = 0; i < views.size(); ++i) {
    if (!res.reports[i].ok()) {
      ++bad;
      EXPECT_EQ(i, 2u);
      EXPECT_EQ(res.reports[i].status, Status::NumericalHazard);
    }
  }
  EXPECT_EQ(bad, 1);
}

TEST(BatchedFault, SchedulerInfrastructureFailureStaysTyped) {
  // A failure of the executor itself (not of a problem) is not absorbed
  // into per-problem reports: it propagates typed to the batch caller,
  // exactly like single-problem runs (docs/ROBUSTNESS.md).
  auto mats = make_problems<double>(900);
  std::vector<ConstMatrixView> views;
  for (const auto& a : mats) views.push_back(a.cview());
  fault::Scoped armed("runtime.scheduler.task_fail");
  batched::BatchOptions opts;
  opts.nthreads = 2;
  EXPECT_THROW(batched::svd<double>(views, opts), internal_error);
}

TEST(Batched, BatchLevelMisuseThrows) {
  std::vector<ConstMatrixView> views;
  batched::BatchOptions bad;
  bad.nthreads = 0;
  EXPECT_THROW(batched::svd<double>(views, bad), invalid_argument_error);
}

}  // namespace
}  // namespace tbsvd
