// Task runtime validation: superscalar semantics (parallel result == strict
// submission-order execution), stress tests on random task systems, trace
// integrity, and dependency-structure unit checks.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "runtime/task_graph.hpp"

namespace tbsvd {
namespace {

TEST(DepTracker, RawWarWaw) {
  DepTracker dt;
  std::vector<int> preds;
  const void* x = reinterpret_cast<const void*>(0x10);
  const void* y = reinterpret_cast<const void*>(0x20);

  // t0 writes x. t1 reads x (RAW on t0). t2 reads x (RAW on t0).
  // t3 writes x (WAR on t1,t2 + WAW on t0). t4 reads y (no deps).
  DataRef w_x{x, Access::Write};
  DataRef r_x{x, Access::Read};
  DataRef r_y{y, Access::Read};

  preds.clear();
  dt.register_task(0, &w_x, 1, preds);
  EXPECT_TRUE(preds.empty());
  preds.clear();
  dt.register_task(1, &r_x, 1, preds);
  EXPECT_EQ(preds, (std::vector<int>{0}));
  preds.clear();
  dt.register_task(2, &r_x, 1, preds);
  EXPECT_EQ(preds, (std::vector<int>{0}));
  preds.clear();
  dt.register_task(3, &w_x, 1, preds);
  EXPECT_EQ(preds, (std::vector<int>{0, 1, 2}));
  preds.clear();
  dt.register_task(4, &r_y, 1, preds);
  EXPECT_TRUE(preds.empty());
}

TEST(TaskGraph, SerialExecutionRunsAllInOrder) {
  TaskGraph g;
  std::vector<int> order;
  int x = 0;
  for (int i = 0; i < 10; ++i) {
    g.submit("t", [&order, i] { order.push_back(i); },
             {{&x, Access::ReadWrite}});
  }
  g.run_serial();
  ASSERT_EQ(order.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
  EXPECT_EQ(g.trace().events().size(), 10u);
}

TEST(TaskGraph, ChainExecutesSequentially) {
  // RW chain on one cell: result must be deterministic under any thread
  // count because every task depends on the previous one.
  for (int threads : {1, 2, 4}) {
    TaskGraph g;
    double cell = 1.0;
    for (int i = 0; i < 64; ++i) {
      g.submit("mul", [&cell, i] { cell = cell * 1.0001 + i; },
               {{&cell, Access::ReadWrite}});
    }
    g.run(threads);
    double ref = 1.0;
    for (int i = 0; i < 64; ++i) ref = ref * 1.0001 + i;
    EXPECT_EQ(cell, ref) << "threads=" << threads;
  }
}

TEST(TaskGraph, IndependentTasksAllRun) {
  TaskGraph g;
  std::vector<double> cells(200, 0.0);
  std::atomic<int> count{0};
  for (int i = 0; i < 200; ++i) {
    g.submit("set", [&cells, &count, i] {
      cells[i] = i * 2.0;
      count.fetch_add(1);
    }, {{&cells[i], Access::Write}});
  }
  g.run(4);
  EXPECT_EQ(count.load(), 200);
  for (int i = 0; i < 200; ++i) EXPECT_EQ(cells[i], i * 2.0);
}

// Random task systems: parallel execution must bit-exactly reproduce the
// submission-order (sequential-consistency) reference.
class RuntimeStressP : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RuntimeStressP, RandomGraphMatchesSerialReference) {
  const std::uint64_t seed = GetParam();
  constexpr int kCells = 23;
  constexpr int kTasks = 800;

  struct TaskSpec {
    std::vector<int> reads;
    std::vector<int> writes;
    int id;
  };
  Rng rng(seed);
  std::vector<TaskSpec> specs;
  specs.reserve(kTasks);
  for (int t = 0; t < kTasks; ++t) {
    TaskSpec s;
    s.id = t;
    const int nr = 1 + static_cast<int>(rng.below(3));
    const int nw = 1 + static_cast<int>(rng.below(2));
    for (int i = 0; i < nr; ++i)
      s.reads.push_back(static_cast<int>(rng.below(kCells)));
    for (int i = 0; i < nw; ++i)
      s.writes.push_back(static_cast<int>(rng.below(kCells)));
    specs.push_back(std::move(s));
  }

  auto run_with = [&](bool parallel, int threads) {
    std::vector<double> cells(kCells, 1.0);
    TaskGraph g;
    for (const auto& s : specs) {
      std::vector<DataRef> refs;
      for (int r : s.reads) refs.push_back({&cells[r], Access::Read});
      for (int w : s.writes) refs.push_back({&cells[w], Access::ReadWrite});
      g.submit("op", [&cells, &s] {
        double acc = 0.0;
        for (int r : s.reads) acc += cells[r];
        for (int w : s.writes) cells[w] = cells[w] * 0.99 + acc + s.id;
      }, refs);
    }
    if (parallel) {
      g.run(threads);
    } else {
      g.run_serial();
    }
    return cells;
  };

  const auto ref = run_with(false, 1);
  for (int threads : {2, 4}) {
    const auto got = run_with(true, threads);
    for (int c = 0; c < kCells; ++c) {
      EXPECT_EQ(got[c], ref[c]) << "cell " << c << " threads " << threads;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RuntimeStressP,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

TEST(TaskGraph, DiamondDependency) {
  // a -> (b, c) -> d: d must observe both b's and c's effects.
  TaskGraph g;
  double x = 0.0, y = 0.0, z = 0.0;
  g.submit("a", [&] { x = 5.0; }, {{&x, Access::Write}});
  g.submit("b", [&] { y = x + 1.0; },
           {{&x, Access::Read}, {&y, Access::Write}});
  g.submit("c", [&] { z = x + 2.0; },
           {{&x, Access::Read}, {&z, Access::Write}});
  double out = 0.0;
  g.submit("d", [&] { out = y * z; },
           {{&y, Access::Read}, {&z, Access::Read}, {&out, Access::Write}});
  g.run(3);
  EXPECT_EQ(out, 42.0);
}

TEST(TaskGraph, TraceCoversAllTasksOnce) {
  TaskGraph g;
  std::vector<double> cells(50, 0.0);
  for (int i = 0; i < 50; ++i) {
    g.submit("w", [&cells, i] { cells[i] = 1.0; },
             {{&cells[i], Access::Write}});
  }
  g.run(4);
  const auto& ev = g.trace().events();
  ASSERT_EQ(ev.size(), 50u);
  std::vector<bool> seen(50, false);
  for (const auto& e : ev) {
    ASSERT_GE(e.task_id, 0);
    ASSERT_LT(e.task_id, 50);
    EXPECT_FALSE(seen[e.task_id]) << "task traced twice";
    seen[e.task_id] = true;
    EXPECT_GE(e.t_end, e.t_start);
    EXPECT_GE(e.worker, 0);
    EXPECT_LT(e.worker, 4);
  }
  EXPECT_GT(g.trace().makespan(), 0.0);
  EXPECT_GT(g.trace().utilization(4), 0.0);
  EXPECT_LE(g.trace().utilization(4), 1.0 + 1e-9);
}

TEST(TaskGraph, ByKernelAggregation) {
  TaskGraph g;
  double a = 0, b = 0;
  g.submit("alpha", [&] { a += 1; }, {{&a, Access::ReadWrite}});
  g.submit("alpha", [&] { a += 1; }, {{&a, Access::ReadWrite}});
  g.submit("beta", [&] { b += 1; }, {{&b, Access::ReadWrite}});
  g.run_serial();
  auto stats = g.trace().by_kernel();
  EXPECT_EQ(stats["alpha"].count, 2);
  EXPECT_EQ(stats["beta"].count, 1);
}

// Hand-built DAGs as successor lists; ids are in topological order.
std::vector<double> ranks_of(const std::vector<double>& weight,
                             const std::vector<std::vector<int>>& succs) {
  return upward_ranks(weight, [&succs](int i) -> const std::vector<int>& {
    return succs[i];
  });
}

TEST(UpwardRank, ChainAccumulatesToTheSource) {
  // 0 -> 1 -> 2 with weights 4, 6, 2.
  const auto r = ranks_of({4, 6, 2}, {{1}, {2}, {}});
  EXPECT_EQ(r, (std::vector<double>{12, 8, 2}));
  EXPECT_EQ(rank_priorities(r),
            (std::vector<int>{1 << 20, (1 << 20) / 3 * 2, (1 << 20) / 6}));
}

TEST(UpwardRank, DiamondTakesTheHeavierBranch) {
  // 0 -> {1, 2} -> 3 with weights 4, 6, 12, 2: the rank of 0 follows the
  // weight-12 branch, and the heavier branch outranks the lighter one.
  const auto r = ranks_of({4, 6, 12, 2}, {{1, 2}, {3}, {3}, {}});
  EXPECT_EQ(r, (std::vector<double>{18, 8, 14, 2}));
  const std::vector<int> prio = rank_priorities(r);
  EXPECT_EQ(prio[0], 1 << 20);
  EXPECT_GT(prio[2], prio[1]);
  EXPECT_GT(prio[1], prio[3]);
}

TEST(UpwardRank, ZeroWeightTaskInheritsItsSuccessorsRank) {
  // A zero-weight clean-up task (like R-BIDIAG's LASET) between 0 and 2
  // adds nothing to the path; a zero-weight sink keeps rank 0.
  const auto r = ranks_of({2, 0, 6, 0}, {{1}, {2}, {3}, {}});
  EXPECT_EQ(r, (std::vector<double>{8, 6, 6, 0}));
  const std::vector<int> prio = rank_priorities(r);
  EXPECT_EQ(prio[1], prio[2]);
  EXPECT_EQ(prio[3], 0);
  EXPECT_EQ(rank_priorities({0, 0}), (std::vector<int>{0, 0}));
}

TEST(UpwardRank, TaskGraphRanksItsOwnSuccessors) {
  // The diamond again, as a submitted graph: prioritize_by_rank must read
  // the dependencies DepTracker derived, not the submission priorities.
  TaskGraph g;
  int a = 0, b = 0, c = 0;
  g.submit("top", [] {}, {{&a, Access::Write}}, 7);
  g.submit("left", [] {}, {{&a, Access::Read}, {&b, Access::Write}}, 7);
  g.submit("right", [] {}, {{&a, Access::Read}, {&c, Access::Write}}, 7);
  g.submit("sink", [] {}, {{&b, Access::Read}, {&c, Access::Read}}, 7);
  g.prioritize_by_rank({4, 6, 12, 2});
  const std::vector<int> want =
      rank_priorities(std::vector<double>{18, 8, 14, 2});
  for (int i = 0; i < 4; ++i) EXPECT_EQ(g.priority(i), want[i]) << i;
}

TEST(TaskGraph, CannotRunTwice) {
  TaskGraph g;
  int x = 0;
  g.submit("t", [&] { x = 1; }, {{&x, Access::Write}});
  g.run(1);
  EXPECT_THROW(g.run(1), invalid_argument_error);
}

}  // namespace
}  // namespace tbsvd
