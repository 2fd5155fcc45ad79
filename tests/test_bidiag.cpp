// End-to-end validation of the paper's core algorithms: tiled QR (HQR),
// BIDIAG and R-BIDIAG under every reduction tree, serial and parallel,
// checked against prescribed singular values (LATMS protocol) and the
// Jacobi oracle.
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "band/band_matrix.hpp"
#include "band/bnd2bd.hpp"
#include "core/alg_gen.hpp"
#include "core/ge2bnd.hpp"
#include "core/svd.hpp"
#include "lac/jacobi_svd.hpp"
#include "tile/matrix_gen.hpp"

namespace tbsvd {
namespace {

// Singular values of the band extracted from a reduced tiled matrix.
std::vector<double> band_singular_values(const TileMatrix& A) {
  BandMatrix band = band_from_tiles(A);
  return jacobi_singular_values(band.to_dense().cview());
}

void expect_spectra_match(const std::vector<double>& got,
                          const std::vector<double>& ref, double tol,
                          const char* what) {
  ASSERT_GE(got.size(), ref.size()) << what;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_NEAR(got[i], ref[i], tol) << what << " sv " << i;
  }
  // Any extra (padding) values must be ~0.
  for (std::size_t i = ref.size(); i < got.size(); ++i) {
    EXPECT_NEAR(got[i], 0.0, tol) << what << " padding sv " << i;
  }
}

struct Shape {
  int p, q, nb;
};

class BidiagP : public ::testing::TestWithParam<
                    std::tuple<TreeKind, Shape, BidiagAlg, int>> {};

TEST_P(BidiagP, SingularValuesPreserved) {
  const auto [tree, shape, alg, nthreads] = GetParam();
  const int m = shape.p * shape.nb, n = shape.q * shape.nb;

  Matrix A = generate_random(m, n, 17 + shape.p * 7 + shape.q);
  const auto ref = jacobi_singular_values(A.cview());

  TileMatrix tiled(m, n, shape.nb);
  tiled.from_dense(A.cview());

  Ge2bndOptions opt;
  opt.qr_tree = tree;
  opt.lq_tree = tree;
  opt.alg = alg;
  opt.ib = std::min(8, shape.nb);
  opt.nthreads = nthreads;
  ExecResult r = ge2bnd(tiled, opt);
  EXPECT_GT(r.ntasks, 0u);

  const auto got = band_singular_values(tiled);
  expect_spectra_match(got, ref, 1e-10 * (1.0 + ref[0]), "bidiag");
}

INSTANTIATE_TEST_SUITE_P(
    TreesShapesAlgs, BidiagP,
    ::testing::Combine(
        ::testing::Values(TreeKind::FlatTS, TreeKind::FlatTT,
                          TreeKind::Greedy, TreeKind::Auto),
        ::testing::Values(Shape{1, 1, 8}, Shape{2, 2, 8}, Shape{3, 3, 8},
                          Shape{4, 2, 8}, Shape{6, 2, 6}, Shape{8, 3, 4},
                          Shape{5, 5, 4}),
        ::testing::Values(BidiagAlg::Bidiag, BidiagAlg::RBidiag),
        ::testing::Values(1, 2)));

TEST(Bidiag, PrescribedSingularValuesRecovered) {
  // Full LATMS protocol: generate with known spectrum, reduce, compare.
  const int nb = 8, p = 4, q = 3;
  GenOptions gopt;
  gopt.profile = SvProfile::Geometric;
  gopt.cond = 1e4;
  std::vector<double> sv;
  Matrix A = generate_latms(p * nb, q * nb, gopt, sv);
  TileMatrix tiled(p * nb, q * nb, nb);
  tiled.from_dense(A.cview());
  Ge2bndOptions opt;
  opt.nthreads = 2;
  opt.ib = 4;
  ge2bnd(tiled, opt);
  const auto got = band_singular_values(tiled);
  for (std::size_t i = 0; i < sv.size(); ++i) {
    EXPECT_NEAR(got[i], sv[i], 1e-11) << "sv " << i;
  }
}

TEST(Bidiag, ParallelMatchesSerialBitwise) {
  // The runtime enforces sequential consistency, so the reduced band must
  // be bit-identical regardless of thread count, whatever order the
  // critical-path priorities pick among ready tasks. The op stream is
  // built once per case (the Auto tree's shape depends on ncores).
  const int nb = 8, p = 6, q = 4;
  Matrix A = generate_random(p * nb, q * nb, 55);
  for (bool rbidiag : {false, true}) {
    for (TreeKind tree : {TreeKind::FlatTS, TreeKind::FlatTT,
                          TreeKind::Greedy, TreeKind::Auto}) {
      AlgConfig cfg;
      cfg.qr_tree = cfg.lq_tree = tree;
      cfg.ncores = 4;
      const auto ops = rbidiag ? build_rbidiag_ops(p, q, cfg)
                               : build_bidiag_ops(p, q, cfg);
      auto run = [&](int nthreads) {
        TileMatrix t(p * nb, q * nb, nb);
        t.from_dense(A.cview());
        ExecOptions eo;
        eo.ib = 4;
        eo.nthreads = nthreads;
        execute_tile_ops(t, ops, eo);
        return t.to_dense();
      };
      const Matrix serial = run(1);
      for (int nthreads : {2, 4}) {
        const Matrix parallel = run(nthreads);
        for (int j = 0; j < serial.cols(); ++j)
          for (int i = 0; i < serial.rows(); ++i)
            ASSERT_EQ(serial(i, j), parallel(i, j))
                << tree_name(tree) << (rbidiag ? " R-BIDIAG " : " BIDIAG ")
                << nthreads << " threads (" << i << "," << j << ")";
      }
    }
  }

  // End to end: at n = 256, nb = 16 the 4-thread solve also runs BND2BD's
  // sweep pipeline (floor(256 / 48) = 5 >= 3 workers), and the spectrum
  // must still match the serial solve bit for bit.
  GenOptions gopt;
  gopt.profile = SvProfile::Geometric;
  std::vector<double> sv;
  const Matrix S = generate_latms(256, 256, gopt, sv);
  GesvdOptions opts;
  opts.nb = 16;
  const auto serial = gesvd_values(S.cview(), opts);
  opts.ge2bnd.nthreads = 4;
  const auto parallel = gesvd_values(S.cview(), opts);
  ASSERT_EQ(serial.size(), sv.size());
  ASSERT_EQ(parallel.size(), sv.size());
  for (std::size_t i = 0; i < sv.size(); ++i) {
    ASSERT_EQ(serial[i], parallel[i]) << "gesvd_values sv " << i;
    EXPECT_NEAR(serial[i], sv[i], 1e-11) << "sv " << i;
  }
}

class HqrP
    : public ::testing::TestWithParam<std::tuple<TreeKind, int, int>> {};

TEST_P(HqrP, TiledQrPreservesSpectrumAndTriangularizes) {
  const auto [tree, p, q] = GetParam();
  const int nb = 6;
  const int m = p * nb, n = q * nb;
  Matrix A = generate_random(m, n, 31 + p + q);
  const auto ref = jacobi_singular_values(A.cview());

  TileMatrix tiled(m, n, nb);
  tiled.from_dense(A.cview());
  AlgConfig cfg;
  cfg.qr_tree = tree;
  cfg.ncores = 2;
  auto ops = build_hqr_ops(p, q, cfg);
  ExecOptions eo;
  eo.ib = 3;
  eo.nthreads = 2;
  execute_tile_ops(tiled, ops, eo);

  // R = upper trapezoid (min(m,n) x n) of the factored matrix.
  Matrix D = tiled.to_dense();
  const int rrows = std::min(m, n);
  Matrix R(rrows, n);
  for (int j = 0; j < n; ++j)
    for (int i = 0; i <= std::min(j, rrows - 1); ++i) R(i, j) = D(i, j);
  const auto got = jacobi_singular_values(R.cview());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_NEAR(got[i], ref[i], 1e-10 * (1.0 + ref[0])) << "sv " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    TreesAndShapes, HqrP,
    ::testing::Combine(::testing::Values(TreeKind::FlatTS, TreeKind::FlatTT,
                                         TreeKind::Greedy, TreeKind::Auto),
                       ::testing::Values(1, 2, 4, 7),
                       ::testing::Values(1, 2)));

TEST(Hqr, DistributedHierarchicalTreeIsCorrect) {
  const int nb = 6, p = 8, q = 3;
  Matrix A = generate_random(p * nb, q * nb, 77);
  const auto ref = jacobi_singular_values(A.cview());
  TileMatrix tiled(p * nb, q * nb, nb);
  tiled.from_dense(A.cview());

  Distribution dist(3, 2);
  AlgConfig cfg;
  cfg.qr_tree = TreeKind::Greedy;
  cfg.lq_tree = TreeKind::Greedy;
  cfg.dist = &dist;
  auto ops = build_bidiag_ops(p, q, cfg);
  ExecOptions eo;
  eo.ib = 3;
  eo.nthreads = 2;
  execute_tile_ops(tiled, ops, eo);
  const auto got = band_singular_values(tiled);
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_NEAR(got[i], ref[i], 1e-10 * (1.0 + ref[0])) << "sv " << i;
  }
}

TEST(Gesvd, EndToEndPipelineRecoversPrescribedValues) {
  GenOptions gopt;
  gopt.profile = SvProfile::Arithmetic;
  gopt.cond = 100.0;
  std::vector<double> sv;
  Matrix A = generate_latms(48, 24, gopt, sv);

  GesvdOptions opts;
  opts.nb = 8;
  opts.ge2bnd.ib = 4;
  opts.ge2bnd.nthreads = 2;
  GesvdTimings timings;
  SvdInfo info;
  const auto got = gesvd_values(A.cview(), opts, &timings, &info);
  ASSERT_EQ(got.size(), sv.size());
  for (std::size_t i = 0; i < sv.size(); ++i) {
    EXPECT_NEAR(got[i], sv[i], 1e-11) << "sv " << i;
  }
  EXPECT_GT(info.ge2bnd_tasks, 0u);
  EXPECT_GE(timings.total(), 0.0);
}

TEST(Gesvd, NonTileMultipleShapesArePadded) {
  // 37 x 19 with nb = 8 exercises the padding path.
  GenOptions gopt;
  gopt.profile = SvProfile::Random;
  gopt.cond = 10.0;
  std::vector<double> sv;
  Matrix A = generate_latms(37, 19, gopt, sv);
  GesvdOptions opts;
  opts.nb = 8;
  opts.ge2bnd.ib = 8;
  opts.ge2bnd.alg = BidiagAlg::Auto;
  const auto got = gesvd_values(A.cview(), opts);
  ASSERT_EQ(got.size(), sv.size());
  for (std::size_t i = 0; i < sv.size(); ++i) {
    EXPECT_NEAR(got[i], sv[i], 1e-11) << "sv " << i;
  }
}

TEST(Gesvd, RbidiagAndBidiagAgree) {
  Matrix A = generate_random(64, 16, 88);
  GesvdOptions ob, orb;
  ob.nb = 8;
  ob.ge2bnd.alg = BidiagAlg::Bidiag;
  orb.nb = 8;
  orb.ge2bnd.alg = BidiagAlg::RBidiag;
  const auto sb = gesvd_values(A.cview(), ob);
  const auto srb = gesvd_values(A.cview(), orb);
  ASSERT_EQ(sb.size(), srb.size());
  for (std::size_t i = 0; i < sb.size(); ++i) {
    EXPECT_NEAR(sb[i], srb[i], 1e-10 * (1.0 + sb[0]));
  }
}

TEST(Gesvd, ZeroSentinelsResolveToBuiltInTileSizes) {
  // GesvdOptions{} (nb = 0, ib = 0, Auto tree, Auto algorithm) is bitwise
  // the explicit nb = 64, ib = 32, Auto/Auto solve; an explicit nb wins
  // over the default.
  EXPECT_EQ(GesvdOptions{}.ge2bnd.qr_tree, TreeKind::Auto);
  EXPECT_EQ(GesvdOptions{}.ge2bnd.lq_tree, TreeKind::Auto);
  EXPECT_EQ(GesvdOptions{}.ge2bnd.alg, BidiagAlg::Auto);
  const Matrix A = generate_random(96, 80, 11);
  GesvdOptions builtin;
  builtin.nb = 64;
  builtin.ge2bnd.ib = 32;
  builtin.ge2bnd.qr_tree = builtin.ge2bnd.lq_tree = TreeKind::Auto;
  builtin.ge2bnd.alg = BidiagAlg::Auto;
  SvdInfo i_default, i_builtin, i_small;
  const auto sv_default =
      gesvd_values(A.cview(), GesvdOptions{}, nullptr, &i_default);
  const auto sv_builtin = gesvd_values(A.cview(), builtin, nullptr, &i_builtin);
  ASSERT_EQ(sv_default.size(), sv_builtin.size());
  for (std::size_t i = 0; i < sv_default.size(); ++i) {
    EXPECT_EQ(sv_default[i], sv_builtin[i]) << "sv " << i;
  }
  EXPECT_EQ(i_default.ge2bnd_tasks, i_builtin.ge2bnd_tasks);
  GesvdOptions small;
  small.nb = 32;
  (void)gesvd_values(A.cview(), small, nullptr, &i_small);
  EXPECT_GT(i_small.ge2bnd_tasks, i_default.ge2bnd_tasks);
}

// The default Auto tree is sized from the tile grid, not from nthreads,
// so a default-option solve is bitwise the same at 1..4 threads. 2048x128
// f32 is a 32x2 grid on R-BIDIAG (FlatTS domains of 4 rows against 16 if
// the tree followed one thread); 384^2 f64 is a 6x6 grid on BIDIAG.
template <class T>
void expect_default_solve_thread_invariant(int m, int n, std::uint64_t seed) {
  SCOPED_TRACE(std::to_string(m) + "x" + std::to_string(n));
  const Matrix Ad = generate_random(m, n, seed);
  MatrixT<T> A(m, n);
  convert_matrix(Ad.cview(), A.view());
  GesvdOptions opts;
  SvdInfo serial_info;
  const auto serial = gesvd_values<T>(A.cview(), opts, nullptr, &serial_info);
  ASSERT_EQ(serial.size(), static_cast<std::size_t>(n));
  for (int t = 2; t <= 4; ++t) {
    opts.ge2bnd.nthreads = t;
    SvdInfo info;
    const auto got = gesvd_values<T>(A.cview(), opts, nullptr, &info);
    EXPECT_EQ(info.ge2bnd_tasks, serial_info.ge2bnd_tasks) << t << " threads";
    for (int i = 0; i < n; ++i) {
      ASSERT_EQ(got[i], serial[i]) << t << " threads, sv " << i;
    }
  }
}

TEST(Gesvd, DefaultOptionsThreadCountsMatchBitwise) {
  ASSERT_TRUE(prefer_rbidiag(2048 / 64, 128 / 64));
  ASSERT_FALSE(prefer_rbidiag(384 / 64, 384 / 64));
  expect_default_solve_thread_invariant<float>(2048, 128, 61);
  expect_default_solve_thread_invariant<double>(384, 384, 62);
}

TEST(AlgGen, OpCountsMatchClosedForms) {
  // FlatTS QR step k on u rows with t trailing columns:
  // 1 GEQRT + (u-1) TSQRT panels, t UNMQR + (u-1) t TSMQR updates.
  AlgConfig cfg;
  cfg.qr_tree = TreeKind::FlatTS;
  cfg.lq_tree = TreeKind::FlatTS;
  const int p = 5, q = 3;
  auto ops = build_hqr_ops(p, q, cfg);
  int geqrt = 0, tsqrt = 0, unmqr = 0, tsmqr = 0;
  for (const auto& o : ops) {
    if (o.op == Op::GEQRT) ++geqrt;
    if (o.op == Op::TSQRT) ++tsqrt;
    if (o.op == Op::UNMQR) ++unmqr;
    if (o.op == Op::TSMQR) ++tsmqr;
  }
  int exp_geqrt = 0, exp_tsqrt = 0, exp_unmqr = 0, exp_tsmqr = 0;
  for (int k = 0; k < q; ++k) {
    const int u = p - k, t = q - k - 1;
    exp_geqrt += 1;
    exp_tsqrt += u - 1;
    exp_unmqr += t;
    exp_tsmqr += (u - 1) * t;
  }
  EXPECT_EQ(geqrt, exp_geqrt);
  EXPECT_EQ(tsqrt, exp_tsqrt);
  EXPECT_EQ(unmqr, exp_unmqr);
  EXPECT_EQ(tsmqr, exp_tsmqr);
}

TEST(AlgGen, BidiagHasNoLqOnLastStep) {
  AlgConfig cfg;
  auto ops = build_bidiag_ops(3, 3, cfg);
  for (const auto& o : ops) {
    if (op_is_lq(o.op)) {
      EXPECT_LT(o.k, 2);
    }
  }
}

TEST(AlgGen, PreferRbidiagMatchesChanRatio) {
  EXPECT_FALSE(prefer_rbidiag(1, 1));
  EXPECT_FALSE(prefer_rbidiag(3, 2));
  EXPECT_TRUE(prefer_rbidiag(5, 3));
  EXPECT_TRUE(prefer_rbidiag(10, 3));
}

}  // namespace
}  // namespace tbsvd
