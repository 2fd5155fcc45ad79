// GE2BND driver: executes a TileOp stream on a tiled matrix with the task
// runtime, reducing it to band bidiagonal form (upper bandwidth nb).
// Templated over the scalar type T in {float, double}; the op stream and
// runtime are precision-independent, only the tile kernels change.
#pragma once

#include <vector>

#include "core/alg_gen.hpp"
#include "core/tile_ops.hpp"
#include "kernels/tgrid.hpp"
#include "runtime/trace.hpp"
#include "tile/tile_matrix.hpp"

namespace tbsvd {

struct ExecOptions {
  int ib = 32;         ///< inner blocking of the tile kernels
  int nthreads = 1;    ///< worker threads (>= 1; 1 = submission order)
};

struct ExecResult {
  Trace trace;
  std::size_t ntasks = 0;
  double seconds = 0.0;
};

/// T-factor storage of one factorization (TS/TT x QR/LQ grids). Keep it
/// alive to replay the transforms afterwards (rsvd/tsqr.hpp does).
template <class T>
struct TFactorsT {
  TGridT<T> tqts, tqtt, tlts, tltt;
  TFactorsT() = default;
  TFactorsT(int mt, int nt, int ib, int nb)
      : tqts(mt, nt, ib, nb), tqtt(mt, nt, ib, nb),
        tlts(mt, nt, ib, nb), tltt(mt, nt, ib, nb) {}
};

using TFactors = TFactorsT<double>;

/// Execute an op stream in place on tiled A. T-factor storage is created
/// internally and discarded (singular values only, as in the paper's
/// GE2VAL experiments).
template <class T>
ExecResult execute_tile_ops(TileMatrixT<T>& A, const std::vector<TileOp>& ops,
                            const ExecOptions& opt);

/// As above, but keeping the T factors in caller-provided storage (must be
/// constructed as TFactorsT<T>(A.mt(), A.nt(), opt.ib, A.nb())).
template <class T>
ExecResult execute_tile_ops(TileMatrixT<T>& A, const std::vector<TileOp>& ops,
                            const ExecOptions& opt, TFactorsT<T>& tf);

enum class BidiagAlg { Bidiag, RBidiag, Auto };

struct Ge2bndOptions {
  TreeKind qr_tree = TreeKind::Greedy;
  TreeKind lq_tree = TreeKind::Greedy;
  BidiagAlg alg = BidiagAlg::Bidiag;
  /// Inner blocking; 0 resolves to the active calibration's tuned value
  /// (tune::resolved_ib) and to the historical 32 when none is loaded.
  int ib = 0;
  int nthreads = 1;
  double gamma = 2.0;  ///< Auto-tree parallelism target multiplier
};

/// Reduce tiled A (p >= q tile grid) to band bidiagonal form in place.
template <class T>
ExecResult ge2bnd(TileMatrixT<T>& A, const Ge2bndOptions& opt);

}  // namespace tbsvd
