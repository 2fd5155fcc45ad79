// Symbolic tile operations: the BIDIAG / R-BIDIAG generators in alg_gen
// emit a stream of TileOp records; the runtime executor (ge2bnd) and the
// critical-path analyzer (cp/dag_analysis) both consume the *same* stream,
// so the executed DAG and the analyzed DAG are identical by construction.
#pragma once

#include <cstdint>
#include <vector>

#include "runtime/task_graph.hpp"

namespace tbsvd {

enum class Op : std::uint8_t {
  GEQRT, UNMQR, TSQRT, TSMQR, TTQRT, TTMQR,   // QR family (column panels)
  GELQT, UNMLQ, TSLQT, TSMLQ, TTLQT, TTMLQ,   // LQ family (row panels)
  LASET,                                      // zero a tile (R cleanup)
};

/// One tile operation.
///  QR ops: k = panel column; tgt = tile row factored/eliminated;
///          piv = pivot tile row (-1 for GEQRT/UNMQR); upd = updated column
///          (-1 for panel ops).
///  LQ ops: k = panel row; tgt = tile column; piv = pivot tile column;
///          upd = updated row.
///  LASET: tgt = tile row, k = tile column; upd = 0 zeroes the whole tile,
///         upd = 1 zeroes the strictly-lower part. Used by R-BIDIAG to
///         clear dead Householder data out of the R factor between the QR
///         phase and the bidiagonalization phase.
struct TileOp {
  Op op;
  int k;
  int piv;
  int tgt;
  int upd;
};

[[nodiscard]] const char* op_name(Op op) noexcept;

/// Cost in units of nb^3/3 flops (paper Table I).
[[nodiscard]] double op_weight_units(Op op) noexcept;

/// Panel ops (factor/eliminate) vs update ops.
[[nodiscard]] bool op_is_panel(Op op) noexcept;
[[nodiscard]] bool op_is_lq(Op op) noexcept;

/// Which conceptual grid a tile access belongs to: the matrix itself or one
/// of the four T-factor grids (TS/TT x QR/LQ).
enum class Grid : std::uint8_t { A, Tqts, Tqtt, Tlts, Tltt };

/// Dependency region within an A-tile. A factored tile holds two live
/// objects — the triangular factor (diagonal + one strict triangle) and the
/// Householder vectors (the other strict triangle) — which different kernels
/// touch independently. Tracking them separately removes false WAR edges
/// (e.g. TTQRT writing R while UNMQR still reads V), exactly as DPLASMA's
/// data-flow description does; the paper's per-step critical-path formulas
/// hold only under this region-level model. T-factor tiles are monolithic
/// (Part::Diag).
enum class Part : std::uint8_t { Diag, Upper, Lower };

struct TileAccess {
  Grid grid;
  int i;
  int j;
  Part part;
  Access access;
};

/// The data-access contract of `op` — the single source of truth shared by
/// the executor and the analyzer. Appends to `out` (not cleared).
void op_accesses(const TileOp& op, std::vector<TileAccess>& out);

/// Tile row written by this op in grid A that determines its owner node
/// under a 2D block-cyclic distribution (owner-compute rule: the task runs
/// where its output tile lives).
void op_output_tile(const TileOp& op, int& i, int& j) noexcept;

}  // namespace tbsvd
