// batch_runner.hpp — the one executor for many independent simulation
// cells: compatible cells advance in lockstep through one shared thermal
// factorization, and the lockstep chunks fan out over a worker pool.
//
// The evaluation grid of Sec. V is dozens of independent (policy x cooling
// x workload) cells over ONE stack geometry and ONE sampling interval.
// Their backward-Euler system matrices are identical, so running them in
// lockstep lets every thermal substep route all cells' RHS vectors through
// one cached banded Cholesky factor (BandedSpdMatrix::solve(span, nrhs))
// instead of streaming the same factor once per cell.
//
// Grouping is automatic: cells whose conduction topology
// (ThermalModel3D::topology_fingerprint()), sampling interval, and substep
// count agree form a group; anything else falls into its own group.  Each
// group is split into chunk_count(size, threads) near-equal chunks — never
// wider than kMaxChunkWidth, never fewer than the worker count — and every
// chunk steps in lockstep through its own BatchThermalStepper on one
// worker.  Scheduling, power, control, and metrics stay entirely
// per-session — only the inner linear solve is shared — and the multi-RHS
// kernel replicates single-RHS arithmetic per system, so results are
// BIT-IDENTICAL to serial Simulator::run() calls at any worker count
// (locked in by tests/test_session_batch.cpp and tests/test_experiment.cpp).
//
// Memory: a member holds only per-run state.  Members are built inside the
// worker that runs their chunk and freed when the chunk ends; each drops its
// warm-start factorization as init() returns (SimulationSession::init), and
// models of one topology share one conduction network.  Identical
// factorizations are shared across models (ThermalModel3D::matrix_for_dt),
// so the chunk leads of one group step through one transient factor, and a
// chunk pins its members' common warm-start factor only until its last
// member is initialized.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "sim/session.hpp"

namespace liquid3d {

class BatchRunner {
 public:
  /// Widest lockstep chunk the splitter forms.
  static constexpr std::size_t kMaxChunkWidth = 8;

  /// Per-member hook, run on the member's worker right after the session is
  /// built and before init() (e.g. to attach a trace callback).
  using Prepare = std::function<void(SimulationSession&)>;

  /// Enqueue one cell; returns its index (results come back in add order).
  std::size_t add(SimulationConfig cfg, Prepare prepare = {});

  /// Run every enqueued cell to completion on `threads` workers (0 =
  /// hardware concurrency, 1 = the calling thread) and return the results
  /// in add order.  Consumes the enqueued cells.  A member's exception
  /// propagates (the first one, once the running chunks have finished);
  /// there are no partial results.
  std::vector<SimulationResult> run(std::size_t threads = 1);

  /// Chunks a group of `group_size` compatible cells is split into:
  /// max(threads, ceil(size / kMaxChunkWidth)), capped at the group size.
  [[nodiscard]] static std::size_t chunk_count(std::size_t group_size,
                                               std::size_t threads);

  /// Compatibility groups and lockstep chunks formed by the last run().
  [[nodiscard]] std::size_t group_count() const { return group_count_; }
  [[nodiscard]] std::size_t chunks_run() const { return chunks_run_; }
  /// Shared multi-RHS solves issued by the last run(), and the single-model
  /// RHS columns routed through them (a serial run issues one solve per
  /// column).
  [[nodiscard]] std::uint64_t shared_solves() const { return shared_solves_; }
  [[nodiscard]] std::uint64_t solved_columns() const { return solved_columns_; }

 private:
  struct Cell {
    SimulationConfig cfg;
    Prepare prepare;
  };
  struct ChunkStats {
    std::uint64_t shared_solves = 0;
    std::uint64_t solved_columns = 0;
  };

  /// Build, init, lockstep-run, and free the members cells_[idx...].
  ChunkStats run_chunk(const std::vector<std::size_t>& idx,
                       std::vector<SimulationResult>& results);

  std::vector<Cell> cells_;
  std::size_t group_count_ = 0;
  std::size_t chunks_run_ = 0;
  std::uint64_t shared_solves_ = 0;
  std::uint64_t solved_columns_ = 0;
};

}  // namespace liquid3d
