#include "sim/batch_runner.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <tuple>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "common/memo_cache.hpp"
#include "obs/metrics.hpp"
#include "thermal/batch_stepper.hpp"

namespace liquid3d {

std::size_t BatchRunner::add(SimulationConfig cfg, Prepare prepare) {
  cells_.push_back({std::move(cfg), std::move(prepare)});
  return cells_.size() - 1;
}

std::size_t BatchRunner::chunk_count(std::size_t group_size, std::size_t threads) {
  const std::size_t by_width = (group_size + kMaxChunkWidth - 1) / kMaxChunkWidth;
  return std::min(group_size, std::max(threads, by_width));
}

std::vector<SimulationResult> BatchRunner::run(std::size_t threads) {
  LIQUID3D_REQUIRE(!cells_.empty(), "batch runner has no sessions");
  if (threads == 0) threads = ThreadPool::default_concurrency();

  // Lockstep compatibility: identical system matrix for every substep size
  // (topology fingerprint) and an identical tick structure (sampling
  // interval in the exact millisecond domain + substep count).  The
  // fingerprint needs only the model, not a session, so grouping builds no
  // member; a malformed stack throws here, on the calling thread.
  using GroupKey = std::tuple<std::uint64_t, std::int64_t, std::size_t>;
  std::map<GroupKey, std::vector<std::size_t>> groups;
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    const SimulationConfig& cfg = cells_[i].cfg;
    const ThermalModel3D probe(make_simulation_stack(cfg), cfg.thermal);
    groups[{probe.topology_fingerprint(), cfg.sampling_interval.as_ms(),
            cfg.thermal_substeps}]
        .push_back(i);
  }

  // Near-equal contiguous chunks per group, widest first so the longest
  // chunks start before the pool runs short of work.
  std::vector<std::vector<std::size_t>> chunks;
  for (const auto& [key, members] : groups) {
    const std::size_t n = chunk_count(members.size(), threads);
    std::size_t begin = 0;
    for (std::size_t c = 0; c < n; ++c) {
      const std::size_t end = begin + (members.size() - begin) / (n - c);
      chunks.emplace_back(members.begin() + static_cast<std::ptrdiff_t>(begin),
                          members.begin() + static_cast<std::ptrdiff_t>(end));
      begin = end;
    }
  }
  std::sort(chunks.begin(), chunks.end(), [](const auto& a, const auto& b) {
    return a.size() != b.size() ? a.size() > b.size() : a.front() < b.front();
  });

  // Batch observability: how many groups form and how wide the lockstep
  // chunks are is the whole economics of the shared-factorization path
  // (out of band — counters/histograms only).
  static obs::Counter& groups_c =
      obs::Registry::global().counter("liquid3d_batch_groups_total");
  static obs::Histogram& chunk_width_h =
      obs::Registry::global().histogram("liquid3d_batch_group_sessions");
  groups_c.add(groups.size());
  if (obs::enabled()) {
    for (const auto& chunk : chunks) {
      chunk_width_h.record_always(static_cast<double>(chunk.size()));
    }
  }

  std::vector<SimulationResult> results(cells_.size());
  std::vector<ChunkStats> stats(chunks.size());
  const auto run_one = [&](std::size_t c) { stats[c] = run_chunk(chunks[c], results); };
  if (threads == 1 || chunks.size() == 1) {
    for (std::size_t c = 0; c < chunks.size(); ++c) run_one(c);
  } else {
    ThreadPool pool(std::min(threads, chunks.size()));
    pool.parallel_for(0, chunks.size(), run_one);
  }

  group_count_ = groups.size();
  chunks_run_ = chunks.size();
  shared_solves_ = 0;
  solved_columns_ = 0;
  for (const ChunkStats& s : stats) {
    shared_solves_ += s.shared_solves;
    solved_columns_ += s.solved_columns;
  }
  cells_.clear();
  return results;
}

BatchRunner::ChunkStats BatchRunner::run_chunk(
    const std::vector<std::size_t>& idx, std::vector<SimulationResult>& results) {
  static obs::Histogram& step_h =
      obs::Registry::global().histogram("liquid3d_batch_step_seconds");

  // Members are built, then warm-started, on this worker.  Each init()
  // drops its reference to the warm-start factor, but the group's warm
  // starts all need the same one (one topology, one starting flow), so the
  // pin keeps it alive until the last member is initialized: built once and
  // shared with the other workers' chunks through the shared factor cache,
  // instead of once per member in every worker's arena.
  std::vector<std::unique_ptr<SimulationSession>> members;
  members.reserve(idx.size());
  for (const std::size_t i : idx) {
    members.push_back(std::make_unique<SimulationSession>(std::move(cells_[i].cfg)));
    if (cells_[i].prepare) cells_[i].prepare(*members.back());
  }
  {
    const InternPin warm_start_factors;
    for (const auto& s : members) s->init();
  }

  // Sessions may have different durations: finished members drop out of
  // the lockstep set and the rest keep sharing a (smaller) batch.
  BatchThermalStepper stepper;
  std::vector<SimulationSession*> active;
  std::vector<ThermalModel3D*> models;
  for (;;) {
    active.clear();
    for (const auto& s : members) {
      if (!s->done()) active.push_back(s.get());
    }
    if (active.empty()) break;
    for (SimulationSession* s : active) s->begin_tick();
    models.clear();
    for (SimulationSession* s : active) models.push_back(&s->thermal());
    const double sub_dt = active.front()->substep_dt();
    const std::size_t substeps = active.front()->substep_count();
    for (std::size_t sub = 0; sub < substeps; ++sub) {
      obs::ScopedTimer t(step_h);
      stepper.step(models, sub_dt);
    }
    for (SimulationSession* s : active) s->finish_tick();
  }

  for (std::size_t k = 0; k < idx.size(); ++k) results[idx[k]] = members[k]->result();
  return {stepper.shared_solves(), stepper.solved_columns()};
}

}  // namespace liquid3d
