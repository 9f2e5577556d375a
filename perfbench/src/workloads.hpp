// workloads.hpp — the four workloads and the per-layer probes.
#pragma once

#include <string>
#include <vector>

#include "bench.hpp"

namespace pb {

struct Ctx {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::string daemon_bin;  ///< serve_daemon built from the same tree
  std::string work_dir;    ///< scratch files (sweep plans, journals)
  unsigned threads = 4;    ///< min(4, nproc)
};

/// One measured pass of a workload.
struct Pass {
  Report e2e;    ///< the gated end-to-end metrics (end_to_end_names())
  Report named;  ///< the workload's own metrics, under their own names
  Report layer;  ///< per-layer metrics observed in this pass's traffic
  std::size_t attempted = 0;
  std::size_t failed = 0;  ///< errors, rejections, timeouts, wrong answers
  std::size_t wrong = 0;   ///< wrong answers only
  std::vector<std::string> findings;
  std::vector<liquid3d::obs::TraceSpan> daemon_spans;

  void fail(const std::string& what, bool wrong_answer);
};

/// Runs one pass; `traced` turns on the benchmark's spans, daemon tracing
/// and the per-layer collection.
Pass run_workload(const Ctx& ctx, const std::string& workload, double seconds,
                  bool traced);

/// In-process probes of the layers, on the workload's own system; fills
/// only metrics `layer` does not have yet.
void probe_layers(const Ctx& ctx, Report& layer);

/// The workload names, in BENCHMARK.json order.
const std::vector<std::string>& workload_names();

}  // namespace pb
