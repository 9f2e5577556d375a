// catalog.cpp — every metric the benchmark's specification names, and where
// it is reported.  BENCHMARK.json gates only metrics that every workload
// reports, so the workload-specific headline numbers are folded into the
// generic work_per_s / latency_p50_ms / latency_tail_ms per workload and are
// also printed under their own names.
#include "bench.hpp"

namespace pb {

const std::vector<std::string>& end_to_end_names() {
  static const std::vector<std::string> names = {
      "setup_s", "peak_rss_mb", "work_per_s", "latency_p50_ms",
      "latency_tail_ms"};
  return names;
}

const std::vector<std::string>& per_layer_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> n = {
        "net.client_codec_us", "net.decode_us", "net.encode_us",
        "net.rtt_minus_service_us", "net.unattributed_us",
        "net.stage_sum_share", "net.admission_wait_us",
        "net.dispatch_wait_us", "net.rejected", "net.timed_out",
        "net.queue_hwm_window",
        "serve.steady_inproc_us", "serve.solve_rom_us", "serve.solve_full_us",
        "serve.rom_hit_ratio", "serve.rom_lookups", "serve.rom_builds",
        "serve.rom_fallbacks", "serve.model_evictions",
        "rom.evaluate_us", "rom.build_ms",
        "queue.mean_batch", "queue.max_batch", "queue.solo_fallbacks",
        "queue.session_wait_ms", "queue.session_solve_ms",
        "sim.begin_tick_us", "sim.advance_us", "sim.finish_tick_us",
        "sim.session_init_ms", "sim.batch_group_sessions",
        "control.characterize_ms",
        "thermal.step_us_2layer", "thermal.step_us_4layer",
        "thermal.assemble_us", "thermal.direct_solve_us",
        "thermal.factorizations", "thermal.factorize_ms",
        "thermal.steady_solve_ms", "thermal.solve_bytes",
        "sweep.plan_ms", "sweep.journal_append_ms", "sweep.merge_ms",
        "sweep.shard_imbalance", "sweep.cells_failed"};
    for (const std::string& e : end_to_end_names()) {
      n.push_back("obs.trace_overhead." + e);
    }
    return n;
  }();
  return names;
}

const std::vector<CatalogEntry>& metric_catalog() {
  static const std::vector<CatalogEntry> catalog = [] {
    const std::string gen =
        "workload-specific: BENCHMARK.json gates only metrics every "
        "workload reports, so it is printed under its own name and ";
    // steady-wire runs and prints everything but is not a gated workload:
    // its numbers flip between modes with host CPU steal and the daemon's
    // Nagle-held replies (see README.md).
    const std::string wire =
        "steady-wire metric, printed; steady-wire is not gated in "
        "BENCHMARK.json because its latency and throughput jump between "
        "runs on a shared host";
    std::vector<CatalogEntry> c = {
        {"setup_s", "end_to_end:setup_s", ""},
        {"fail_ratio", "dropped",
         "reads 0 on every workload and a gated metric must never read 0; "
         "the result line carries it as failed / attempted"},
        {"peak_rss_mb", "end_to_end:peak_rss_mb", ""},
        {"grid_sim_s_per_s", "end_to_end:work_per_s",
         gen + "gated as work_per_s on paper-grid"},
        {"steady_p50_us", "workload:steady-wire",
         wire + "; also reported (in ms) as its latency_p50_ms"},
        {"steady_p99_us", "workload:steady-wire",
         wire + "; its latency_tail_ms is the ROM-class p90, since about "
                "1 query in 20 waits behind a force_full solve"},
        {"steady_full_p50_us", "workload:steady-wire", wire},
        {"steady_max_qps", "workload:steady-wire",
         wire + "; its work_per_s is steady_closed_qps (4 closed-loop "
                "connections), steadier than the ladder's knee"},
        {"session_p50_ms", "end_to_end:latency_p50_ms",
         gen + "gated as latency_p50_ms on session-mix"},
        {"session_p95_ms", "end_to_end:latency_tail_ms",
         gen + "gated as latency_tail_ms on session-mix"},
        {"sessions_per_s", "end_to_end:work_per_s",
         gen + "gated as work_per_s on session-mix"},
        {"mixed_steady_p50_us", "workload:session-mix",
         gen + "not gated (no counterpart on the other workloads)"},
        {"mixed_steady_p99_us", "dropped",
         "needs 1000 samples; the steady class beside the sessions runs at "
         "20 q/s (about 400 samples a run), so mixed_steady_p95_us is printed "
         "instead"},
        {"mixed_steady_p95_us", "workload:session-mix",
         gen + "not gated (no counterpart on the other workloads)"},
        {"sweep_cells_per_s", "end_to_end:work_per_s",
         gen + "gated as work_per_s on sweep-4layer"},
        {"thermal.step_us", "per_layer",
         "reported per stack as thermal.step_us_2layer and "
         "thermal.step_us_4layer"},
        {"obs.trace_overhead", "per_layer",
         "reported per gated metric as obs.trace_overhead.<metric>, "
         "traced / untraced - 1 within one traced run"},
    };
    for (const std::string& n : per_layer_names()) {
      if (n.rfind("obs.trace_overhead.", 0) == 0 ||
          n.rfind("thermal.step_us_", 0) == 0) {
        continue;
      }
      c.push_back({n, "per_layer", ""});
    }
    return c;
  }();
  return catalog;
}

}  // namespace pb
