// workloads.cpp — paper-grid, steady-wire, session-mix and sweep-4layer,
// plus the in-process probes that give the per-layer numbers.
//
// Every workload repeats its set-up three times and reports the median, so
// work moved into set-up shows in setup_s.  Each one checks its answers
// after the measured window; a wrong answer counts in `failed`.
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <optional>
#include <sstream>
#include <thread>

#include "obs/metrics.hpp"
#include "serve/net/client.hpp"
#include "serve/rom.hpp"
#include "serve/service.hpp"
#include "sim/characterization_cache.hpp"
#include "sim/experiment.hpp"
#include "sweep/journal.hpp"
#include "sweep/merge.hpp"
#include "sweep/plan.hpp"
#include "sweep/worker.hpp"
#include "workload/benchmarks.hpp"
#include "workloads.hpp"

namespace pb {

using namespace liquid3d;

void Pass::fail(const std::string& what, bool wrong_answer) {
  ++failed;
  if (wrong_answer) ++wrong;
  if (findings.size() < 20) findings.push_back(what);
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "paper-grid", "steady-wire", "session-mix", "sweep-4layer"};
  return names;
}

namespace {

// steady-wire latency is read at a light reference rate; the ladder below
// finds the rate where the daemon stops keeping up.  With 1-in-20 force_full
// solves at changing flows (1.6-8 ms each on the two dispatch workers) the
// daemon sustains ~2k q/s here, and no rate meets a 1 ms ROM-class p99, so
// the limit sits above one full solve: past it, queueing, not a single
// wait behind a full solve, sets the tail.
constexpr double kReferenceRate = 250.0;   // q/s
constexpr double kP99LimitUs = 20000.0;    // steady_max_qps p99 limit
constexpr double kMissLimit = 0.01;        // share rejected/failed per rung
// Steady queries beside the three session clients.  Both dispatch workers
// block on session futures, and the steady connection gets one round-robin
// turn per freed worker, so the daemon serves only ~40 steady q/s here: at
// 200 q/s (and even 50 q/s) its 8-slot admission rejects a large share of
// both classes.  20 q/s is the highest round rate that answers everything.
constexpr double kMixedSteadyRate = 20.0;  // q/s
constexpr double kSweepDurationS = 4.0;    // simulated s per sweep cell
constexpr std::size_t kSetups = 3;
constexpr std::size_t kBlocks = 9;  // slices a window is split into

double median_of(const std::vector<double>& v) {
  Dist d;
  for (double x : v) d.add(x);
  return d.pct(50.0);
}

double seconds_since(double t0) { return now_s() - t0; }

/// `<name>_count` / `<name>_sum` of a histogram in a Prometheus text.
std::pair<double, double> prom_hist(const std::string& text,
                                    const std::string& name) {
  double count = 0.0;
  double sum = 0.0;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) {
    if (line.rfind(name + "_count ", 0) == 0) {
      count = std::strtod(line.c_str() + name.size() + 7, nullptr);
    } else if (line.rfind(name + "_sum ", 0) == 0) {
      sum = std::strtod(line.c_str() + name.size() + 5, nullptr);
    }
  }
  return {count, sum};
}

struct SolverHists {
  std::pair<double, double> assemble, factorize, solve, group;
};

SolverHists read_hists(const std::string& text) {
  return {prom_hist(text, "liquid3d_solver_assemble_seconds"),
          prom_hist(text, "liquid3d_solver_factorize_seconds"),
          prom_hist(text, "liquid3d_solver_direct_solve_seconds"),
          prom_hist(text, "liquid3d_batch_group_sessions")};
}

/// Per-layer thermal/sim numbers from the obs histograms, as the
/// difference between two snapshots of one process's registry.
void hist_layers(Report& L, const SolverHists& a, const SolverHists& b,
                 const std::string& where) {
  const auto mean = [](const std::pair<double, double>& x,
                       const std::pair<double, double>& y) {
    const double n = y.first - x.first;
    return n > 0 ? (y.second - x.second) / n : 0.0;
  };
  const double n_asm = b.assemble.first - a.assemble.first;
  const double n_fac = b.factorize.first - a.factorize.first;
  const double n_sol = b.solve.first - a.solve.first;
  const double n_grp = b.group.first - a.group.first;
  const std::string note = "mean of the obs histogram in " + where;
  if (n_asm > 0) {
    L.set("thermal.assemble_us", mean(a.assemble, b.assemble) * 1e6, "us",
          static_cast<std::size_t>(n_asm), note);
  }
  if (n_sol > 0) {
    L.set("thermal.direct_solve_us", mean(a.solve, b.solve) * 1e6, "us",
          static_cast<std::size_t>(n_sol), note);
  }
  if (n_fac > 0) {
    L.set("thermal.factorize_ms", mean(a.factorize, b.factorize) * 1e3, "ms",
          static_cast<std::size_t>(n_fac), note);
    L.set("thermal.factorizations", n_fac, "count", 0, "count in " + where);
  }
  if (n_grp > 0) {
    L.set("sim.batch_group_sessions", mean(a.group, b.group), "sessions",
          static_cast<std::size_t>(n_grp), note);
  }
}

/// Daemon-side per-layer numbers: trace spans by query class, service and
/// wire counters.
void daemon_layers(Report& L, const std::vector<obs::TraceSpan>& spans,
                   const ServeStats& s) {
  const StageDists sd = stage_dists(spans);
  const auto span_metric = [&](const char* name, const char* cls,
                               const char* stage, double q, double scale,
                               const char* unit) {
    const auto c = sd.find(cls);
    if (c == sd.end()) return;
    const auto d = c->second.find(stage);
    if (d == c->second.end() || d->second.n() == 0) return;
    char note[96];
    std::snprintf(note, sizeof note, "p%g of daemon '%s' spans, %s class", q,
                  stage, cls);
    L.set(name, d->second.pct(q) * scale, unit, d->second.n(), note);
  };
  span_metric("net.decode_us", "rom", "decode", 50, 1.0, "us");
  span_metric("net.encode_us", "rom", "encode", 50, 1.0, "us");
  span_metric("net.admission_wait_us", "rom", "admission", 99, 1.0, "us");
  span_metric("net.dispatch_wait_us", "rom", "dispatch", 99, 1.0, "us");
  span_metric("serve.solve_rom_us", "rom", "solve", 50, 1.0, "us");
  span_metric("serve.solve_full_us", "full", "solve", 50, 1.0, "us");
  span_metric("queue.session_wait_ms", "session", "dispatch", 50, 1e-3, "ms");
  span_metric("queue.session_solve_ms", "session", "solve", 50, 1e-3, "ms");
  if (s.steady_queries > 0) {
    const std::size_t forced = s.full_solves - s.rom_fallbacks;
    const std::size_t lookups = s.steady_queries - forced;
    L.set("serve.rom_lookups", static_cast<double>(lookups), "count");
    L.set("serve.rom_hit_ratio",
          lookups > 0 ? static_cast<double>(s.rom_hits) / lookups : 0.0,
          "ratio", 0, "rom_hits / serve.rom_lookups (daemon lifetime)");
    L.set("serve.rom_builds", static_cast<double>(s.rom_builds), "count");
    L.set("serve.rom_fallbacks", static_cast<double>(s.rom_fallbacks), "count");
    L.set("serve.model_evictions", static_cast<double>(s.model_evictions),
          "count");
    L.set("net.rejected", static_cast<double>(s.wire_rejected), "count");
    L.set("net.timed_out", static_cast<double>(s.wire_timed_out), "count");
    L.set("net.queue_hwm_window", static_cast<double>(s.wire_queue_hwm_window),
          "count");
  }
  if (s.session_queries > 0 && s.batches > 0) {
    L.set("queue.mean_batch",
          static_cast<double>(s.batched_sessions) / s.batches, "sessions", 0,
          "batched_sessions / batches = " + std::to_string(s.batched_sessions) +
              " / " + std::to_string(s.batches));
    L.set("queue.max_batch", static_cast<double>(s.max_batch), "count");
    L.set("queue.solo_fallbacks", static_cast<double>(s.solo_fallbacks),
          "count");
  }
}

/// Serial wire queries against a traced daemon: client RTT vs the
/// in-process service time of the same query, and the part of each RTT no
/// daemon span covers.
void rtt_probe(const Endpoint& ep, const std::vector<SteadyQuery>& queries,
               ThermalService& local, Report& L) {
  ServeClient client(ep);
  Dist rtt;
  Dist inproc;
  Dist unattributed;
  Dist share;
  std::size_t used = 0;
  for (std::size_t i = 0; i < queries.size() && used < 200; ++i) {
    const SteadyQuery& q = queries[i];
    if (q.force_full) continue;
    ++used;
    double t = now_s();
    {
      BenchSpan span("serve.net/steady-rtt");
      (void)client.steady(q);
    }
    const double r_us = seconds_since(t) * 1e6;
    rtt.add(r_us);
    t = now_s();
    {
      BenchSpan span("serve/steady-inproc");
      (void)local.steady(q);
    }
    inproc.add(seconds_since(t) * 1e6);
    // The newest request tree in the daemon's ring is this query's.
    const std::vector<obs::TraceSpan> spans = client.trace(16);
    std::uint64_t trace = 0;
    for (const auto& s : spans) {
      if (s.stage == "request") trace = s.trace_id;
    }
    double stages_us = 0.0;
    for (const auto& s : spans) {
      if (s.trace_id == trace && s.stage != "request") {
        stages_us += static_cast<double>(s.end_ns - s.start_ns) * 1e-3;
      }
    }
    if (trace != 0) {
      unattributed.add(r_us - stages_us);
      share.add(stages_us / r_us);
    }
  }
  L.set("net.rtt_minus_service_us", rtt.pct(50) - inproc.pct(50), "us",
        rtt.n(), "p50 serial wire RTT minus p50 in-process steady, same queries");
  L.set("net.unattributed_us", unattributed.pct(50), "us", unattributed.n(),
        "p50 of RTT minus the daemon's decode/admission/dispatch/solve/encode");
  L.set("net.stage_sum_share", share.pct(50), "ratio", share.n(),
        "p50 of stage sum / RTT");
}

/// Warm an in-process service with the keys the daemon was warmed with,
/// in the same order: the reference the wire answers are compared against.
void warm_local(ThermalService& local, const SteadyMix& mix) {
  for (const SteadyQuery& q : mix.warm) (void)local.steady(q);
}

/// Steady answer checks: wire == in-process bit for bit on a seeded sample,
/// and each sampled ROM answer within its error estimate of a full solve.
void check_steady(const std::vector<SteadyQuery>& queries,
                  const std::vector<SteadyOutcome>& outcomes,
                  ThermalService& local, std::uint64_t seed,
                  std::size_t samples, Pass& p) {
  Rng rng(seed ^ 0xc4ec0003ULL);
  std::size_t full_checks = 0;
  for (std::size_t k = 0; k < samples && !outcomes.empty(); ++k) {
    const SteadyOutcome& o = outcomes[rng.below(outcomes.size())];
    if (!o.ok) continue;
    const SteadyQuery& q = queries[o.index];
    ++p.attempted;
    const SteadyAnswer ref = local.steady(q);
    if (!steady_identical(o.answer, ref)) {
      char buf[160];
      std::snprintf(buf, sizeof buf,
                    "wire steady answer differs from in-process (query %zu: "
                    "%.17g vs %.17g)",
                    o.index, o.answer.t_max_c, ref.t_max_c);
      p.fail(buf, true);
    }
    if (o.answer.used_rom && full_checks < samples / 4) {
      ++full_checks;
      ++p.attempted;
      SteadyQuery fq = q;
      fq.force_full = true;
      const SteadyAnswer full = local.steady(fq);
      // The force_full answer is itself exact only to its solver's
      // tolerance: ~1e-9 K for the direct liquid solve, steady_tolerance for
      // the pseudo-transient air solve.
      const double solver_tol = q.config.cooling == CoolingMode::kAir
                                    ? q.config.thermal.steady_tolerance
                                    : 1e-9;
      if (std::fabs(o.answer.t_max_c - full.t_max_c) >
          o.answer.estimated_error_c + solver_tol) {
        char buf[160];
        std::snprintf(buf, sizeof buf,
                      "ROM answer outside its error estimate (query %zu: "
                      "|%.6f - %.6f| > %.3g)",
                      o.index, o.answer.t_max_c, full.t_max_c,
                      o.answer.estimated_error_c);
        p.fail(buf, true);
      }
    }
  }
}

/// Set-up of a daemon workload: start the daemon and warm its ROM and
/// model keys (and, for sessions, its characterization cache).
std::unique_ptr<Daemon> start_warm_daemon(const Ctx& ctx, const SteadyMix& mix,
                                          bool sessions, bool traced) {
  BenchSpan span("serve.net/daemon-setup");
  auto d = std::make_unique<Daemon>(ctx.daemon_bin, traced);
  ServeClient client(d->endpoint());
  for (const SteadyQuery& q : mix.warm) (void)client.steady(q);
  if (sessions) {
    for (const ScenarioSpec& sc : paper_scenario_grid()) {
      WhatIfQuery w;
      w.scenario = sc.name;
      w.benchmark = table2_benchmarks().front().name;
      w.duration_s = 0.1;
      (void)client.what_if(w);
    }
  }
  return d;
}

void split_classes(const std::vector<SteadyOutcome>& outs, Dist& rom,
                   Dist& full, std::size_t& errors) {
  for (const SteadyOutcome& o : outs) {
    if (!o.ok) {
      ++errors;
    } else if (o.full) {
      full.add(o.latency_us);
    } else {
      rom.add(o.latency_us);
    }
  }
}

// ---------------------------------------------------------------------------

Pass paper_grid(const Ctx& ctx, double seconds, bool traced) {
  Pass p;
  const std::vector<ScenarioSpec> scenarios = paper_scenario_grid();
  const std::vector<BenchmarkSpec>& benches = table2_benchmarks();
  SuiteConfig cfg;
  cfg.layer_pairs = 1;
  cfg.worker_threads = ctx.threads;
  cfg.seed = ctx.seed;

  std::vector<double> setups;
  std::unique_ptr<ExperimentSuite> suite;
  for (std::size_t i = 0; i < kSetups; ++i) {
    const double t = now_s();
    BenchSpan span("control/characterize");
    suite = std::make_unique<ExperimentSuite>(cfg);
    for (const ScenarioSpec& sc : scenarios) {
      (void)suite->make_config(sc, benches.front());
    }
    setups.push_back(seconds_since(t));
  }

  const SolverHists before = read_hists(obs::Registry::global().prometheus());
  const double cells = static_cast<double>(scenarios.size() * benches.size());
  Dist pass_ms;
  std::vector<std::vector<PolicySummary>> passes;
  const double t0 = now_s();
  while (passes.empty() || seconds_since(t0) < seconds) {
    const double t = now_s();
    {
      BenchSpan span("sim/suite-run");
      passes.push_back(suite->run(scenarios, benches));
    }
    pass_ms.add(seconds_since(t) * 1e3);
    p.attempted += static_cast<std::size_t>(cells);
    if (passes.size() > 2) passes.erase(passes.begin() + 1);
  }
  // Rates from the median pass, so one pass slowed by the host does not
  // move them.
  const double sim_per_s = cells * cfg.duration.as_s() / (pass_ms.pct(50) * 1e-3);
  if (traced) {
    hist_layers(p.layer, before,
                read_hists(obs::Registry::global().prometheus()),
                "the benchmark process (paper grid)");
  }

  // Checks: every pass equals the first, and one seeded cell re-run solo
  // through SimulationSession is bit-identical to the grid's answer.
  const auto& first = passes.front();
  const auto& last = passes.back();
  for (std::size_t s = 0; s < first.size(); ++s) {
    for (std::size_t w = 0; w < first[s].per_workload.size(); ++w) {
      if (!results_bit_identical(first[s].per_workload[w],
                                 last[s].per_workload[w])) {
        p.fail("paper grid cell " + first[s].label + "/" +
                   first[s].per_workload[w].benchmark + " differs between passes",
               true);
      }
    }
  }
  Rng rng(ctx.seed ^ 0x9a9e0004ULL);
  const std::size_t s = rng.below(scenarios.size());
  const std::size_t w = rng.below(benches.size());
  ++p.attempted;
  SimulationResult solo;
  {
    BenchSpan span("sim/solo-check");
    solo = run_solo(suite->make_config(scenarios[s], benches[w]));
  }
  if (!results_bit_identical(solo, last[s].per_workload[w])) {
    p.fail("paper grid cell " + scenarios[s].name + "/" + benches[w].name +
               " differs from its solo SimulationSession re-run",
           true);
  }

  const double rss = self_peak_rss_mb();
  p.named.set("setup_s", median_of(setups), "s", setups.size());
  p.named.set("grid_sim_s_per_s", sim_per_s, "sim-s/s", pass_ms.n(),
              "56 cells x 60 s simulated over the median pass");
  p.named.set("peak_rss_mb", rss, "MB", 0, "benchmark process");
  p.e2e.set("setup_s", median_of(setups), "s", setups.size());
  p.e2e.set("peak_rss_mb", rss, "MB");
  p.e2e.set("work_per_s", sim_per_s, "1/s", pass_ms.n(),
            "grid_sim_s_per_s");
  p.e2e.set("latency_p50_ms", pass_ms.pct(50), "ms", pass_ms.n(),
            "wall time of one ExperimentSuite::run over the grid");
  p.e2e.set("latency_tail_ms", pass_ms.pct(90), "ms", pass_ms.n(),
            "p90 of grid pass wall times");
  return p;
}

// ---------------------------------------------------------------------------

Pass steady_wire(const Ctx& ctx, double seconds, bool traced) {
  Pass p;
  const SteadyMix mix = make_steady_mix(ctx.seed, 20000);
  std::vector<double> setups;
  std::unique_ptr<Daemon> daemon;
  for (std::size_t i = 0; i < kSetups; ++i) {
    daemon.reset();
    const double t = now_s();
    daemon = start_warm_daemon(ctx, mix, false, traced);
    setups.push_back(seconds_since(t));
  }
  const Endpoint ep = daemon->endpoint();
  std::unique_ptr<TraceCollector> collector;
  if (traced) {
    collector = std::make_unique<TraceCollector>(ep);
    collector->start();
  }
  const std::size_t conns = std::min<std::size_t>(4, ctx.threads);

  // Latency at the reference rate.
  const double ref_s = seconds * 0.4;
  OpenLoopResult ref;
  {
    BenchSpan span("serve.net/open-loop-ref");
    ref = run_open_loop(ep, mix.queries, 0, kReferenceRate, ref_s, conns);
  }
  Dist rom;
  Dist full;
  std::size_t errors = 0;
  split_classes(ref.outcomes, rom, full, errors);
  Dist late;
  for (const SteadyOutcome& o : ref.outcomes) late.add(o.lateness_us);
  p.attempted += ref.outcomes.size();
  // The gated latencies are medians over kBlocks consecutive slices of the
  // window, so a host hiccup in a few slices does not move them.  The tail
  // is p90: about 1 ROM query in 20 waits behind a force_full solve, so
  // p95 sits on the edge between the two modes and jumps between runs.
  std::vector<double> block_p50;
  std::vector<double> block_p90;
  for (std::size_t b = 0; b < kBlocks; ++b) {
    const std::size_t n = ref.outcomes.size();
    const std::vector<SteadyOutcome> slice(
        ref.outcomes.begin() + static_cast<std::ptrdiff_t>(b * n / kBlocks),
        ref.outcomes.begin() + static_cast<std::ptrdiff_t>((b + 1) * n / kBlocks));
    Dist br;
    Dist bf;
    std::size_t be = 0;
    split_classes(slice, br, bf, be);
    block_p50.push_back(br.pct(50));
    block_p90.push_back(br.pct(90));
  }
  for (const SteadyOutcome& o : ref.outcomes) {
    if (!o.ok) p.fail("steady query " + std::to_string(o.index) + ": " + o.error, false);
  }

  // Throughput with four closed-loop connections: the capacity figure, and
  // the steadiest one on a shared host (see steady_max_qps below).
  ClosedLoopResult closed;
  std::vector<double> block_qps;
  for (std::size_t b = 0; b < kBlocks; ++b) {
    BenchSpan span("serve.net/closed-loop");
    const ClosedLoopResult r =
        run_closed_steady(ep, mix.queries, ref.outcomes.size() + closed.answered,
                          seconds * 0.25 / kBlocks, conns);
    block_qps.push_back(static_cast<double>(r.answered) / r.wall_s);
    closed.answered += r.answered;
    closed.errors += r.errors;
  }
  const double closed_qps = median_of(block_qps);
  p.attempted += closed.answered + closed.errors;
  if (closed.errors > 0) {
    p.fail(std::to_string(closed.errors) + " closed-loop steady queries failed",
           false);
  }

  // Highest rate of a fixed ladder at which at most 1% of the queries miss
  // (rejected or failed) and the ROM-class p99 stays under the limit.  The
  // estimate interpolates between the last passing and the first failing
  // rung where the miss share (or log p99) crosses its limit, so it moves
  // smoothly instead of jumping by a whole rung.
  const std::vector<double> ladder = {250,  500,  750,  1000, 1150, 1300, 1450,
                                      1600, 1750, 1900, 2050, 2200, 2400, 2600,
                                      2800, 3000, 3300, 3600, 4000};
  const double rung_s = std::max(0.2, seconds * 0.35 / 12.0);
  double max_qps = 0.0;
  double prev_rate = 0.0;
  double prev_p99 = 0.0;
  double prev_miss = 0.0;
  std::size_t next_query = ref.outcomes.size() + closed.answered;
  std::string ladder_note;
  for (double rate : ladder) {
    OpenLoopResult r;
    {
      BenchSpan span("serve.net/open-loop-rung");
      r = run_open_loop(ep, mix.queries, next_query, rate, rung_s, conns);
    }
    next_query += r.outcomes.size();
    Dist rr;
    Dist rf;
    std::size_t misses = 0;
    split_classes(r.outcomes, rr, rf, misses);
    const double p99 = rr.pct(99);
    const double miss = static_cast<double>(misses) /
                        static_cast<double>(std::max<std::size_t>(1, r.outcomes.size()));
    char buf[80];
    std::snprintf(buf, sizeof buf, "%s%.0f:%.0fus/%zu", ladder_note.empty() ? "" : " ",
                  rate, p99, misses);
    ladder_note += buf;
    if (miss <= kMissLimit && p99 <= kP99LimitUs) {
      max_qps = rate;
      prev_rate = rate;
      prev_p99 = p99;
      prev_miss = miss;
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      continue;
    }
    if (prev_rate > 0.0) {
      double frac = 1.0;
      if (miss > kMissLimit) {
        frac = std::min(frac, (kMissLimit - prev_miss) / (miss - prev_miss));
      }
      if (p99 > kP99LimitUs && prev_p99 > 0.0) {
        frac = std::min(frac, (std::log(kP99LimitUs) - std::log(prev_p99)) /
                                  (std::log(p99) - std::log(prev_p99)));
      }
      max_qps = prev_rate + (rate - prev_rate) * std::clamp(frac, 0.0, 1.0);
    }
    break;
  }

  if (traced) {
    p.daemon_spans = collector->finish();
    ServeClient client(ep);
    daemon_layers(p.layer, p.daemon_spans, client.stats());
    const std::string prom = client.metrics();
    hist_layers(p.layer, SolverHists{}, read_hists(prom), "the daemon");
  }
  ThermalService local;
  warm_local(local, mix);
  if (traced) rtt_probe(ep, mix.queries, local, p.layer);
  const double rss = daemon->peak_rss_mb();
  const int rc = daemon->stop();
  if (rc != 0) p.fail("serve_daemon exited with status " + std::to_string(rc), false);
  {
    BenchSpan span("serve/check");
    check_steady(mix.queries, ref.outcomes, local, ctx.seed, 200, p);
  }

  const double p50 = rom.pct(50);
  const double p99 = rom.pct(99);
  p.named.set("setup_s", median_of(setups), "s", setups.size());
  p.named.set("peak_rss_mb", rss, "MB", 0, "serve_daemon VmHWM");
  p.named.set("steady_p50_us", p50, "us", rom.n(), "ROM class at 250 q/s");
  p.named.set("steady_p99_us", p99, "us", rom.n(), "ROM class at 250 q/s");
  p.named.set("steady_p95_us", rom.pct(95), "us", rom.n(), "ROM class at 250 q/s");
  p.named.set("steady_full_p50_us", full.pct(50), "us", full.n(),
              "force_full class at 250 q/s");
  p.named.set("steady_max_qps", max_qps, "q/s", 0, "ladder " + ladder_note);
  p.named.set("steady_closed_qps", closed_qps, "q/s", closed.answered,
              "4 closed-loop connections, median of 9 slices");
  p.named.set("generator_late_p99_us", late.pct(99), "us", late.n(),
              "send time minus due time");
  p.named.set("generator_late_max_us", late.max(), "us", late.n());
  p.e2e.set("setup_s", median_of(setups), "s", setups.size());
  p.e2e.set("peak_rss_mb", rss, "MB");
  p.e2e.set("work_per_s", closed_qps, "1/s", closed.answered,
            "steady_closed_qps");
  p.e2e.set("latency_p50_ms", median_of(block_p50) * 1e-3, "ms", rom.n(),
            "ROM class at 250 q/s, median of 9 slices' p50");
  p.e2e.set("latency_tail_ms", median_of(block_p90) * 1e-3, "ms", rom.n(),
            "ROM class at 250 q/s, median of 9 slices' p90");
  return p;
}

// ---------------------------------------------------------------------------

Pass session_mix(const Ctx& ctx, double seconds, bool traced) {
  Pass p;
  const SteadyMix mix = make_steady_mix(ctx.seed, 20000);
  const std::vector<SessionRequest> reqs = make_session_mix(ctx.seed, 4096);
  std::vector<double> setups;
  std::unique_ptr<Daemon> daemon;
  // The short session-mix a traced run uses as a probe sets up once.
  const std::size_t setups_n = seconds < 3.0 ? 1 : kSetups;
  for (std::size_t i = 0; i < setups_n; ++i) {
    daemon.reset();
    const double t = now_s();
    daemon = start_warm_daemon(ctx, mix, true, traced);
    setups.push_back(seconds_since(t));
  }
  const Endpoint ep = daemon->endpoint();
  std::unique_ptr<TraceCollector> collector;
  if (traced) {
    collector = std::make_unique<TraceCollector>(ep);
    collector->start();
  }
  std::vector<SessionOutcomeRecord> sessions;
  OpenLoopResult steady;
  const double t0 = now_s();
  {
    BenchSpan span("serve.queue/session-mix");
    std::thread steady_thread([&] {
      steady = run_open_loop(ep, mix.queries, 0, kMixedSteadyRate, seconds, 1);
    });
    sessions = run_closed_sessions(ep, reqs, 3, seconds);
    steady_thread.join();
  }
  const double wall = seconds_since(t0);
  Dist sess_ms;
  for (const SessionOutcomeRecord& r : sessions) {
    ++p.attempted;
    if (r.ok) {
      sess_ms.add(r.latency_ms);
    } else {
      p.fail("session " + std::to_string(r.index) + ": " + r.error, false);
    }
  }
  Dist rom;
  Dist full;
  std::size_t errors = 0;
  split_classes(steady.outcomes, rom, full, errors);
  p.attempted += steady.outcomes.size();
  for (const SteadyOutcome& o : steady.outcomes) {
    if (!o.ok) p.fail("mixed steady query " + std::to_string(o.index) + ": " + o.error, false);
  }

  if (traced) {
    p.daemon_spans = collector->finish();
    ServeClient client(ep);
    daemon_layers(p.layer, p.daemon_spans, client.stats());
    hist_layers(p.layer, SolverHists{}, read_hists(client.metrics()),
                "the daemon");
  }
  ThermalService local;
  warm_local(local, mix);
  if (traced) rtt_probe(ep, mix.queries, local, p.layer);
  const double rss = daemon->peak_rss_mb();
  const int rc = daemon->stop();
  if (rc != 0) p.fail("serve_daemon exited with status " + std::to_string(rc), false);

  // Checks: seeded what-ifs re-run solo are bit-identical; a sample of the
  // steady answers matches the in-process service.
  {
    BenchSpan span("sim/solo-check");
    Rng rng(ctx.seed ^ 0x5e55c4ecULL);
    std::size_t checked = 0;
    for (std::size_t tries = 0; tries < 64 && checked < 3 && !sessions.empty();
         ++tries) {
      const SessionOutcomeRecord& r = sessions[rng.below(sessions.size())];
      if (!r.ok || reqs[r.index].replay) continue;
      ++checked;
      ++p.attempted;
      const SimulationResult solo =
          run_solo(ThermalService::session_config(reqs[r.index].query.base));
      if (!results_bit_identical(solo, r.outcome.result)) {
        p.fail("what-if " + std::to_string(r.index) +
                   " differs from its solo SimulationSession re-run",
               true);
      }
    }
  }
  check_steady(mix.queries, steady.outcomes, local, ctx.seed, 50, p);

  // Sessions per second: the median over kBlocks equal slices of the window.
  std::vector<double> block_rate;
  for (std::size_t b = 0; b < kBlocks; ++b) {
    const double lo = t0 + wall * static_cast<double>(b) / kBlocks;
    const double hi = t0 + wall * static_cast<double>(b + 1) / kBlocks;
    std::size_t done = 0;
    for (const SessionOutcomeRecord& r : sessions) {
      if (r.ok && r.done_s >= lo && r.done_s < hi) ++done;
    }
    block_rate.push_back(static_cast<double>(done) / (hi - lo));
  }
  const double per_s = median_of(block_rate);
  p.named.set("setup_s", median_of(setups), "s", setups.size());
  p.named.set("peak_rss_mb", rss, "MB", 0, "serve_daemon VmHWM");
  p.named.set("session_p50_ms", sess_ms.pct(50), "ms", sess_ms.n());
  p.named.set("session_p95_ms", sess_ms.pct(95), "ms", sess_ms.n());
  p.named.set("sessions_per_s", per_s, "1/s", sess_ms.n(),
              "median of 9 slices");
  p.named.set("mixed_steady_p50_us", rom.pct(50), "us", rom.n(),
              "ROM class at 20 q/s beside 3 session clients");
  p.named.set("mixed_steady_p95_us", rom.pct(95), "us", rom.n(),
              "ROM class at 20 q/s beside 3 session clients");
  p.e2e.set("setup_s", median_of(setups), "s", setups.size());
  p.e2e.set("peak_rss_mb", rss, "MB");
  p.e2e.set("work_per_s", per_s, "1/s", sess_ms.n(), "sessions_per_s");
  p.e2e.set("latency_p50_ms", sess_ms.pct(50), "ms", sess_ms.n(),
            "session_p50_ms");
  p.e2e.set("latency_tail_ms", sess_ms.pct(95), "ms", sess_ms.n(),
            "session_p95_ms");
  return p;
}

// ---------------------------------------------------------------------------

SweepGridSpec sweep_grid(std::size_t layer_pairs, double duration_s,
                         std::size_t scenarios, std::size_t workloads,
                         std::uint64_t seed) {
  SweepGridSpec grid;
  grid.scenarios = paper_scenario_grid();
  grid.scenarios.resize(std::min(scenarios, grid.scenarios.size()));
  for (const BenchmarkSpec& b : table2_benchmarks()) {
    if (grid.workloads.size() < workloads) grid.workloads.push_back(b.name);
  }
  grid.layer_pairs = layer_pairs;
  grid.duration = SimTime::from_s(duration_s);
  grid.seed = seed;
  return grid;
}

struct SweepRun {
  double plan_ms = 0.0;
  double merge_ms = 0.0;
  double wall_s = 0.0;
  std::vector<double> shard_s;
  SweepMergeStats stats;
  std::vector<PolicySummary> merged;
};

/// Plan (expand_grid / partition_cells / write_sweep_cells, through
/// write_sweep_plan) -> one thread per shard -> merge.
SweepRun run_sweep_once(const SweepGridSpec& grid, const std::string& dir,
                        std::size_t shards) {
  namespace fs = std::filesystem;
  SweepRun run;
  fs::remove_all(dir);
  fs::create_directories(dir);
  const double t0 = now_s();
  std::vector<std::string> shard_paths;
  {
    BenchSpan span("sweep/plan");
    shard_paths =
        write_sweep_plan(grid, shards, ShardStrategy::kCostWeighted, dir);
  }
  run.plan_ms = seconds_since(t0) * 1e3;
  std::vector<std::string> journals;
  for (const std::string& s : shard_paths) journals.push_back(s + ".journal");
  run.shard_s.assign(shard_paths.size(), 0.0);
  std::vector<std::thread> threads;
  std::vector<std::string> errors(shard_paths.size());
  for (std::size_t k = 0; k < shard_paths.size(); ++k) {
    threads.emplace_back([&, k] {
      const double t = now_s();
      try {
        BenchSpan span("sweep/shard");
        (void)run_sweep_shard(read_sweep_file(shard_paths[k]), journals[k]);
      } catch (const std::exception& e) {
        errors[k] = e.what();
      }
      run.shard_s[k] = seconds_since(t);
    });
  }
  for (std::thread& t : threads) t.join();
  for (const std::string& e : errors) {
    if (!e.empty()) throw std::runtime_error("sweep shard failed: " + e);
  }
  const double tm = now_s();
  {
    BenchSpan span("sweep/merge");
    SweepMergeOptions opts;
    opts.allow_partial = true;
    run.merged = merge_sweep_journals(dir + "/sweep-plan.csv", journals,
                                      &run.stats, opts);
  }
  run.merge_ms = seconds_since(tm) * 1e3;
  run.wall_s = seconds_since(t0);
  return run;
}

void sweep_layers(Report& L, const std::vector<SweepRun>& runs,
                  const std::string& what) {
  Dist plan;
  Dist merge;
  double imbalance = 0.0;
  std::size_t failed = 0;
  for (const SweepRun& r : runs) {
    plan.add(r.plan_ms);
    merge.add(r.merge_ms);
    double sum = 0.0;
    double mx = 0.0;
    for (double s : r.shard_s) {
      sum += s;
      mx = std::max(mx, s);
    }
    imbalance += mx / (sum / static_cast<double>(r.shard_s.size()));
    failed += r.stats.failed + r.stats.missing;
  }
  L.set("sweep.plan_ms", plan.pct(50), "ms", plan.n(), what);
  L.set("sweep.merge_ms", merge.pct(50), "ms", merge.n(), what);
  L.set("sweep.shard_imbalance", imbalance / static_cast<double>(runs.size()),
        "ratio", runs.size(), "slowest shard / mean shard, " + what);
  L.set("sweep.cells_failed", static_cast<double>(failed), "count", 0, what);
}

Pass sweep_4layer(const Ctx& ctx, double seconds, bool traced) {
  Pass p;
  const SweepGridSpec grid = sweep_grid(2, kSweepDurationS, 99, 99, ctx.seed);
  const std::size_t shards = ctx.threads;
  const std::string dir = ctx.work_dir + "/sweep";

  // Set-up: the plan written and the 4-layer characterization done.
  std::vector<double> setups;
  for (std::size_t i = 0; i < kSetups; ++i) {
    const double t = now_s();
    {
      BenchSpan span("sweep/plan");
      (void)write_sweep_plan(grid, shards, ShardStrategy::kCostWeighted,
                             dir + "-setup");
    }
    {
      BenchSpan span("control/characterize");
      ExperimentSuite suite(to_suite_config(grid));
      for (const ScenarioSpec& sc : grid.scenarios) {
        (void)suite.make_config(sc, table2_benchmarks().front());
      }
    }
    setups.push_back(seconds_since(t));
  }
  std::filesystem::remove_all(dir + "-setup");

  const SolverHists before = read_hists(obs::Registry::global().prometheus());
  std::vector<SweepRun> runs;
  Dist sweep_ms;
  const double t0 = now_s();
  while (runs.empty() || seconds_since(t0) < seconds) {
    runs.push_back(run_sweep_once(grid, dir, shards));
    sweep_ms.add(runs.back().wall_s * 1e3);
    p.attempted += grid.cell_count();
  }
  if (traced) {
    hist_layers(p.layer, before,
                read_hists(obs::Registry::global().prometheus()),
                "the benchmark process (sweep shards)");
    sweep_layers(p.layer, runs, "4-layer paper-grid sweep");
  }

  // Checks: complete merges, every sweep equal to the first, one seeded
  // cell re-run solo bit-identical to the merged answer.
  for (const SweepRun& r : runs) {
    if (r.stats.failed != 0 || r.stats.missing != 0) {
      p.fail("sweep merge reported " + std::to_string(r.stats.failed) +
                 " failed and " + std::to_string(r.stats.missing) +
                 " missing cells",
             true);
    }
    for (std::size_t s = 0; s < r.merged.size(); ++s) {
      for (std::size_t w = 0; w < r.merged[s].per_workload.size(); ++w) {
        if (!results_bit_identical(r.merged[s].per_workload[w],
                                   runs.front().merged[s].per_workload[w])) {
          p.fail("sweep cell differs between sweeps", true);
        }
      }
    }
  }
  Rng rng(ctx.seed ^ 0x5eed0005ULL);
  const std::size_t s = rng.below(grid.scenarios.size());
  const std::size_t w = rng.below(grid.workloads.size());
  ++p.attempted;
  {
    BenchSpan span("sim/solo-check");
    ExperimentSuite suite(to_suite_config(grid));
    const SimulationResult solo = run_solo(suite.make_config(
        grid.scenarios[s], *find_benchmark(grid.workloads[w])));
    if (!results_bit_identical(solo, runs.back().merged[s].per_workload[w])) {
      p.fail("sweep cell " + grid.scenarios[s].name + "/" + grid.workloads[w] +
                 " differs from its solo SimulationSession re-run",
             true);
    }
  }
  std::filesystem::remove_all(dir);

  const double cells_per_s =
      static_cast<double>(grid.cell_count()) / (sweep_ms.pct(50) * 1e-3);
  const double rss = self_peak_rss_mb();
  p.named.set("setup_s", median_of(setups), "s", setups.size());
  p.named.set("peak_rss_mb", rss, "MB", 0, "benchmark process");
  p.named.set("sweep_cells_per_s", cells_per_s, "cells/s", runs.size(),
              "56 cells x 4 s simulated, 4-layer, over the median sweep "
              "(plan + run + merge)");
  p.e2e.set("setup_s", median_of(setups), "s", setups.size());
  p.e2e.set("peak_rss_mb", rss, "MB");
  p.e2e.set("work_per_s", cells_per_s, "1/s", runs.size(), "sweep_cells_per_s");
  p.e2e.set("latency_p50_ms", sweep_ms.pct(50), "ms", sweep_ms.n(),
            "wall time of one sweep (plan + run + merge)");
  p.e2e.set("latency_tail_ms", sweep_ms.pct(90), "ms", sweep_ms.n(),
            "p90 of sweep wall times");
  return p;
}

}  // namespace

Pass run_workload(const Ctx& ctx, const std::string& workload, double seconds,
                  bool traced) {
  SpanLog::global().enable(traced);
  if (workload == "paper-grid") return paper_grid(ctx, seconds, traced);
  if (workload == "steady-wire") return steady_wire(ctx, seconds, traced);
  if (workload == "session-mix") return session_mix(ctx, seconds, traced);
  if (workload == "sweep-4layer") return sweep_4layer(ctx, seconds, traced);
  throw std::runtime_error("unknown workload '" + workload + "'");
}

// ---------------------------------------------------------------------------
// Probes

namespace {

/// The system a workload's cells run on: 2-layer liquid, or 4-layer for
/// the sweep.
SimulationConfig probe_system(const Ctx& ctx) {
  SimulationConfig cfg;
  cfg.layer_pairs = ctx.workload == "sweep-4layer" ? 2 : 1;
  cfg.cooling = CoolingMode::kLiquidVar;
  return cfg;
}

std::unique_ptr<ThermalModel3D> probe_model(const SimulationConfig& cfg) {
  auto model = std::make_unique<ThermalModel3D>(make_simulation_stack(cfg),
                                                cfg.thermal);
  model->set_cavity_flow(top_flows(cfg));
  for (std::size_t l = 0; l < model->layer_count(); ++l) {
    model->set_block_power(
        l, std::vector<double>(model->stack().layer(l).floorplan.block_count(),
                               1.5));
  }
  model->initialize(45.0);
  return model;
}

void probe_thermal_step(const SimulationConfig& cfg, const char* name,
                        Report& L) {
  auto model = probe_model(cfg);
  model->step(0.05);  // assemble + factorize outside the timed steps
  Dist d;
  for (int i = 0; i < 40; ++i) {
    const double t = now_s();
    BenchSpan span("thermal/step");
    model->step(0.05);
    d.add(seconds_since(t) * 1e6);
  }
  L.set(name, d.pct(50), "us", d.n(), "p50 ThermalModel3D::step, warm factorization");
}

/// Sampled cells of the workload for the sim probes.
std::vector<SimulationConfig> probe_cells(const Ctx& ctx) {
  Rng rng(ctx.seed ^ 0x51e0006ULL);
  std::vector<SimulationConfig> out;
  if (ctx.workload == "paper-grid" || ctx.workload == "sweep-4layer") {
    SuiteConfig cfg;
    cfg.layer_pairs = ctx.workload == "sweep-4layer" ? 2 : 1;
    if (ctx.workload == "sweep-4layer") cfg.duration = SimTime::from_s(kSweepDurationS);
    cfg.seed = ctx.seed;
    ExperimentSuite suite(cfg);
    const auto scenarios = paper_scenario_grid();
    for (int i = 0; i < 2; ++i) {
      out.push_back(suite.make_config(
          scenarios[rng.below(scenarios.size())],
          table2_benchmarks()[rng.below(table2_benchmarks().size())]));
    }
  } else {
    for (const SessionRequest& r : make_session_mix(ctx.seed, 2)) {
      SimulationConfig cfg = ThermalService::session_config(r.query.base);
      cfg.phases = r.query.phases;
      out.push_back(cfg);
    }
  }
  return out;
}

void probe_sim(const Ctx& ctx, Report& L) {
  Dist init_ms;
  Dist begin_us;
  Dist advance_us;
  Dist finish_us;
  for (const SimulationConfig& cfg : probe_cells(ctx)) {
    double t = now_s();
    std::unique_ptr<SimulationSession> s;
    {
      BenchSpan span("sim/session-init");
      s = std::make_unique<SimulationSession>(cfg);
      s->init();
    }
    init_ms.add(seconds_since(t) * 1e3);
    for (int tick = 0; tick < 10 && !s->done(); ++tick) {
      t = now_s();
      {
        BenchSpan span("sim/begin_tick");
        s->begin_tick();
      }
      begin_us.add(seconds_since(t) * 1e6);
      t = now_s();
      {
        BenchSpan span("thermal/advance");
        for (std::size_t k = 0; k < s->substep_count(); ++k) {
          s->thermal().step(s->substep_dt());
        }
      }
      advance_us.add(seconds_since(t) * 1e6);
      t = now_s();
      {
        BenchSpan span("sim/finish_tick");
        s->finish_tick();
      }
      finish_us.add(seconds_since(t) * 1e6);
    }
  }
  L.set("sim.session_init_ms", init_ms.pct(50), "ms", init_ms.n(),
        "SimulationSession construct + init, sampled cells");
  L.set("sim.begin_tick_us", begin_us.pct(50), "us", begin_us.n());
  L.set("sim.advance_us", advance_us.pct(50), "us", advance_us.n(),
        "all thermal substeps of one tick");
  L.set("sim.finish_tick_us", finish_us.pct(50), "us", finish_us.n());
}

void probe_rom_and_service(const Ctx& ctx, Report& L) {
  const SteadyMix mix = make_steady_mix(ctx.seed, 400);
  // ReducedSteadyModel::build / evaluate on each system at its top flow.
  Dist build_ms;
  Dist eval_us;
  for (const SteadySystem& sys : steady_systems()) {
    auto model = std::make_unique<ThermalModel3D>(make_simulation_stack(sys.cfg),
                                                  sys.cfg.thermal);
    if (sys.cavities > 0) model->set_cavity_flow(top_flows(sys.cfg));
    double t = now_s();
    std::optional<ReducedSteadyModel> rom;
    {
      BenchSpan span("rom/build");
      rom.emplace(ReducedSteadyModel::build(*model, RomParams{}));
    }
    build_ms.add(seconds_since(t) * 1e3);
    ReducedSteadyModel::Scratch scratch;
    RomEvaluation eval;
    for (const SteadyQuery& q : mix.queries) {
      if (q.config.layer_pairs != sys.cfg.layer_pairs ||
          q.config.cooling != sys.cfg.cooling || q.force_full) {
        continue;
      }
      t = now_s();
      BenchSpan span("rom/evaluate");
      rom->evaluate(q.block_watts, q.reference_c.value_or(30.0), 0.0, scratch,
                    eval);
      eval_us.add(seconds_since(t) * 1e6);
    }
  }
  L.set("rom.build_ms", build_ms.pct(50), "ms", build_ms.n(),
        "ReducedSteadyModel::build, one per steady system");
  L.set("rom.evaluate_us", eval_us.pct(50), "us", eval_us.n());

  // In-process ThermalService::steady, and the client codec, on the mix.
  ThermalService local;
  warm_local(local, mix);
  Dist steady_us;
  Dist codec_us;
  std::uint64_t id = 1;
  for (const SteadyQuery& q : mix.queries) {
    if (q.force_full) continue;
    double t = now_s();
    SteadyAnswer a;
    {
      BenchSpan span("serve/steady-inproc");
      a = local.steady(q);
    }
    steady_us.add(seconds_since(t) * 1e6);
    WireResponse resp;
    resp.id = id;
    resp.payload = a;
    const std::string reply = encode_response(resp);
    WireRequest req;
    req.id = id++;
    req.payload = q;
    t = now_s();
    {
      BenchSpan span("serve.net/client-codec");
      const std::string text = encode_request(req);
      const WireResponse back = decode_response(reply);
      if (text.empty() || back.id != resp.id) throw std::runtime_error("codec");
    }
    codec_us.add(seconds_since(t) * 1e6);
  }
  L.set("serve.steady_inproc_us", steady_us.pct(50), "us", steady_us.n(),
        "p50 in-process ThermalService::steady, ROM class");
  L.set("net.client_codec_us", codec_us.pct(50), "us", codec_us.n(),
        "p50 encode_request + decode_response");
}

void probe_control_and_thermal(const Ctx& ctx, Report& L) {
  SimulationConfig cfg = probe_system(ctx);
  cfg.policy = Policy::kTalb;
  {
    const double t = now_s();
    BenchSpan span("control/characterize");
    CharacterizationCache cold;
    (void)cold.flow_lut(cfg);
    (void)cold.talb_weights(cfg);
    L.set("control.characterize_ms", seconds_since(t) * 1e3, "ms", 1,
          "cold flow_lut + talb_weights");
  }
  SimulationConfig two;
  two.layer_pairs = 1;
  SimulationConfig four;
  four.layer_pairs = 2;
  probe_thermal_step(two, "thermal.step_us_2layer", L);
  probe_thermal_step(four, "thermal.step_us_4layer", L);

  // Steady solves at changing flows: each one refactorizes.
  auto model = probe_model(two);
  const std::vector<VolumetricFlow> top = model->cavity_flows();
  Dist steady_ms;
  for (int i = 0; i < 6; ++i) {
    std::vector<VolumetricFlow> f = top;
    for (VolumetricFlow& v : f) {
      v = VolumetricFlow::from_ml_per_min(v.ml_per_min() * (0.55 + 0.07 * i));
    }
    model->set_cavity_flow(f);
    const double t = now_s();
    BenchSpan span("thermal/steady-solve");
    model->solve_steady_state();
    steady_ms.add(seconds_since(t) * 1e3);
  }
  L.set("thermal.steady_solve_ms", steady_ms.pct(50), "ms", steady_ms.n(),
        "solve_steady_state at a new flow (refactorizes)");

  const SimulationConfig sys = probe_system(ctx);
  auto m = probe_model(sys);
  const double n = static_cast<double>(m->node_count());
  const double b = static_cast<double>(m->grid().cols() * m->layer_count());
  L.set("thermal.solve_bytes", n * (b + 1.0) * 8.0, "bytes", 0,
        "computed n*(b+1)*8 for one banded solve on the workload's stack");
}

void probe_journal(const Ctx& ctx, Report& L) {
  namespace fs = std::filesystem;
  const std::string dir = ctx.work_dir + "/journal-probe";
  fs::remove_all(dir);
  fs::create_directories(dir);
  Dist append_ms;
  {
    SweepJournal journal(dir + "/probe.journal");
    for (std::size_t i = 0; i < 20; ++i) {
      JournalEntry e;
      e.cell = i;
      e.result.label = "probe";
      e.result.benchmark = "Web-med";
      e.result.avg_tmax = 60.0 + static_cast<double>(i);
      const double t = now_s();
      BenchSpan span("sweep/journal-append");
      journal.append(e);
      append_ms.add(seconds_since(t) * 1e3);
    }
  }
  fs::remove_all(dir);
  L.set("sweep.journal_append_ms", append_ms.pct(50), "ms", append_ms.n(),
        "SweepJournal::append incl. fsync");
}

template <typename F>
void fill(Report& L, F&& probe) {
  Report fresh;
  probe(fresh);
  for (const auto& [name, m] : fresh.all()) {
    if (!L.has(name)) L.set(name, m.value, m.unit, m.samples, m.note);
  }
}

}  // namespace

void probe_layers(const Ctx& ctx, Report& L) {
  SpanLog::global().enable(true);
  fill(L, [&](Report& r) { probe_rom_and_service(ctx, r); });
  fill(L, [&](Report& r) { probe_control_and_thermal(ctx, r); });
  fill(L, [&](Report& r) { probe_sim(ctx, r); });
  fill(L, [&](Report& r) { probe_journal(ctx, r); });
  // Bench-process registry as the last resort for the solver histograms.
  fill(L, [&](Report& r) {
    hist_layers(r, SolverHists{}, read_hists(obs::Registry::global().prometheus()),
                "the benchmark process (probes)");
  });
  // Layers the workload bypassed: a short traced session-mix (serve.net,
  // serve, serve.queue) and a small 2-layer sweep (sweep).
  const bool need_daemon = !L.has("queue.mean_batch") || !L.has("net.decode_us") ||
                           !L.has("serve.solve_full_us") ||
                           !L.has("net.rtt_minus_service_us");
  if (need_daemon) {
    Ctx mini = ctx;
    const Pass p = session_mix(mini, 1.5, true);
    fill(L, [&](Report& r) { r = p.layer; });
  }
  if (!L.has("sweep.plan_ms")) {
    const SweepGridSpec grid = sweep_grid(1, 0.5, 2, 4, ctx.seed);
    std::vector<SweepRun> runs;
    runs.push_back(run_sweep_once(grid, ctx.work_dir + "/sweep-probe", 2));
    std::filesystem::remove_all(ctx.work_dir + "/sweep-probe");
    fill(L, [&](Report& r) { sweep_layers(r, runs, "probe sweep, 2-layer, 8 cells"); });
  }
  fill(L, [&](Report& r) {
    hist_layers(r, SolverHists{}, read_hists(obs::Registry::global().prometheus()),
                "the benchmark process (probes)");
  });
}

}  // namespace pb
