// bench.hpp — shared pieces of the end-to-end benchmark (perfbench).
//
// The benchmark drives each layer of liquid3d from outside, through its
// public functions only: the paper grid through ExperimentSuite, the query
// daemon as a real serve_daemon subprocess over loopback TCP, and the sweep
// fleet through plan / run_sweep_shard / merge.  Everything here is
// measurement plumbing: seeded inputs, percentiles, span recording, the
// daemon process, the load generators and the answer checkers.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/trace.hpp"
#include "serve/net/envelope.hpp"
#include "serve/net/socket.hpp"
#include "serve/query.hpp"
#include "sim/session.hpp"

namespace pb {

using liquid3d::SessionOutcome;
using liquid3d::SimulationConfig;
using liquid3d::SimulationResult;
using liquid3d::SteadyAnswer;
using liquid3d::SteadyQuery;
using liquid3d::WhatIfQuery;
using liquid3d::ReplayQuery;

// ---------------------------------------------------------------------------
// Clocks, samples, metrics

double now_s();  ///< steady clock [s]

/// A sample of one quantity; percentiles interpolate linearly between
/// order statistics (numpy's default).
class Dist {
 public:
  void add(double x) { v_.push_back(x); sorted_ = false; }
  [[nodiscard]] std::size_t n() const { return v_.size(); }
  [[nodiscard]] double pct(double q) const;  ///< q in [0, 100]; 0 when empty
  [[nodiscard]] double max() const { return pct(100.0); }

 private:
  mutable std::vector<double> v_;
  mutable bool sorted_ = true;
};

struct Metric {
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;  ///< sample count behind a percentile (0 = n/a)
  std::string note;         ///< how it was measured, when not obvious
};

/// Ordered name -> metric map, printed as report lines and JSON.
class Report {
 public:
  void set(const std::string& name, double value, const std::string& unit,
           std::size_t samples = 0, const std::string& note = "");
  [[nodiscard]] bool has(const std::string& name) const;
  [[nodiscard]] const Metric& at(const std::string& name) const;
  [[nodiscard]] const std::map<std::string, Metric>& all() const { return m_; }
  /// `{"name": {"value": v, "unit": u}, ...}` over the given names.
  [[nodiscard]] std::string json(const std::vector<std::string>& names) const;

 private:
  std::map<std::string, Metric> m_;
};

std::string json_number(double v);
std::string json_string(const std::string& s);

/// Host record attached to every result (nproc, CPU, compiler, build).
std::string host_json();
unsigned nproc();

/// Cumulative (steal, total) CPU ticks from /proc/stat: the share of CPU
/// time the hypervisor gave to other guests over a run tells a slow run
/// on a contended host from a regression.
std::pair<double, double> cpu_steal_ticks();

/// Peak resident set [MB] of this process / of another live process.
double self_peak_rss_mb();
double pid_peak_rss_mb(pid_t pid);

// ---------------------------------------------------------------------------
// The benchmark's own spans (recorded only in traced runs), kept in memory
// and written out once at exit.

struct Span {
  std::uint32_t trace = 0;   ///< id of the outermost span on its thread
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  ///< enclosing span on the same thread, 0 = root
  std::string name;  ///< "<layer>/<call>", e.g. "thermal/step"
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
};

class SpanLog {
 public:
  static SpanLog& global();
  void enable(bool on) { on_ = on; }
  [[nodiscard]] bool on() const { return on_; }
  void record(Span s);
  [[nodiscard]] std::vector<Span> snapshot() const;
  /// Self time per layer [ms]: a span's duration minus the part of it its
  /// children cover, summed by the layer prefix of its name.
  [[nodiscard]] static std::map<std::string, double> self_ms(
      const std::vector<Span>& spans);

 private:
  bool on_ = false;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span around one call into a layer; a no-op in untraced runs.
/// Spans nest per thread: a span opened inside another is its child.
class BenchSpan {
 public:
  explicit BenchSpan(const char* name);
  ~BenchSpan();
  BenchSpan(const BenchSpan&) = delete;
  BenchSpan& operator=(const BenchSpan&) = delete;

 private:
  bool armed_;
  Span span_;
};

// ---------------------------------------------------------------------------
// Seeded inputs

/// SplitMix64 stream: the benchmark's only source of randomness.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next();
  double uniform(double lo, double hi);
  std::size_t below(std::size_t n);

 private:
  std::uint64_t s_;
};

/// One steady-query system of the steady mix.
struct SteadySystem {
  SimulationConfig cfg;
  std::vector<std::size_t> blocks_per_layer;
  std::size_t cavities = 0;
};

/// 2- and 4-layer liquid stacks and the 2-layer air stack.
std::vector<SteadySystem> steady_systems();

/// Per-cavity flows at the pump's top setting (empty for air stacks).
std::vector<liquid3d::VolumetricFlow> top_flows(const SimulationConfig& cfg);

struct SteadyMix {
  /// One query per distinct (system, flow) key: what set-up warms.
  std::vector<SteadyQuery> warm;
  /// The query stream; every 20th is force_full with a fresh flow vector.
  std::vector<SteadyQuery> queries;
};
SteadyMix make_steady_mix(std::uint64_t seed, std::size_t count);

/// A what-if or replay drawn from the paper scenarios x Table II.
struct SessionRequest {
  bool replay = false;
  ReplayQuery query;  ///< query.base is the what-if for non-replays
};
std::vector<SessionRequest> make_session_mix(std::uint64_t seed,
                                             std::size_t count);

// ---------------------------------------------------------------------------
// Answer checks (bitwise; a flipped last bit is a mismatch)

bool same_bits(double a, double b);
/// Compares every answer field except elapsed_us.
bool steady_identical(const SteadyAnswer& a, const SteadyAnswer& b);
bool results_bit_identical(const SimulationResult& a,
                           const SimulationResult& b);
/// Run a config solo through SimulationSession (init, step to done).
SimulationResult run_solo(const SimulationConfig& cfg);

// ---------------------------------------------------------------------------
// The daemon: a real serve_daemon child with its default flags.

class Daemon {
 public:
  /// Starts `binary --listen 127.0.0.1:0` and waits for `listening`.
  Daemon(const std::string& binary, bool traced);
  ~Daemon();  ///< SIGTERM, drain, reap
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  [[nodiscard]] const liquid3d::Endpoint& endpoint() const { return ep_; }
  [[nodiscard]] pid_t pid() const { return pid_; }
  [[nodiscard]] double peak_rss_mb() const { return pid_peak_rss_mb(pid_); }
  /// Graceful stop; returns the child's exit status (0 = clean drain).
  int stop();

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
  liquid3d::Endpoint ep_;
};

/// Raw framed connection: send without waiting, receive by id.
class Conn {
 public:
  explicit Conn(const liquid3d::Endpoint& ep);
  ~Conn();
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;
  [[nodiscard]] int fd() const { return fd_; }
  void send(const liquid3d::WireRequest& req);
  liquid3d::WireResponse recv();

 private:
  int fd_ = -1;
};

// ---------------------------------------------------------------------------
// Load generators

struct SteadyOutcome {
  std::size_t index = 0;  ///< into the query list
  bool full = false;      ///< force_full class
  bool ok = false;        ///< answered (not rejected / failed)
  std::string error;
  double latency_us = 0.0;  ///< from the due time
  double lateness_us = 0.0; ///< generator send time minus due time
  SteadyAnswer answer;
};

struct OpenLoopResult {
  std::vector<SteadyOutcome> outcomes;
  std::size_t sent = 0;
};

/// Open loop: query k is due at start + k / rate and is sent on connection
/// k % conns whatever the replies do; latency counts from the due time.
/// One thread per connection (sends and receives on it).
OpenLoopResult run_open_loop(const liquid3d::Endpoint& ep,
                             const std::vector<SteadyQuery>& queries,
                             std::size_t first, double rate_qps,
                             double seconds, std::size_t conns);

struct ClosedLoopResult {
  std::size_t answered = 0;
  std::size_t errors = 0;
  double wall_s = 0.0;
};

/// Closed loop: each of `conns` connections sends its next steady query
/// as soon as the previous one answers, for `seconds`.
ClosedLoopResult run_closed_steady(const liquid3d::Endpoint& ep,
                                   const std::vector<SteadyQuery>& queries,
                                   std::size_t first, double seconds,
                                   std::size_t conns);

struct SessionOutcomeRecord {
  std::size_t index = 0;
  bool ok = false;
  std::string error;
  double latency_ms = 0.0;
  double done_s = 0.0;  ///< now_s() when the answer arrived
  SessionOutcome outcome;
};

/// Closed loop: each of `clients` connections sends its next session
/// request when the previous one answers, until `seconds` pass.
std::vector<SessionOutcomeRecord> run_closed_sessions(
    const liquid3d::Endpoint& ep, const std::vector<SessionRequest>& reqs,
    std::size_t clients, double seconds);

// ---------------------------------------------------------------------------
// Daemon-side observation (traced runs)

/// Polls the daemon's trace ring and keeps every span once.
class TraceCollector {
 public:
  explicit TraceCollector(const liquid3d::Endpoint& ep);
  ~TraceCollector();
  TraceCollector(const TraceCollector&) = delete;
  TraceCollector& operator=(const TraceCollector&) = delete;
  void start();  ///< background poll every 50 ms
  std::vector<liquid3d::obs::TraceSpan> finish();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Stage durations [us] of daemon traces, by query class ("rom", "full",
/// "session": the solve stage of the trace) and stage.
using StageDists = std::map<std::string, std::map<std::string, Dist>>;
StageDists stage_dists(const std::vector<liquid3d::obs::TraceSpan>& spans);

// ---------------------------------------------------------------------------
// Metric catalog: every metric the benchmark defines, and how it is reported.

struct CatalogEntry {
  std::string name;
  std::string reported;  ///< "end_to_end:<name>", "workload:<w>", "per_layer", or "dropped"
  std::string reason;    ///< why dropped / how folded
};
const std::vector<CatalogEntry>& metric_catalog();

/// Names of the gated end-to-end metrics and of the per-layer metrics, in
/// output order (mirrors BENCHMARK.json).
const std::vector<std::string>& end_to_end_names();
const std::vector<std::string>& per_layer_names();

}  // namespace pb
