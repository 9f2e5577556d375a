// util.cpp — samples, metric maps, host record, spans, RNG, answer checks.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include "bench.hpp"
#include "sim/report.hpp"

namespace pb {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// -- Dist ----------------------------------------------------------------------

double Dist::pct(double q) const {
  if (v_.empty()) return 0.0;
  if (!sorted_) {
    std::sort(v_.begin(), v_.end());
    sorted_ = true;
  }
  const double pos = q / 100.0 * static_cast<double>(v_.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v_.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v_[lo] + (v_[hi] - v_[lo]) * frac;
}

// -- Report --------------------------------------------------------------------

void Report::set(const std::string& name, double value, const std::string& unit,
                 std::size_t samples, const std::string& note) {
  m_[name] = Metric{value, unit, samples, note};
}

bool Report::has(const std::string& name) const { return m_.count(name) != 0; }

const Metric& Report::at(const std::string& name) const { return m_.at(name); }

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string Report::json(const std::vector<std::string>& names) const {
  std::string out = "{";
  bool first = true;
  for (const std::string& n : names) {
    const Metric& m = m_.at(n);
    if (!first) out += ", ";
    first = false;
    out += json_string(n) + ": {\"value\": " + json_number(m.value) +
           ", \"unit\": " + json_string(m.unit) + "}";
  }
  return out + "}";
}

// -- Host ----------------------------------------------------------------------

unsigned nproc() {
  const long n = ::sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<unsigned>(n) : 1u;
}

std::string host_json() {
  std::string cpu = "unknown";
  std::ifstream info("/proc/cpuinfo");
  for (std::string line; std::getline(info, line);) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) cpu = line.substr(colon + 2);
      break;
    }
  }
  return "{\"nproc\": " + std::to_string(nproc()) +
         ", \"cpu\": " + json_string(cpu) +
         ", \"compiler\": " + json_string(PERFBENCH_COMPILER) +
         ", \"build_type\": " + json_string(PERFBENCH_BUILD_TYPE) +
         ", \"LIQUID3D_NATIVE_ARCH\": " + json_string(PERFBENCH_NATIVE_ARCH) +
         ", \"LIQUID3D_OBS\": " + json_string(PERFBENCH_OBS) + "}";
}

std::pair<double, double> cpu_steal_ticks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  double total = 0.0;
  double steal = 0.0;
  in >> cpu;  // "cpu": user nice system idle iowait irq softirq steal ...
  for (int field = 0; field < 8 && in; ++field) {
    double v = 0.0;
    in >> v;
    total += v;
    if (field == 7) steal = v;
  }
  return {steal, total};
}

double self_peak_rss_mb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // kB on Linux
}

double pid_peak_rss_mb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

// -- Spans ---------------------------------------------------------------------

SpanLog& SpanLog::global() {
  static SpanLog log;
  return log;
}

void SpanLog::record(Span s) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(s));
}

std::vector<Span> SpanLog::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::map<std::string, double> SpanLog::self_ms(const std::vector<Span>& spans) {
  std::map<std::uint32_t, std::vector<const Span*>> children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].push_back(&s);
  }
  std::map<std::string, double> out;
  for (const Span& s : spans) {
    // Union of the children's intervals, clipped to the parent.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> iv;
    const auto it = children.find(s.id);
    if (it != children.end()) {
      for (const Span* c : it->second) {
        iv.emplace_back(std::max(c->start_ns, s.start_ns),
                        std::min(c->end_ns, s.end_ns));
      }
    }
    std::sort(iv.begin(), iv.end());
    std::uint64_t covered = 0;
    std::uint64_t cur_lo = 0;
    std::uint64_t cur_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : iv) {
      if (hi <= lo) continue;
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
      } else {
        if (open) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
        open = true;
      }
    }
    if (open) covered += cur_hi - cur_lo;
    const std::uint64_t dur = s.end_ns - s.start_ns;
    const std::string layer = s.name.substr(0, s.name.find('/'));
    out[layer] += static_cast<double>(dur - std::min(dur, covered)) * 1e-6;
  }
  return out;
}

namespace {
// The innermost open span on this thread (parent of the next one) and the
// outermost (the trace every span under it belongs to).
thread_local std::uint32_t t_current = 0;
thread_local std::uint32_t t_root = 0;
}  // namespace

BenchSpan::BenchSpan(const char* name) : armed_(SpanLog::global().on()) {
  if (!armed_) return;
  span_.id = liquid3d::obs::next_span_id();
  span_.parent = t_current;
  span_.trace = t_current == 0 ? span_.id : t_root;
  span_.name = name;
  span_.start_ns = liquid3d::obs::now_ns();
  if (t_current == 0) t_root = span_.id;
  t_current = span_.id;
}

BenchSpan::~BenchSpan() {
  if (!armed_) return;
  span_.end_ns = liquid3d::obs::now_ns();
  t_current = span_.parent;
  SpanLog::global().record(std::move(span_));
}

// -- RNG -----------------------------------------------------------------------

std::uint64_t Rng::next() {
  std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double Rng::uniform(double lo, double hi) {
  const double u = static_cast<double>(next() >> 11) * 0x1.0p-53;
  return lo + (hi - lo) * u;
}

std::size_t Rng::below(std::size_t n) {
  return static_cast<std::size_t>(next() % n);
}

// -- Checks --------------------------------------------------------------------

bool same_bits(double a, double b) {
  std::uint64_t x = 0;
  std::uint64_t y = 0;
  std::memcpy(&x, &a, sizeof x);
  std::memcpy(&y, &b, sizeof y);
  return x == y;
}

bool steady_identical(const SteadyAnswer& a, const SteadyAnswer& b) {
  if (!same_bits(a.t_max_c, b.t_max_c) || a.used_rom != b.used_rom ||
      !same_bits(a.estimated_error_c, b.estimated_error_c) ||
      !same_bits(a.certified_error_c, b.certified_error_c) ||
      a.rom_dimension != b.rom_dimension ||
      a.layer_max_c.size() != b.layer_max_c.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.layer_max_c.size(); ++i) {
    if (!same_bits(a.layer_max_c[i], b.layer_max_c[i])) return false;
  }
  return true;
}

bool results_bit_identical(const SimulationResult& a,
                           const SimulationResult& b) {
  // results_identical compares every numeric field with ==; the bitwise
  // pass on the headline fields also catches -0.0 vs 0.0.
  return liquid3d::results_identical(a, b) &&
         same_bits(a.avg_tmax, b.avg_tmax) &&
         same_bits(a.total_energy_j, b.total_energy_j) &&
         same_bits(a.hotspot_max_sample, b.hotspot_max_sample);
}

SimulationResult run_solo(const SimulationConfig& cfg) {
  liquid3d::SimulationSession session(cfg);
  session.init();
  while (!session.done()) session.step();
  return session.result();
}

}  // namespace pb
