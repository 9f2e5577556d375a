// selftest.cpp — checks on the benchmark itself:
//   1. the answer checkers flag a single flipped last bit;
//   2. the open-loop generator reports a briefly stalled daemon
//      (SIGSTOP/SIGCONT) as latency, not as reduced load;
//   3. every metric of the specification is printed with a unit or
//      recorded as dropped with a reason, and BENCHMARK.json agrees.
#include <signal.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include "bench.hpp"
#include "serve/net/client.hpp"
#include "workloads.hpp"

namespace {

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

double flip_last_bit(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  bits ^= 1u;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

void checker_flags_flipped_bit() {
  pb::SteadyAnswer a;
  a.t_max_c = 71.23456789;
  a.layer_max_c = {70.5, 71.23456789};
  a.used_rom = true;
  a.estimated_error_c = 1e-4;
  pb::SteadyAnswer b = a;
  expect(pb::steady_identical(a, b), "identical steady answers compare equal");
  b.t_max_c = flip_last_bit(a.t_max_c);
  expect(!pb::steady_identical(a, b), "steady t_max with one flipped bit");
  b = a;
  b.layer_max_c[0] = flip_last_bit(a.layer_max_c[0]);
  expect(!pb::steady_identical(a, b), "steady layer max with one flipped bit");

  pb::SimulationResult r;
  r.label = "TALB (Var)";
  r.benchmark = "Web-med";
  r.avg_tmax = 66.6;
  r.chip_energy_j = 1234.5;
  pb::SimulationResult s = r;
  expect(pb::results_bit_identical(r, s), "identical results compare equal");
  s.chip_energy_j = flip_last_bit(r.chip_energy_j);
  expect(!pb::results_bit_identical(r, s), "result energy with one flipped bit");
}

void stalled_daemon_shows_as_latency() {
  pb::Daemon daemon(PERFBENCH_DAEMON, false);
  const pb::SteadyMix mix = pb::make_steady_mix(3, 2000);
  {
    liquid3d::ServeClient client(daemon.endpoint());
    for (const auto& q : mix.warm) (void)client.steady(q);
  }
  const double rate = 400.0;
  const double seconds = 2.0;
  pb::OpenLoopResult res;
  std::thread load([&] {
    res = pb::run_open_loop(daemon.endpoint(), mix.queries, 0, rate, seconds, 2);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(700));
  ::kill(daemon.pid(), SIGSTOP);
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  ::kill(daemon.pid(), SIGCONT);
  load.join();
  pb::Dist lat;
  pb::Dist late;
  std::size_t replied = 0;
  for (const auto& o : res.outcomes) {
    lat.add(o.latency_us);
    late.add(o.lateness_us);
    // The backlog a stall builds overflows the daemon's 8-slot admission,
    // so some replies are typed rejections: misses, but still replies.
    replied += (o.ok || o.error != "no reply") ? 1 : 0;
  }
  const auto planned = static_cast<std::size_t>(rate * seconds);
  expect(res.sent == planned,
         "stall does not reduce the offered load (" + std::to_string(res.sent) +
             " of " + std::to_string(planned) + " sent)");
  expect(replied == planned, "every query gets a reply after the stall");
  expect(lat.max() >= 250e3, "stall shows as latency (max " +
                                 std::to_string(lat.max() / 1e3) + " ms)");
  expect(lat.pct(90) >= 10e3,
         "queries due during the stall count the wait (p90 " +
             std::to_string(lat.pct(90) / 1e3) + " ms)");
  expect(late.pct(99) < 20e3, "the generator itself stayed on schedule (p99 "
                                  "lateness " +
                                  std::to_string(late.pct(99) / 1e3) + " ms)");
  expect(daemon.stop() == 0, "daemon drains cleanly after the stall");
}

std::string run_capture(const std::string& cmd) {
  std::string out;
  FILE* f = ::popen(cmd.c_str(), "r");
  if (!f) return out;
  char buf[4096];
  for (std::size_t n; (n = std::fread(buf, 1, sizeof buf, f)) > 0;) {
    out.append(buf, n);
  }
  ::pclose(f);
  return out;
}

std::string last_line(const std::string& text) {
  std::string t = text;
  while (!t.empty() && t.back() == '\n') t.pop_back();
  const auto nl = t.rfind('\n');
  return nl == std::string::npos ? t : t.substr(nl + 1);
}

/// The unit after `key` in `text`, or "" when `key` is absent.
std::string unit_after(const std::string& text, const std::string& key) {
  const auto at = text.find(key);
  if (at == std::string::npos) return "";
  const auto u = text.find("\"unit\": \"", at);
  if (u == std::string::npos) return "";
  const auto end = text.find('"', u + 9);
  return text.substr(u + 9, end - (u + 9));
}

/// The metric is printed in the result line with a unit, and that unit
/// is the one BENCHMARK.json declares.
void expect_printed(const std::string& result, const std::string& spec,
                    const std::string& name) {
  const std::string printed =
      unit_after(result, "\"" + name + "\": {\"value\": ");
  const std::string declared = unit_after(spec, "\"name\": \"" + name + "\"");
  expect(!printed.empty() && printed == declared,
         name + " printed with unit '" + printed + "' (BENCHMARK.json: '" +
             declared + "')");
}

void every_metric_printed_or_dropped() {
  std::ifstream spec_in(PERFBENCH_SPEC);
  std::stringstream buf;
  buf << spec_in.rdbuf();
  const std::string spec = buf.str();
  // Every workload BENCHMARK.json gates is one this program runs.
  const std::string listed =
      spec.substr(spec.find("\"workloads\""),
                  spec.find("\"end_to_end\"") - spec.find("\"workloads\""));
  for (std::size_t at = listed.find("\"name\": \""); at != std::string::npos;
       at = listed.find("\"name\": \"", at + 1)) {
    const std::size_t from = at + 9;
    const std::string w = listed.substr(from, listed.find('"', from) - from);
    const auto& known = pb::workload_names();
    expect(std::find(known.begin(), known.end(), w) != known.end(),
           "BENCHMARK.json workload " + w + " is runnable");
  }
  for (const pb::CatalogEntry& c : pb::metric_catalog()) {
    expect(c.reported != "dropped" || !c.reason.empty(),
           "catalog entry " + c.name + " is reported or dropped with a reason");
  }

  const std::string base = std::string(PERFBENCH_BIN) +
                           " --workload session-mix --seed 5 --seconds 2 "
                           "--daemon " PERFBENCH_DAEMON " --out selftest-out";
  const std::string untraced = run_capture(base + " --trace 0");
  const std::string e2e = last_line(untraced);
  expect(e2e.find("\"correct\": true") != std::string::npos,
         "untraced run answers correctly");
  for (const std::string& n : pb::end_to_end_names()) {
    expect_printed(e2e, spec, n);
  }
  for (const pb::CatalogEntry& c : pb::metric_catalog()) {
    if (c.reported == "dropped") {
      expect(untraced.find("dropped " + c.name + ": ") != std::string::npos,
             "run output records " + c.name + " as dropped");
    } else if (c.reported == "workload:session-mix") {
      expect(untraced.find(" " + c.name + " ") != std::string::npos,
             "session-mix prints " + c.name);
    }
  }
  const std::string layer = last_line(run_capture(base + " --trace 1"));
  for (const std::string& n : pb::per_layer_names()) {
    expect_printed(layer, spec, n);
  }
}

}  // namespace

int main() {
  checker_flags_flipped_bit();
  stalled_daemon_shows_as_latency();
  every_metric_printed_or_dropped();
  std::printf("%d failure(s)\n", g_failures);
  return g_failures == 0 ? 0 : 1;
}
