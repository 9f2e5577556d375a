// l3d_perfbench — one end-to-end run of one workload.
//
//   l3d_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                 --daemon PATH/serve_daemon --out DIR
//
// --trace 0 measures the workload untraced and prints the gated end-to-end
// metrics.  --trace 1 runs it twice for S/2 each, untraced then traced
// (benchmark spans + LIQUID3D_TRACE=1 daemon spans + obs histograms), adds
// the in-process layer probes, and prints the per-layer metrics plus the
// tracing overhead.  The last stdout line is the JSON result; the full
// record (host, sample counts, notes, findings, self times, spans) goes to
// DIR.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>

#include "common/parse.hpp"
#include "workloads.hpp"

namespace {

using namespace pb;

void print_report(const char* scope, const Report& r) {
  for (const auto& [name, m] : r.all()) {
    std::printf("metric %s %s %.6g %s", scope, name.c_str(), m.value,
                m.unit.c_str());
    if (m.samples > 0) std::printf(" n=%zu", m.samples);
    if (!m.note.empty()) std::printf("  # %s", m.note.c_str());
    std::printf("\n");
  }
}

std::string report_json(const Report& r) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, m] : r.all()) {
    if (!first) out += ", ";
    first = false;
    out += json_string(name) + ": {\"value\": " + json_number(m.value) +
           ", \"unit\": " + json_string(m.unit) +
           ", \"samples\": " + std::to_string(m.samples) +
           ", \"note\": " + json_string(m.note) + "}";
  }
  return out + "}";
}

void write_record(const std::string& path, const Ctx& ctx, bool traced,
                  const Pass& p, const Report& layer,
                  const std::map<std::string, double>& self_ms) {
  std::ofstream out(path);
  out << "{\"workload\": " << json_string(ctx.workload)
      << ", \"seed\": " << ctx.seed << ", \"seconds\": " << ctx.seconds
      << ", \"trace\": " << (traced ? 1 : 0) << ",\n \"host\": " << host_json()
      << ",\n \"end_to_end\": " << report_json(p.e2e)
      << ",\n \"workload_metrics\": " << report_json(p.named)
      << ",\n \"per_layer\": " << report_json(layer)
      << ",\n \"self_ms\": {";
  bool first = true;
  for (const auto& [layer_name, ms] : self_ms) {
    out << (first ? "" : ", ") << json_string(layer_name) << ": "
        << json_number(ms);
    first = false;
  }
  out << "},\n \"attempted\": " << p.attempted << ", \"failed\": " << p.failed
      << ", \"wrong\": " << p.wrong << ",\n \"findings\": [";
  for (std::size_t i = 0; i < p.findings.size(); ++i) {
    out << (i ? ", " : "") << json_string(p.findings[i]);
  }
  out << "],\n \"catalog\": [";
  const auto& cat = metric_catalog();
  for (std::size_t i = 0; i < cat.size(); ++i) {
    out << (i ? ",\n  " : "\n  ") << "{\"name\": " << json_string(cat[i].name)
        << ", \"reported\": " << json_string(cat[i].reported)
        << ", \"reason\": " << json_string(cat[i].reason) << "}";
  }
  out << "]}\n";
}

void write_spans(const std::string& path, const Pass& p) {
  std::ofstream out(path);
  for (const Span& s : SpanLog::global().snapshot()) {
    out << "{\"src\": \"bench\", \"trace\": " << s.trace << ", \"id\": " << s.id
        << ", \"parent\": " << s.parent << ", \"name\": " << json_string(s.name)
        << ", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
        << "}\n";
  }
  for (const auto& s : p.daemon_spans) {
    out << "{\"src\": \"daemon\", \"trace\": " << s.trace_id
        << ", \"id\": " << s.span_id << ", \"parent\": " << s.parent_id
        << ", \"name\": " << json_string(s.stage)
        << ", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
        << "}\n";
  }
}

int usage() {
  std::cerr << "usage: l3d_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --daemon PATH --out DIR\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Ctx ctx;
  int trace = 0;
  std::string out_dir;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      ctx.workload = value;
    } else if (flag == "--seed") {
      ctx.seed = liquid3d::parse_u64(value, "--seed");
    } else if (flag == "--seconds") {
      ctx.seconds = liquid3d::parse_double(value, "--seconds");
    } else if (flag == "--trace") {
      trace = static_cast<int>(liquid3d::parse_u64(value, "--trace"));
    } else if (flag == "--daemon") {
      ctx.daemon_bin = value;
    } else if (flag == "--out") {
      out_dir = value;
    } else {
      return usage();
    }
  }
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), ctx.workload) == names.end() ||
      ctx.daemon_bin.empty() || out_dir.empty() || ctx.seconds <= 0.0 ||
      trace < 0 || trace > 1) {
    return usage();
  }
  ctx.threads = std::min(4u, nproc());
  ctx.work_dir = out_dir + "/work-" + ctx.workload + "-" +
                 std::to_string(::getpid());
  try {
    std::filesystem::create_directories(ctx.work_dir);
    std::printf("host %s\n", host_json().c_str());
    std::fflush(stdout);
    const auto steal0 = cpu_steal_ticks();
    Pass result;
    Report layer;
    if (trace == 0) {
      result = run_workload(ctx, ctx.workload, ctx.seconds, false);
    } else {
      const Pass base = run_workload(ctx, ctx.workload, ctx.seconds / 2, false);
      result = run_workload(ctx, ctx.workload, ctx.seconds / 2, true);
      layer = result.layer;
      probe_layers(ctx, layer);
      for (const std::string& n : end_to_end_names()) {
        const double b = base.e2e.at(n).value;
        layer.set("obs.trace_overhead." + n,
                  b != 0.0 ? result.e2e.at(n).value / b - 1.0 : 0.0, "ratio", 0,
                  "traced / untraced - 1, same run");
      }
      result.attempted += base.attempted;
      result.failed += base.failed;
      result.wrong += base.wrong;
      result.findings.insert(result.findings.end(), base.findings.begin(),
                             base.findings.end());
    }
    std::filesystem::remove_all(ctx.work_dir);
    const auto steal1 = cpu_steal_ticks();
    const double ticks = steal1.second - steal0.second;
    result.named.set("host_steal_share",
                     ticks > 0 ? (steal1.first - steal0.first) / ticks : 0.0,
                     "ratio", 0, "CPU time stolen by other guests during the run");

    const std::vector<Span> spans = SpanLog::global().snapshot();
    const std::map<std::string, double> self_ms = SpanLog::self_ms(spans);
    print_report("end_to_end", result.e2e);
    print_report("workload", result.named);
    if (trace == 1) {
      print_report("per_layer", layer);
      for (const auto& [l, ms] : self_ms) {
        std::printf("self_ms %s %.3f\n", l.c_str(), ms);
      }
    }
    for (const auto& c : metric_catalog()) {
      if (c.reported == "dropped") {
        std::printf("dropped %s: %s\n", c.name.c_str(), c.reason.c_str());
      }
    }
    for (const std::string& f : result.findings) {
      std::printf("finding %s\n", f.c_str());
    }
    const std::string stem = out_dir + "/" + ctx.workload + "-seed" +
                             std::to_string(ctx.seed) + "-trace" +
                             std::to_string(trace);
    write_record(stem + ".json", ctx, trace == 1, result, layer, self_ms);
    if (trace == 1) write_spans(stem + "-spans.jsonl", result);

    const std::vector<std::string>& wanted =
        trace == 0 ? end_to_end_names() : per_layer_names();
    const Report& metrics = trace == 0 ? result.e2e : layer;
    for (const std::string& n : wanted) {
      if (!metrics.has(n)) {
        std::cerr << "l3d_perfbench: metric " << n << " was not measured\n";
        return 1;
      }
    }
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": %s}\n",
                result.wrong == 0 ? "true" : "false", result.attempted,
                result.failed, metrics.json(wanted).c_str());
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "l3d_perfbench: " << e.what() << "\n";
    return 1;
  }
}
