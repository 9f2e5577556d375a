#include "sim/report.hpp"

#include <cstdio>
#include <cstdlib>
#include <istream>
#include <iterator>
#include <ostream>

#include "common/csv.hpp"
#include "common/error.hpp"
#include "common/parse.hpp"

namespace liquid3d {

namespace {

// One declaration-ordered field list keeps the CSV header, CSV rows, JSON
// objects, and the CSV reader in sync.  `counts` are emitted as integers.
struct NumericField {
  const char* name;
  double (*get)(const SimulationResult&);
  void (*set)(SimulationResult&, double);
  bool integral;
};

#define LIQUID3D_DOUBLE_FIELD(f)                       \
  {#f, [](const SimulationResult& r) { return r.f; },  \
   [](SimulationResult& r, double v) { r.f = v; }, false}
#define LIQUID3D_COUNT_FIELD(f)                                            \
  {#f, [](const SimulationResult& r) { return static_cast<double>(r.f); }, \
   [](SimulationResult& r, double v) { r.f = static_cast<std::size_t>(v); }, true}

const NumericField kNumericFields[] = {
    LIQUID3D_DOUBLE_FIELD(hotspot_percent),
    LIQUID3D_DOUBLE_FIELD(hotspot_max_sample),
    LIQUID3D_DOUBLE_FIELD(above_target_percent),
    LIQUID3D_DOUBLE_FIELD(spatial_gradient_percent),
    LIQUID3D_DOUBLE_FIELD(thermal_cycles_per_1000),
    LIQUID3D_DOUBLE_FIELD(avg_tmax),
    LIQUID3D_DOUBLE_FIELD(chip_energy_j),
    LIQUID3D_DOUBLE_FIELD(pump_energy_j),
    LIQUID3D_DOUBLE_FIELD(total_energy_j),
    LIQUID3D_DOUBLE_FIELD(throughput_per_s),
    LIQUID3D_DOUBLE_FIELD(avg_utilization),
    LIQUID3D_COUNT_FIELD(migrations),
    LIQUID3D_COUNT_FIELD(pump_transitions),
    LIQUID3D_COUNT_FIELD(valve_transitions),
    LIQUID3D_DOUBLE_FIELD(avg_flow_skew),
    LIQUID3D_COUNT_FIELD(predictor_rebuilds),
    LIQUID3D_DOUBLE_FIELD(forecast_rmse),
    LIQUID3D_DOUBLE_FIELD(avg_pump_setting),
    LIQUID3D_DOUBLE_FIELD(elapsed_s),
};

#undef LIQUID3D_DOUBLE_FIELD
#undef LIQUID3D_COUNT_FIELD

std::string format_number(const NumericField& f, const SimulationResult& r) {
  const double v = f.get(r);
  if (!f.integral) return format_double(v);
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.0f", v);
  return buf;
}

void write_csv_row(std::ostream& out, const std::vector<std::string>& row) {
  out << to_csv_line(row);  // common/csv.hpp RFC-4180 quoting
}

/// Strict double parse for one named column; format_double output
/// round-trips through here bit-exactly.
double parse_number(const std::string& text, const char* column) {
  return parse_double(text, "column '" + std::string(column) + "'");
}

void write_json_string(std::ostream& out, const std::string& s) {
  out << '"';
  for (const char c : s) {
    switch (c) {
      case '"': out << "\\\""; break;
      case '\\': out << "\\\\"; break;
      case '\n': out << "\\n"; break;
      case '\t': out << "\\t"; break;
      default: out << c;
    }
  }
  out << '"';
}

void write_result_json(std::ostream& out, const SimulationResult& r,
                       const char* indent) {
  out << indent << "{\"label\": ";
  write_json_string(out, r.label);
  out << ", \"benchmark\": ";
  write_json_string(out, r.benchmark);
  for (const NumericField& f : kNumericFields) {
    out << ", \"" << f.name << "\": " << format_number(f, r);
  }
  out << "}";
}

void write_json_array(std::ostream& out, const std::vector<SimulationResult>& rs,
                      const char* indent) {
  out << "[\n";
  for (std::size_t i = 0; i < rs.size(); ++i) {
    write_result_json(out, rs[i], indent);
    out << (i + 1 < rs.size() ? ",\n" : "\n");
  }
  out << "]";
}

}  // namespace

const std::vector<std::string>& simulation_result_csv_header() {
  static const std::vector<std::string> header = [] {
    std::vector<std::string> h = {"label", "benchmark"};
    for (const NumericField& f : kNumericFields) h.emplace_back(f.name);
    return h;
  }();
  return header;
}

std::vector<std::string> to_csv_row(const SimulationResult& r) {
  std::vector<std::string> row = {r.label, r.benchmark};
  for (const NumericField& f : kNumericFields) row.push_back(format_number(f, r));
  return row;
}

SimulationResult simulation_result_from_csv_row(
    const std::vector<std::string>& row) {
  const std::vector<std::string>& header = simulation_result_csv_header();
  LIQUID3D_REQUIRE(row.size() == header.size(),
                   "result row arity mismatch: got " +
                       std::to_string(row.size()) + " columns, expected " +
                       std::to_string(header.size()));
  SimulationResult r;
  r.label = row[0];
  r.benchmark = row[1];
  for (std::size_t i = 0; i < std::size(kNumericFields); ++i) {
    const NumericField& f = kNumericFields[i];
    // Counts were written as integers; parse them as such so "-1" or "3.7"
    // fails loudly instead of wrapping/truncating into a plausible value.
    const double v =
        f.integral
            ? static_cast<double>(parse_u64(
                  row[2 + i], "column '" + std::string(f.name) + "'"))
            : parse_number(row[2 + i], f.name);
    f.set(r, v);
  }
  return r;
}

bool results_identical(const SimulationResult& a, const SimulationResult& b) {
  if (a.label != b.label || a.benchmark != b.benchmark) return false;
  for (const NumericField& f : kNumericFields) {
    if (f.get(a) != f.get(b)) return false;
  }
  return true;
}

void write_results_csv(std::ostream& out,
                       const std::vector<SimulationResult>& results) {
  write_csv_row(out, simulation_result_csv_header());
  for (const SimulationResult& r : results) write_csv_row(out, to_csv_row(r));
}

std::vector<SimulationResult> read_results_csv(std::istream& in) {
  std::vector<std::string> record;
  LIQUID3D_REQUIRE(read_csv_record(in, record) &&
                       record == simulation_result_csv_header(),
                   "results CSV: missing or mismatched header row");
  std::vector<SimulationResult> results;
  std::size_t row_number = 1;  // the header was row 1
  while (read_csv_record(in, record)) {
    ++row_number;
    try {
      results.push_back(simulation_result_from_csv_row(record));
    } catch (const ConfigError& e) {
      throw ConfigError("results CSV row " + std::to_string(row_number) +
                        ": " + e.what());
    }
  }
  return results;
}

void write_results_json(std::ostream& out,
                        const std::vector<SimulationResult>& results) {
  write_json_array(out, results, "  ");
  out << "\n";
}

void write_summaries_csv(std::ostream& out,
                         const std::vector<PolicySummary>& summaries) {
  std::vector<std::string> header = {"policy"};
  const auto& result_header = simulation_result_csv_header();
  header.insert(header.end(), result_header.begin(), result_header.end());
  write_csv_row(out, header);
  for (const PolicySummary& s : summaries) {
    for (const SimulationResult& r : s.per_workload) {
      std::vector<std::string> row = {s.label};
      const std::vector<std::string> result_row = to_csv_row(r);
      row.insert(row.end(), result_row.begin(), result_row.end());
      write_csv_row(out, row);
    }
  }
}

void write_summaries_json(std::ostream& out,
                          const std::vector<PolicySummary>& summaries) {
  out << "[\n";
  for (std::size_t i = 0; i < summaries.size(); ++i) {
    const PolicySummary& s = summaries[i];
    out << "  {\"label\": ";
    write_json_string(out, s.label);
    out << ",\n   \"aggregates\": {"
        << "\"mean_hotspot_percent\": " << format_double(s.mean_hotspot_percent())
        << ", \"max_hotspot_percent\": " << format_double(s.max_hotspot_percent())
        << ", \"mean_above_target_percent\": "
        << format_double(s.mean_above_target_percent())
        << ", \"mean_gradient_percent\": " << format_double(s.mean_gradient_percent())
        << ", \"mean_cycles_per_1000\": " << format_double(s.mean_cycles_per_1000())
        << ", \"total_chip_energy\": " << format_double(s.total_chip_energy())
        << ", \"total_pump_energy\": " << format_double(s.total_pump_energy())
        << ", \"total_throughput\": " << format_double(s.total_throughput()) << "},\n"
        << "   \"per_workload\": ";
    write_json_array(out, s.per_workload, "     ");
    out << "}" << (i + 1 < summaries.size() ? ",\n" : "\n");
  }
  out << "]\n";
}

}  // namespace liquid3d
