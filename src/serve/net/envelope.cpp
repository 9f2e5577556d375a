#include "serve/net/envelope.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/parse.hpp"
#include "geom/stack_spec.hpp"
#include "thermal/solver/backend.hpp"
#include "thermal/solver/pcg.hpp"

namespace liquid3d {

namespace {

constexpr std::string_view kMagic = "liquid3d-serve";

// -- scalar formatting --------------------------------------------------------

std::string fmt_u64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%llu", static_cast<unsigned long long>(v));
  return buf;
}

// -- enum spellings -----------------------------------------------------------

const char* cooling_name(CoolingMode m) {
  switch (m) {
    case CoolingMode::kAir: return "air";
    case CoolingMode::kLiquidMax: return "liquid-max";
    case CoolingMode::kLiquidVar: return "liquid-var";
  }
  return "?";
}

CoolingMode cooling_from_name(const std::string& s, const std::string& what) {
  if (s == "air") return CoolingMode::kAir;
  if (s == "liquid-max") return CoolingMode::kLiquidMax;
  if (s == "liquid-var") return CoolingMode::kLiquidVar;
  throw ConfigError(what + ": unknown cooling mode '" + s + "'");
}

FlowDeliveryMode delivery_from_name(const std::string& s,
                                    const std::string& what) {
  if (s == "paper-nominal") return FlowDeliveryMode::kPaperNominal;
  if (s == "pressure-limited") return FlowDeliveryMode::kPressureLimited;
  throw ConfigError(what + ": unknown delivery mode '" + s + "'");
}

const char* error_code_name(WireErrorCode code) { return to_string(code); }

WireErrorCode error_code_from_name(const std::string& s,
                                   const std::string& what) {
  if (s == "bad-request") return WireErrorCode::kBadRequest;
  if (s == "overloaded") return WireErrorCode::kOverloaded;
  if (s == "deadline-exceeded") return WireErrorCode::kDeadlineExceeded;
  if (s == "shutting-down") return WireErrorCode::kShuttingDown;
  if (s == "solver") return WireErrorCode::kSolver;
  if (s == "internal") return WireErrorCode::kInternal;
  throw ConfigError(what + ": unknown error code '" + s + "'");
}

// -- key/value writer ---------------------------------------------------------

struct Writer {
  std::string out;

  void header(const char* tag) {
    out += kMagic;
    out += ' ';
    out += fmt_u64(kServeWireVersion);
    out += ' ';
    out += tag;
    out += '\n';
  }
  void kv(const char* key, const std::string& value) {
    out += key;
    out += ' ';
    out += value;
    out += '\n';
  }
  void num(const char* key, double v) { kv(key, format_double(v)); }
  template <class T, std::enable_if_t<std::is_unsigned_v<T>, int> = 0>
  void num(const char* key, T v) {
    kv(key, fmt_u64(static_cast<std::uint64_t>(v)));
  }
  void flag(const char* key, bool v) { kv(key, v ? "1" : "0"); }
  void text(const char* key, const std::string& v) { kv(key, percent_encode(v)); }
  void list(const char* key, const std::vector<double>& v) {
    if (v.empty()) return;
    std::string joined;
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (i > 0) joined += ',';
      joined += format_double(v[i]);
    }
    kv(key, joined);
  }
};

std::vector<double> parse_double_list(const std::string& s,
                                      const std::string& what) {
  std::vector<double> out;
  for (std::size_t pos = 0; pos <= s.size();) {
    const std::size_t comma = std::min(s.find(',', pos), s.size());
    out.push_back(parse_double(s.substr(pos, comma - pos), what));
    pos = comma + 1;
  }
  return out;
}

// -- the thermal-parameter field table ----------------------------------------
// One enumeration drives both encode and decode, so the two cannot drift.
// Every field of ThermalModelParams is on the wire: the model key (and so
// bit-identity with an in-process call) depends on all of them.

template <class F>
void visit_thermal(ThermalModelParams& t, F&& f) {
  f("t.grid_rows", t.grid_rows);
  f("t.grid_cols", t.grid_cols);
  f("t.silicon_conductivity", t.silicon_conductivity);
  f("t.silicon_volumetric_heat_capacity", t.silicon_volumetric_heat_capacity);
  f("t.bond_conductivity", t.bond_conductivity);
  f("t.cavity_wall_conductivity", t.cavity_wall_conductivity);
  f("t.inlet_temperature", t.inlet_temperature);
  f("t.ambient_temperature", t.ambient_temperature);
  f("t.beol_thickness", t.channel_params.beol_thickness);
  f("t.beol_conductivity", t.channel_params.beol_conductivity);
  f("t.heat_transfer_coeff", t.channel_params.heat_transfer_coeff);
  f("t.coolant_heat_capacity", t.coolant.heat_capacity);
  f("t.coolant_density", t.coolant.density);
  f("t.coolant_conductivity", t.coolant.conductivity);
  f("t.coolant_dynamic_viscosity", t.coolant.dynamic_viscosity);
  f("t.tim_thickness", t.tim_thickness);
  f("t.tim_conductivity", t.tim_conductivity);
  f("t.spreader_capacitance", t.spreader_capacitance);
  f("t.sink_capacitance", t.sink_capacitance);
  f("t.spreader_to_sink_resistance", t.spreader_to_sink_resistance);
  f("t.sink_to_ambient_resistance", t.sink_to_ambient_resistance);
  f("t.alternate_flow_direction", t.alternate_flow_direction);
  f("t.fluid_tolerance", t.fluid_tolerance);
  f("t.max_fluid_iterations", t.max_fluid_iterations);
  f("t.steady_fluid_iterations", t.steady_fluid_iterations);
  f("t.steady_pseudo_dt", t.steady_pseudo_dt);
  f("t.steady_tolerance", t.steady_tolerance);
  f("t.max_steady_iterations", t.max_steady_iterations);
  f("t.direct_steady_solver", t.direct_steady_solver);
  f("t.pcg_tolerance", t.pcg.tolerance);
  f("t.pcg_max_iterations", t.pcg.max_iterations);
  f("t.pcg_ssor_omega", t.pcg.ssor_omega);
}

void write_thermal(Writer& w, const ThermalModelParams& params) {
  ThermalModelParams t = params;  // visitor takes mutable refs
  visit_thermal(t, [&w](const char* key, auto& field) {
    using T = std::remove_reference_t<decltype(field)>;
    if constexpr (std::is_same_v<T, bool>) {
      w.flag(key, field);
    } else {
      w.num(key, field);
    }
  });
  w.kv("t.solver_backend", to_string(t.solver_backend));
  w.kv("t.pcg_preconditioner", to_string(t.pcg.preconditioner));
}

bool apply_thermal_field(ThermalModelParams& t, const std::string& key,
                         const std::string& value, const std::string& what) {
  if (key == "t.solver_backend") {
    t.solver_backend = solver_backend_from_name(value);
    return true;
  }
  if (key == "t.pcg_preconditioner") {
    t.pcg.preconditioner = pcg_preconditioner_from_name(value);
    return true;
  }
  bool hit = false;
  visit_thermal(t, [&](const char* name, auto& field) {
    if (hit || key != name) return;
    hit = true;
    using T = std::remove_reference_t<decltype(field)>;
    if constexpr (std::is_same_v<T, bool>) {
      LIQUID3D_REQUIRE(value == "0" || value == "1",
                       what + ": " + key + " must be 0 or 1, got '" + value + "'");
      field = value == "1";
    } else if constexpr (std::is_same_v<T, std::size_t>) {
      field = static_cast<std::size_t>(parse_u64(value, what + ": " + key));
    } else {
      field = parse_double(value, what + ": " + key);
    }
  });
  return hit;
}

// -- the SimulationResult field table -----------------------------------------

template <class F>
void visit_result(SimulationResult& r, F&& f) {
  f("r.hotspot_percent", r.hotspot_percent);
  f("r.hotspot_max_sample", r.hotspot_max_sample);
  f("r.above_target_percent", r.above_target_percent);
  f("r.spatial_gradient_percent", r.spatial_gradient_percent);
  f("r.thermal_cycles_per_1000", r.thermal_cycles_per_1000);
  f("r.avg_tmax", r.avg_tmax);
  f("r.chip_energy_j", r.chip_energy_j);
  f("r.pump_energy_j", r.pump_energy_j);
  f("r.total_energy_j", r.total_energy_j);
  f("r.throughput_per_s", r.throughput_per_s);
  f("r.avg_utilization", r.avg_utilization);
  f("r.migrations", r.migrations);
  f("r.pump_transitions", r.pump_transitions);
  f("r.valve_transitions", r.valve_transitions);
  f("r.avg_flow_skew", r.avg_flow_skew);
  f("r.predictor_rebuilds", r.predictor_rebuilds);
  f("r.forecast_rmse", r.forecast_rmse);
  f("r.avg_pump_setting", r.avg_pump_setting);
  f("r.elapsed_s", r.elapsed_s);
}

// -- the ServeStats field table -----------------------------------------------

template <class F>
void visit_stats(ServeStats& s, F&& f) {
  f("steady_queries", s.steady_queries);
  f("rom_hits", s.rom_hits);
  f("rom_builds", s.rom_builds);
  f("rom_fallbacks", s.rom_fallbacks);
  f("rom_evictions", s.rom_evictions);
  f("full_solves", s.full_solves);
  f("model_evictions", s.model_evictions);
  f("session_queries", s.session_queries);
  f("batches", s.batches);
  f("batched_sessions", s.batched_sessions);
  f("max_batch", s.max_batch);
  f("solo_fallbacks", s.solo_fallbacks);
  f("wire_accepted", s.wire_accepted);
  f("wire_rejected", s.wire_rejected);
  f("wire_timed_out", s.wire_timed_out);
  f("wire_connections", s.wire_connections);
  f("wire_queue_hwm", s.wire_queue_hwm);
  f("wire_queue_hwm_window", s.wire_queue_hwm_window);
}

// -- payload encoders ---------------------------------------------------------

void write_envelope_prefix(Writer& w, const char* tag, std::uint64_t id,
                           double deadline_ms) {
  w.header(tag);
  w.num("id", id);
  w.num("deadline_ms", deadline_ms);
}

void write_steady(Writer& w, const SteadyQuery& q) {
  const SimulationConfig& cfg = q.config;
  w.kv("cooling", cooling_name(cfg.cooling));
  w.num("layer_pairs", cfg.layer_pairs);
  if (cfg.stack) w.kv("stack", encode_stack_spec(*cfg.stack));
  w.kv("delivery_mode", to_string(cfg.delivery_mode));
  write_thermal(w, cfg.thermal);
  w.num("core_watts", q.core_watts);
  if (!q.block_watts.empty()) {
    std::string packed;
    for (std::size_t l = 0; l < q.block_watts.size(); ++l) {
      if (l > 0) packed += ';';
      packed += fmt_u64(l);
      packed += ':';
      for (std::size_t b = 0; b < q.block_watts[l].size(); ++b) {
        if (b > 0) packed += ',';
        packed += format_double(q.block_watts[l][b]);
      }
    }
    w.kv("block_watts", packed);
  }
  w.list("flows_ml_per_min", q.flows_ml_per_min);
  w.list("valve_openings", q.valve_openings);
  w.num("pump_setting", q.pump_setting);
  if (q.reference_c) w.num("reference_c", *q.reference_c);
  w.num("max_error_c", q.max_error_c);
  w.flag("force_full", q.force_full);
}

void write_whatif(Writer& w, const WhatIfQuery& q) {
  w.text("scenario", q.scenario);
  w.text("benchmark", q.benchmark);
  w.num("duration_s", q.duration_s);
  w.num("seed", q.seed);
  w.num("layer_pairs", q.layer_pairs);
  if (q.stack) w.kv("stack", encode_stack_spec(*q.stack));
  w.num("grid_rows", q.grid_rows);
  w.num("grid_cols", q.grid_cols);
}

void write_replay(Writer& w, const ReplayQuery& q) {
  write_whatif(w, q.base);
  for (const PhaseChange& p : q.phases) {
    w.kv("phase", fmt_u64(static_cast<std::uint64_t>(p.at.as_ms())) + ":" +
                      format_double(p.utilization_scale));
  }
  w.num("trace_period_s", q.trace_period_s);
}

void write_steady_answer(Writer& w, const SteadyAnswer& a) {
  w.num("t_max_c", a.t_max_c);
  w.list("layer_max_c", a.layer_max_c);
  w.flag("used_rom", a.used_rom);
  w.num("estimated_error_c", a.estimated_error_c);
  w.num("certified_error_c", a.certified_error_c);
  w.num("rom_dimension", a.rom_dimension);
  w.num("elapsed_us", a.elapsed_us);
}

void write_outcome(Writer& w, const SessionOutcome& o) {
  SimulationResult r = o.result;  // visitor takes mutable refs
  w.text("r.label", r.label);
  w.text("r.benchmark", r.benchmark);
  visit_result(r, [&w](const char* key, auto& field) { w.num(key, field); });
  for (const SampleTrace& s : o.trace) {
    std::string line = fmt_u64(static_cast<std::uint64_t>(s.now.as_ms()));
    for (const double v : {s.tmax, s.forecast}) {
      line += ' ';
      line += format_double(v);
    }
    line += ' ';
    line += fmt_u64(s.pump_setting);
    for (const double v : {s.flow_ml_per_min, s.chip_watts, s.pump_watts,
                           s.mean_busy}) {
      line += ' ';
      line += format_double(v);
    }
    line += ' ';
    line += fmt_u64(s.queued_threads);
    w.kv("trace", line);
  }
}

void write_stats(Writer& w, const ServeStats& stats) {
  ServeStats s = stats;  // visitor takes mutable refs
  visit_stats(s, [&w](const char* key, auto& field) { w.num(key, field); });
}

// -- line reader --------------------------------------------------------------

struct Line {
  std::string key;
  std::string value;
};

/// Splits the body into `<key> <value>` lines (value may be empty).
std::vector<Line> read_lines(std::string_view body, const std::string& what) {
  std::vector<Line> lines;
  std::size_t pos = 0;
  while (pos < body.size()) {
    std::size_t eol = body.find('\n', pos);
    if (eol == std::string_view::npos) eol = body.size();
    const std::string_view line = body.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty()) continue;
    const std::size_t space = line.find(' ');
    LIQUID3D_REQUIRE(space != std::string_view::npos && space > 0,
                     what + ": malformed line '" + std::string(line) + "'");
    lines.push_back(Line{std::string(line.substr(0, space)),
                         std::string(line.substr(space + 1))});
  }
  return lines;
}

/// Header: `liquid3d-serve <version> <tag>`.  Returns the tag and the body
/// offset; rejects a foreign magic or an unsupported version.
std::string read_header(const std::string& text, std::size_t& body_pos,
                        const std::string& what) {
  std::size_t eol = text.find('\n');
  if (eol == std::string::npos) eol = text.size();
  const std::string_view header(text.data(), eol);
  body_pos = eol < text.size() ? eol + 1 : text.size();

  const std::size_t magic_end = header.find(' ');
  LIQUID3D_REQUIRE(magic_end != std::string_view::npos &&
                       header.substr(0, magic_end) == kMagic,
                   what + ": not a liquid3d-serve envelope");
  const std::size_t ver_end = header.find(' ', magic_end + 1);
  LIQUID3D_REQUIRE(ver_end != std::string_view::npos,
                   what + ": missing version/tag in header");
  const std::string version(header.substr(magic_end + 1, ver_end - magic_end - 1));
  const std::uint64_t v = parse_u64(version, what + ": envelope version");
  LIQUID3D_REQUIRE(v == kServeWireVersion,
                   what + ": unsupported envelope version " + version +
                       " (this peer speaks " + std::to_string(kServeWireVersion) +
                       ")");
  return std::string(header.substr(ver_end + 1));
}

// -- payload decoders ---------------------------------------------------------

bool apply_envelope_field(std::uint64_t& id, double& deadline_ms,
                          const Line& line, const std::string& what) {
  if (line.key == "id") {
    id = parse_u64(line.value, what + ": id");
    return true;
  }
  if (line.key == "deadline_ms") {
    deadline_ms = parse_double(line.value, what + ": deadline_ms");
    return true;
  }
  return false;
}

SteadyQuery decode_steady(const std::vector<Line>& lines, std::uint64_t& id,
                          double& deadline_ms, const std::string& what) {
  SteadyQuery q;
  for (const Line& line : lines) {
    const std::string& key = line.key;
    const std::string& value = line.value;
    if (apply_envelope_field(id, deadline_ms, line, what)) {
    } else if (key == "cooling") {
      q.config.cooling = cooling_from_name(value, what);
    } else if (key == "layer_pairs") {
      q.config.layer_pairs = static_cast<std::size_t>(parse_u64(value, what + ": " + key));
    } else if (key == "stack") {
      q.config.stack = decode_stack_spec(value, what);
    } else if (key == "delivery_mode") {
      q.config.delivery_mode = delivery_from_name(value, what);
    } else if (apply_thermal_field(q.config.thermal, key, value, what)) {
    } else if (key == "core_watts") {
      q.core_watts = parse_double(value, what + ": " + key);
    } else if (key == "block_watts") {
      for (std::size_t pos = 0; pos <= value.size();) {
        const std::size_t semi = std::min(value.find(';', pos), value.size());
        const std::string entry = value.substr(pos, semi - pos);
        pos = semi + 1;
        const std::size_t colon = entry.find(':');
        LIQUID3D_REQUIRE(colon != std::string::npos,
                         what + ": block_watts entry '" + entry +
                             "' is not LAYER:W,W,..");
        const auto layer = static_cast<std::size_t>(
            parse_u64(entry.substr(0, colon), what + ": block_watts layer"));
        if (layer >= q.block_watts.size()) q.block_watts.resize(layer + 1);
        const std::string csv = entry.substr(colon + 1);
        if (!csv.empty()) {
          q.block_watts[layer] = parse_double_list(csv, what + ": block_watts");
        }
      }
    } else if (key == "flows_ml_per_min") {
      q.flows_ml_per_min = parse_double_list(value, what + ": " + key);
    } else if (key == "valve_openings") {
      q.valve_openings = parse_double_list(value, what + ": " + key);
    } else if (key == "pump_setting") {
      q.pump_setting = static_cast<std::size_t>(parse_u64(value, what + ": " + key));
    } else if (key == "reference_c") {
      q.reference_c = parse_double(value, what + ": " + key);
    } else if (key == "max_error_c") {
      q.max_error_c = parse_double(value, what + ": " + key);
    } else if (key == "force_full") {
      q.force_full = value == "1";
    } else {
      throw ConfigError(what + ": unknown steady key '" + key + "'");
    }
  }
  return q;
}

/// Shared by whatif and replay ( `phases`/`trace_period_s` only legal for
/// replay — `replay` toggles them).
ReplayQuery decode_session_query(const std::vector<Line>& lines, bool replay,
                                 std::uint64_t& id, double& deadline_ms,
                                 const std::string& what) {
  ReplayQuery q;
  for (const Line& line : lines) {
    const std::string& key = line.key;
    const std::string& value = line.value;
    if (apply_envelope_field(id, deadline_ms, line, what)) {
    } else if (key == "scenario") {
      q.base.scenario = percent_decode(value, what + ": " + key);
    } else if (key == "benchmark") {
      q.base.benchmark = percent_decode(value, what + ": " + key);
    } else if (key == "duration_s") {
      q.base.duration_s = parse_double(value, what + ": " + key);
    } else if (key == "seed") {
      q.base.seed = parse_u64(value, what + ": " + key);
    } else if (key == "layer_pairs") {
      q.base.layer_pairs = static_cast<std::size_t>(parse_u64(value, what + ": " + key));
    } else if (key == "stack") {
      q.base.stack = decode_stack_spec(value, what);
    } else if (key == "grid_rows") {
      q.base.grid_rows = static_cast<std::size_t>(parse_u64(value, what + ": " + key));
    } else if (key == "grid_cols") {
      q.base.grid_cols = static_cast<std::size_t>(parse_u64(value, what + ": " + key));
    } else if (replay && key == "phase") {
      const std::size_t colon = value.find(':');
      LIQUID3D_REQUIRE(colon != std::string::npos,
                       what + ": phase '" + value + "' is not MS:SCALE");
      PhaseChange p;
      p.at = SimTime::from_ms(static_cast<std::int64_t>(
          parse_u64(value.substr(0, colon), what + ": phase time")));
      p.utilization_scale =
          parse_double(value.substr(colon + 1), what + ": phase scale");
      q.phases.push_back(p);
    } else if (replay && key == "trace_period_s") {
      q.trace_period_s = parse_double(value, what + ": " + key);
    } else {
      throw ConfigError(what + ": unknown " +
                        (replay ? std::string("replay") : std::string("whatif")) +
                        " key '" + key + "'");
    }
  }
  return q;
}

SteadyAnswer decode_steady_answer(const std::vector<Line>& lines,
                                  std::uint64_t& id, const std::string& what) {
  SteadyAnswer a;
  double ignored_deadline = 0.0;
  for (const Line& line : lines) {
    const std::string& key = line.key;
    const std::string& value = line.value;
    if (apply_envelope_field(id, ignored_deadline, line, what)) {
    } else if (key == "t_max_c") {
      a.t_max_c = parse_double(value, what + ": " + key);
    } else if (key == "layer_max_c") {
      a.layer_max_c = parse_double_list(value, what + ": " + key);
    } else if (key == "used_rom") {
      a.used_rom = value == "1";
    } else if (key == "estimated_error_c") {
      a.estimated_error_c = parse_double(value, what + ": " + key);
    } else if (key == "certified_error_c") {
      a.certified_error_c = parse_double(value, what + ": " + key);
    } else if (key == "rom_dimension") {
      a.rom_dimension = static_cast<std::size_t>(parse_u64(value, what + ": " + key));
    } else if (key == "elapsed_us") {
      a.elapsed_us = parse_double(value, what + ": " + key);
    } else {
      throw ConfigError(what + ": unknown steady-answer key '" + key + "'");
    }
  }
  return a;
}

SessionOutcome decode_outcome(const std::vector<Line>& lines, std::uint64_t& id,
                              const std::string& what) {
  SessionOutcome o;
  double ignored_deadline = 0.0;
  for (const Line& line : lines) {
    const std::string& key = line.key;
    const std::string& value = line.value;
    if (apply_envelope_field(id, ignored_deadline, line, what)) continue;
    if (key == "r.label") {
      o.result.label = percent_decode(value, what + ": " + key);
      continue;
    }
    if (key == "r.benchmark") {
      o.result.benchmark = percent_decode(value, what + ": " + key);
      continue;
    }
    if (key == "trace") {
      // 10 space-separated fields: ms tmax forecast pump flow chip pump_w
      // busy queued (see write_outcome).
      std::vector<std::string> parts;
      for (std::size_t pos = 0; pos <= value.size();) {
        const std::size_t space = std::min(value.find(' ', pos), value.size());
        parts.push_back(value.substr(pos, space - pos));
        pos = space + 1;
      }
      LIQUID3D_REQUIRE(parts.size() == 9,
                       what + ": trace record has " +
                           std::to_string(parts.size()) + " fields, expected 9");
      SampleTrace s;
      s.now = SimTime::from_ms(
          static_cast<std::int64_t>(parse_u64(parts[0], what + ": trace time")));
      s.tmax = parse_double(parts[1], what + ": trace tmax");
      s.forecast = parse_double(parts[2], what + ": trace forecast");
      s.pump_setting =
          static_cast<std::size_t>(parse_u64(parts[3], what + ": trace pump"));
      s.flow_ml_per_min = parse_double(parts[4], what + ": trace flow");
      s.chip_watts = parse_double(parts[5], what + ": trace chip watts");
      s.pump_watts = parse_double(parts[6], what + ": trace pump watts");
      s.mean_busy = parse_double(parts[7], what + ": trace busy");
      s.queued_threads =
          static_cast<std::size_t>(parse_u64(parts[8], what + ": trace queued"));
      o.trace.push_back(s);
      continue;
    }
    bool hit = false;
    visit_result(o.result, [&](const char* name, auto& field) {
      if (hit || key != name) return;
      hit = true;
      using T = std::remove_reference_t<decltype(field)>;
      if constexpr (std::is_same_v<T, std::size_t>) {
        field = static_cast<std::size_t>(parse_u64(value, what + ": " + key));
      } else {
        field = parse_double(value, what + ": " + key);
      }
    });
    if (!hit) throw ConfigError(what + ": unknown outcome key '" + key + "'");
  }
  return o;
}

ServeStats decode_stats(const std::vector<Line>& lines, std::uint64_t& id,
                        const std::string& what) {
  ServeStats s;
  double ignored_deadline = 0.0;
  for (const Line& line : lines) {
    if (apply_envelope_field(id, ignored_deadline, line, what)) continue;
    bool hit = false;
    visit_stats(s, [&](const char* name, auto& field) {
      if (hit || line.key != name) return;
      hit = true;
      field = static_cast<std::size_t>(
          parse_u64(line.value, what + ": " + line.key));
    });
    if (!hit) {
      throw ConfigError(what + ": unknown stats key '" + line.key + "'");
    }
  }
  return s;
}

/// One trace-answer span line:
///   <trace_id> <span_id> <parent_id> <stage> <start_ns> <end_ns>
/// (stage percent-encoded).
obs::TraceSpan decode_span(const std::string& value, const std::string& what) {
  std::vector<std::string> tokens;
  std::size_t pos = 0;
  while (pos <= value.size()) {
    std::size_t space = value.find(' ', pos);
    if (space == std::string::npos) space = value.size();
    tokens.push_back(value.substr(pos, space - pos));
    pos = space + 1;
  }
  LIQUID3D_REQUIRE(tokens.size() == 6,
                   what + ": malformed span line '" + value + "'");
  obs::TraceSpan s;
  s.trace_id = parse_u64(tokens[0], what + ": span trace_id");
  s.span_id =
      static_cast<std::uint32_t>(parse_u64(tokens[1], what + ": span id"));
  s.parent_id =
      static_cast<std::uint32_t>(parse_u64(tokens[2], what + ": span parent"));
  s.stage = percent_decode(tokens[3], what + ": span stage");
  s.start_ns = parse_u64(tokens[4], what + ": span start");
  s.end_ns = parse_u64(tokens[5], what + ": span end");
  return s;
}

ErrorReply decode_error(const std::vector<Line>& lines, std::uint64_t& id,
                        const std::string& what) {
  ErrorReply e;
  double ignored_deadline = 0.0;
  for (const Line& line : lines) {
    if (apply_envelope_field(id, ignored_deadline, line, what)) {
    } else if (line.key == "code") {
      e.code = error_code_from_name(line.value, what);
    } else if (line.key == "message") {
      e.message = percent_decode(line.value, what + ": message");
    } else {
      throw ConfigError(what + ": unknown error key '" + line.key + "'");
    }
  }
  return e;
}

}  // namespace

const char* to_string(WireErrorCode code) {
  switch (code) {
    case WireErrorCode::kBadRequest: return "bad-request";
    case WireErrorCode::kOverloaded: return "overloaded";
    case WireErrorCode::kDeadlineExceeded: return "deadline-exceeded";
    case WireErrorCode::kShuttingDown: return "shutting-down";
    case WireErrorCode::kSolver: return "solver";
    case WireErrorCode::kInternal: return "internal";
    case WireErrorCode::kProtocol: return "protocol";
    case WireErrorCode::kDisconnected: return "disconnected";
  }
  return "?";
}

std::string encode_request(const WireRequest& request) {
  Writer w;
  if (const auto* steady = std::get_if<SteadyQuery>(&request.payload)) {
    write_envelope_prefix(w, "steady", request.id, request.deadline_ms);
    write_steady(w, *steady);
  } else if (const auto* whatif = std::get_if<WhatIfQuery>(&request.payload)) {
    write_envelope_prefix(w, "whatif", request.id, request.deadline_ms);
    write_whatif(w, *whatif);
  } else if (const auto* replay = std::get_if<ReplayQuery>(&request.payload)) {
    write_envelope_prefix(w, "replay", request.id, request.deadline_ms);
    write_replay(w, *replay);
  } else if (const auto* trace = std::get_if<TraceQuery>(&request.payload)) {
    write_envelope_prefix(w, "trace", request.id, request.deadline_ms);
    if (trace->limit != 0) w.num("limit", trace->limit);
  } else if (std::get_if<MetricsQuery>(&request.payload) != nullptr) {
    write_envelope_prefix(w, "metrics", request.id, request.deadline_ms);
  } else {
    const auto& stats = std::get<StatsQuery>(request.payload);
    write_envelope_prefix(w, "stats", request.id, request.deadline_ms);
    // Emitted only when set, so plain stats requests stay byte-identical
    // to what pre-reset peers produced.
    if (stats.reset_hwm) w.flag("reset_hwm", true);
  }
  return std::move(w.out);
}

std::string encode_response(const WireResponse& response) {
  Writer w;
  if (const auto* answer = std::get_if<SteadyAnswer>(&response.payload)) {
    write_envelope_prefix(w, "steady-answer", response.id, 0.0);
    write_steady_answer(w, *answer);
  } else if (const auto* outcome = std::get_if<SessionOutcome>(&response.payload)) {
    write_envelope_prefix(w, "outcome", response.id, 0.0);
    write_outcome(w, *outcome);
  } else if (const auto* stats = std::get_if<ServeStats>(&response.payload)) {
    write_envelope_prefix(w, "stats-answer", response.id, 0.0);
    write_stats(w, *stats);
  } else if (const auto* metrics = std::get_if<MetricsAnswer>(&response.payload)) {
    write_envelope_prefix(w, "metrics-answer", response.id, 0.0);
    w.text("body", metrics->text);
  } else if (const auto* trace = std::get_if<TraceAnswer>(&response.payload)) {
    write_envelope_prefix(w, "trace-answer", response.id, 0.0);
    for (const obs::TraceSpan& s : trace->spans) {
      // One span per line: ids, percent-encoded stage, start/end ns.
      std::string line = fmt_u64(s.trace_id);
      line += ' ';
      line += fmt_u64(s.span_id);
      line += ' ';
      line += fmt_u64(s.parent_id);
      line += ' ';
      line += percent_encode(s.stage);
      line += ' ';
      line += fmt_u64(s.start_ns);
      line += ' ';
      line += fmt_u64(s.end_ns);
      w.kv("span", line);
    }
  } else {
    const auto& error = std::get<ErrorReply>(response.payload);
    write_envelope_prefix(w, "error", response.id, 0.0);
    w.kv("code", error_code_name(error.code));
    w.text("message", error.message);
  }
  return std::move(w.out);
}

WireRequest decode_request(const std::string& text) {
  const std::string what = "serve request";
  std::size_t body_pos = 0;
  const std::string tag = read_header(text, body_pos, what);
  const std::vector<Line> lines =
      read_lines(std::string_view(text).substr(body_pos), what);

  WireRequest request;
  if (tag == "steady") {
    request.payload =
        decode_steady(lines, request.id, request.deadline_ms, what);
  } else if (tag == "whatif") {
    request.payload =
        decode_session_query(lines, false, request.id, request.deadline_ms, what)
            .base;
  } else if (tag == "replay") {
    request.payload =
        decode_session_query(lines, true, request.id, request.deadline_ms, what);
  } else if (tag == "stats") {
    StatsQuery q;
    double ignored = 0.0;
    for (const Line& line : lines) {
      if (apply_envelope_field(request.id, ignored, line, what)) continue;
      if (line.key == "reset_hwm") {
        q.reset_hwm = line.value == "1";
        continue;
      }
      throw ConfigError(what + ": unknown stats key '" + line.key + "'");
    }
    request.deadline_ms = ignored;
    request.payload = q;
  } else if (tag == "metrics") {
    MetricsQuery q;
    double ignored = 0.0;
    for (const Line& line : lines) {
      LIQUID3D_REQUIRE(apply_envelope_field(request.id, ignored, line, what),
                       what + ": unknown metrics key '" + line.key + "'");
    }
    request.deadline_ms = ignored;
    request.payload = q;
  } else if (tag == "trace") {
    TraceQuery q;
    double ignored = 0.0;
    for (const Line& line : lines) {
      if (apply_envelope_field(request.id, ignored, line, what)) continue;
      if (line.key == "limit") {
        q.limit = parse_u64(line.value, what + ": limit");
        continue;
      }
      throw ConfigError(what + ": unknown trace key '" + line.key + "'");
    }
    request.deadline_ms = ignored;
    request.payload = q;
  } else {
    throw ConfigError(what + ": unknown request tag '" + tag + "'");
  }
  return request;
}

WireResponse decode_response(const std::string& text) {
  const std::string what = "serve response";
  std::size_t body_pos = 0;
  const std::string tag = read_header(text, body_pos, what);
  const std::vector<Line> lines =
      read_lines(std::string_view(text).substr(body_pos), what);

  WireResponse response;
  if (tag == "steady-answer") {
    response.payload = decode_steady_answer(lines, response.id, what);
  } else if (tag == "outcome") {
    response.payload = decode_outcome(lines, response.id, what);
  } else if (tag == "stats-answer") {
    response.payload = decode_stats(lines, response.id, what);
  } else if (tag == "metrics-answer") {
    MetricsAnswer a;
    double ignored = 0.0;
    for (const Line& line : lines) {
      if (apply_envelope_field(response.id, ignored, line, what)) continue;
      if (line.key == "body") {
        a.text = percent_decode(line.value, what + ": body");
        continue;
      }
      throw ConfigError(what + ": unknown metrics-answer key '" + line.key +
                        "'");
    }
    response.payload = std::move(a);
  } else if (tag == "trace-answer") {
    TraceAnswer a;
    double ignored = 0.0;
    for (const Line& line : lines) {
      if (apply_envelope_field(response.id, ignored, line, what)) continue;
      if (line.key == "span") {
        a.spans.push_back(decode_span(line.value, what));
        continue;
      }
      throw ConfigError(what + ": unknown trace-answer key '" + line.key +
                        "'");
    }
    response.payload = std::move(a);
  } else if (tag == "error") {
    response.payload = decode_error(lines, response.id, what);
  } else {
    throw ConfigError(what + ": unknown response tag '" + tag + "'");
  }
  return response;
}

std::uint64_t peek_request_id(const std::string& text) {
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    const std::string_view line = std::string_view(text).substr(pos, eol - pos);
    pos = eol + 1;
    if (line.substr(0, 3) == "id ") {
      std::uint64_t v = 0;
      const char* begin = line.data() + 3;
      const char* end = line.data() + line.size();
      if (std::from_chars(begin, end, v, 10).ptr == end) return v;
      return 0;
    }
  }
  return 0;
}

}  // namespace liquid3d
