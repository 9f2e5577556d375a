#include "sim/config_identity.hpp"

#include "common/parse.hpp"
#include "geom/stack_spec.hpp"
#include "thermal/solver/backend.hpp"

namespace liquid3d {

namespace {

void field(std::string& key, double v) {
  key += format_double(v);
  key += ',';
}

void field(std::string& key, std::size_t v) {
  key += std::to_string(v);
  key += ',';
}

void field(std::string& key, const char* v) {
  key += v;
  key += ',';
}

}  // namespace

ConfigIdentity config_identity(const SimulationConfig& cfg) {
  ConfigIdentity id;
  const StackSpec spec = resolved_stack_spec(cfg);
  const std::string stack_text = encode_stack_spec(spec);
  std::string& key = id.system;
  field(key, stack_text.size());
  key += stack_text;
  key += ',';
  field(key, to_string(spec.cooling));
  field(key, to_string(cfg.delivery_mode));

  // Every numeric parameter the model consumes: the grid resolution matters
  // (temperatures are grid-dependent) and so do the solver knobs (direct and
  // iterative paths agree only to tolerance).
  const ThermalModelParams& t = cfg.thermal;
  field(key, t.grid_rows);
  field(key, t.grid_cols);
  field(key, t.silicon_conductivity);
  field(key, t.silicon_volumetric_heat_capacity);
  field(key, t.bond_conductivity);
  field(key, t.cavity_wall_conductivity);
  field(key, t.channel_params.beol_thickness);
  field(key, t.channel_params.beol_conductivity);
  field(key, t.channel_params.heat_transfer_coeff);
  field(key, t.coolant.heat_capacity);
  field(key, t.coolant.density);
  field(key, t.coolant.conductivity);
  field(key, t.coolant.dynamic_viscosity);
  field(key, t.tim_thickness);
  field(key, t.tim_conductivity);
  field(key, t.spreader_capacitance);
  field(key, t.sink_capacitance);
  field(key, t.spreader_to_sink_resistance);
  field(key, t.sink_to_ambient_resistance);
  field(key, t.alternate_flow_direction ? "alt" : "noalt");
  field(key, t.fluid_tolerance);
  field(key, t.max_fluid_iterations);
  field(key, t.steady_fluid_iterations);
  field(key, t.steady_pseudo_dt);
  field(key, t.steady_tolerance);
  field(key, t.max_steady_iterations);
  field(key, t.direct_steady_solver ? "direct" : "pseudo");
  const std::size_t layers = spec.layers.size();
  const SolverBackend backend = resolve_solver_backend(
      t.solver_backend, t.grid_rows * t.grid_cols * layers, t.grid_cols * layers);
  field(key, to_string(backend));
  if (backend == SolverBackend::kPcg) {
    field(key, t.pcg.tolerance);
    field(key, t.pcg.max_iterations);
    field(key, to_string(t.pcg.preconditioner));
    field(key, t.pcg.ssor_omega);
  }

  id.refs = refs_identity(t);

  const PowerModelParams& p = cfg.power;
  field(id.power, p.core_active_w);
  field(id.power, p.core_idle_w);
  field(id.power, p.core_sleep_w);
  field(id.power, p.l2_w);
  field(id.power, p.crossbar_max_w);
  field(id.power, p.crossbar_floor_frac);
  field(id.power, p.misc_w_per_m2);
  field(id.power, p.core_leak_ref_w);
  field(id.power, p.l2_leak_ref_w);
  field(id.power, p.crossbar_leak_ref_w);
  field(id.power, p.misc_leak_ref_w_per_m2);
  field(id.power, p.leakage.reference_temperature);
  field(id.power, p.leakage.linear_coeff);
  field(id.power, p.leakage.quadratic_coeff);
  return id;
}

std::string refs_identity(const ThermalModelParams& thermal) {
  std::string key;
  field(key, thermal.inlet_temperature);
  field(key, thermal.ambient_temperature);
  return key;
}

}  // namespace liquid3d
