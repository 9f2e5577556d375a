// config_identity.hpp — the one canonical identity of a configuration's
// physical system, the key source of every memoized build: the flow LUT
// and TALB tables (sim/characterization_cache), the thermal service's
// pooled models and ROMs (serve/service).
//
// Computed once per config from one field list, in three parts that the
// caches combine:
//
//   * system — the resolved stack spec's exact text
//     (encode_stack_spec(resolved_stack_spec(cfg)), length-prefixed), the
//     cooling type (max and var flow build identical models), the delivery
//     mode, and every ThermalModelParams field except the two boundary
//     references.  The solver backend enters *resolved*: a kAuto config and
//     an explicit request that resolve alike build bit-identical artifacts
//     and share entries, and the PCG knobs enter only when the backend
//     resolves to PCG, for the same reason;
//   * refs — the inlet and ambient temperatures;
//   * power — the PowerModelParams.
//
// Keys:  model = system + refs        ROM  = system + flow vector
//        TALB  = system + refs + power
//        LUT   = system + refs + power + LUT target + worker count
//
// The ROM key leaves the references out because the reduced model answers
// any reference exactly (its steady map is affine in it).  Doubles print
// via format_double and every field ends in ',', so keys are exact
// strings: equal keys mean equal inputs, and no hash decides equality.
#pragma once

#include <string>

#include "sim/session.hpp"

namespace liquid3d {

struct ConfigIdentity {
  std::string system;
  std::string refs;
  std::string power;
};

/// Throws ConfigError when the config's stack does not resolve.
[[nodiscard]] ConfigIdentity config_identity(const SimulationConfig& cfg);

/// The `refs` part alone, for callers that override a boundary reference.
[[nodiscard]] std::string refs_identity(const ThermalModelParams& thermal);

}  // namespace liquid3d
