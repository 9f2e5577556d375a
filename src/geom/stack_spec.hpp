// stack_spec.hpp — declarative stack compositions.
//
// A StackSpec is the serializable, single source of truth for a 3D stack's
// geometry: ordered die layers (each a named floorplan preset or inline
// block rects), the interlayer cavity geometry, the TSV bundle, and the
// cooling type.  make_stack() turns a spec into the Stack3D everything else
// consumes; the Niagara 2-/4-layer systems of the paper are preset specs
// (niagara_stack_spec) that build bit-identical stacks to the legacy
// make_niagara_stack.
//
// Specs travel three ways:
//   * stack files — a HotSpot-style sectioned text format ([stack],
//     [layer], [cavity], [tsv]) parsed with file:line-, key-named
//     ConfigErrors (parse_stack_file / load_stack_file / write_stack_file);
//   * scenario axis — ScenarioSpec::stack names a preset, an embedded spec,
//     or a stack-file path, resolved by resolve_stack_axis;
//   * sweep metadata — encode_stack_spec/decode_stack_spec pack a spec into
//     a single whitespace-free `#suite stack=` token, so remote shards
//     rebuild identical geometry without access to the original file.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "geom/stack.hpp"

namespace liquid3d {

/// "air" / "liquid" -> CoolingType; throws ConfigError otherwise.
[[nodiscard]] CoolingType cooling_type_from_name(std::string_view s);
/// "core" / "l2" / "xbar" / "misc" -> BlockType; throws ConfigError otherwise.
[[nodiscard]] BlockType block_type_from_name(std::string_view s);

/// One inline block of a layer entry (a `block NAME TYPE x y w h` row).
struct BlockEntry {
  std::string name;
  BlockType type = BlockType::kMisc;
  Rect rect;
};

/// One die layer: either a named floorplan preset or inline blocks.
struct StackLayerEntry {
  /// Floorplan preset name ("niagara-core" / "niagara-cache"); empty means
  /// the layer is described by its inline `blocks`.
  std::string floorplan;
  /// Inline rects; type_index is assigned per type in order of appearance.
  std::vector<BlockEntry> blocks;
  double die_thickness = 0.15e-3;  ///< silicon slab thickness [m]
  double beol_thickness = 12e-6;   ///< wiring (BEOL) thickness [m]
};

/// Complete declarative stack description.  Layers bottom to top.
struct StackSpec {
  std::string name;
  CoolingType cooling = CoolingType::kLiquid;
  double die_width = 0.0;   ///< outline shared by every layer [m]
  double die_height = 0.0;
  std::vector<StackLayerEntry> layers;
  /// Cavity geometry.  Air stacks: must be empty.  Liquid stacks: one entry
  /// (applied uniformly to all layer_count+1 cavities) or layer_count+1
  /// equal entries — Stack3D models a single uniform cavity, so unequal
  /// per-cavity geometry is rejected by validate_stack_spec.
  std::vector<CavitySpec> cavities;
  TsvSpec tsvs;
};

/// Structural validation; throws ConfigError naming the offending field
/// ("layers[1].die_thickness", "cavities", ...).  make_stack calls this.
void validate_stack_spec(const StackSpec& spec);

/// Build the Stack3D a spec describes (validates first).
[[nodiscard]] Stack3D make_stack(const StackSpec& spec);

// -- Floorplan presets --------------------------------------------------------
[[nodiscard]] const std::vector<std::string>& floorplan_preset_names();
/// Build a preset floorplan by name; throws ConfigError when unknown.
[[nodiscard]] Floorplan make_floorplan_preset(std::string_view name);

// -- Stack presets ------------------------------------------------------------
/// Names accepted by stack_preset(): "niagara-2layer", "niagara-4layer".
[[nodiscard]] const std::vector<std::string>& stack_preset_names();
[[nodiscard]] bool is_stack_preset(std::string_view name);
/// The named preset adapted to `cooling`; throws ConfigError when unknown.
[[nodiscard]] StackSpec stack_preset(std::string_view name, CoolingType cooling);

/// The paper's Niagara-derived systems as specs: `layer_pairs` core/cache
/// die pairs (1..4).  make_stack(niagara_stack_spec(p, c)) is bit-identical
/// to make_niagara_stack(p, c) — locked by the golden parity tests.
[[nodiscard]] StackSpec niagara_stack_spec(std::size_t layer_pairs,
                                           CoolingType cooling);

// -- Stack files --------------------------------------------------------------
/// Parse the sectioned stack-file format (see docs/stacks.md).  `source`
/// names the input in diagnostics ("file.stack:12: ...").
[[nodiscard]] StackSpec parse_stack_file(std::istream& in,
                                         const std::string& source);
/// Read and parse a stack file from disk.
[[nodiscard]] StackSpec load_stack_file(const std::string& path);
/// Emit a spec in the stack-file format.  Doubles print via format_double, so
/// write -> parse round-trips bit-exactly.
void write_stack_file(std::ostream& out, const StackSpec& spec);

// -- #suite metadata encoding -------------------------------------------------
/// The spec's stack-file text, percent-encoded into a single token free of
/// whitespace — safe as a `#suite stack=` value.
[[nodiscard]] std::string encode_stack_spec(const StackSpec& spec);
/// Inverse of encode_stack_spec; `source` names the input in diagnostics.
[[nodiscard]] StackSpec decode_stack_spec(const std::string& token,
                                          const std::string& source);

// -- Scenario axis resolution -------------------------------------------------
/// Resolve a ScenarioSpec::stack axis value in order: (1) a spec in `extra`
/// whose name matches (sweep-embedded specs), (2) a stack preset adapted to
/// `cooling`, (3) a stack-file path.  Throws ConfigError when nothing
/// matches or the resolved spec's cooling contradicts `cooling`.
[[nodiscard]] StackSpec resolve_stack_axis(const std::string& axis,
                                           CoolingType cooling,
                                           const std::vector<StackSpec>& extra);

}  // namespace liquid3d
