// report.hpp — structured export of simulation results.
//
// SimulationResult and PolicySummary values flatten to plain rows (the
// common/csv.hpp convention: a header vector plus string rows) and to JSON,
// so examples, sweep shards, and external plotting consume one format
// instead of each bench hand-rolling printf tables.  Doubles are written
// with format_double (common/parse.hpp) — round-trippable, so a re-parsed
// shard compares bit-exactly against the in-process result.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "sim/experiment.hpp"

namespace liquid3d {

/// Column names of one SimulationResult row (label, benchmark, then every
/// metric in declaration order).
[[nodiscard]] const std::vector<std::string>& simulation_result_csv_header();
[[nodiscard]] std::vector<std::string> to_csv_row(const SimulationResult& r);

/// Inverse of to_csv_row.  Exact: numbers were written with format_double,
/// so the parsed result compares == against the in-process original, field
/// by field.  Throws ConfigError naming the offending column on a malformed
/// row.
[[nodiscard]] SimulationResult simulation_result_from_csv_row(
    const std::vector<std::string>& row);

/// True when every field of `a` and `b` (strings, counts, doubles) is
/// exactly equal — the merge path's duplicate-detection predicate.
[[nodiscard]] bool results_identical(const SimulationResult& a,
                                     const SimulationResult& b);

/// Header row + one row per result.  Fields containing commas, quotes, or
/// newlines are double-quoted (RFC-4180 style) — scenario labels are
/// user-supplied.
void write_results_csv(std::ostream& out,
                       const std::vector<SimulationResult>& results);
/// Inverse of write_results_csv (the reader the sweep merge path uses):
/// validates the header row, then parses one result per record.  Errors
/// report the 1-based row number and offending column.
[[nodiscard]] std::vector<SimulationResult> read_results_csv(std::istream& in);
/// JSON array of objects, one per result.
void write_results_json(std::ostream& out,
                        const std::vector<SimulationResult>& results);

/// Flattened per-workload rows, each prefixed with its summary's label.
void write_summaries_csv(std::ostream& out,
                         const std::vector<PolicySummary>& summaries);
/// JSON array of {label, aggregates, per_workload[]} objects.
void write_summaries_json(std::ostream& out,
                          const std::vector<PolicySummary>& summaries);

}  // namespace liquid3d
