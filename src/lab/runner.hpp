// Execution engine of the lab harness: runs a selection of registered
// experiments, renders human output as it goes, serializes JSONL records,
// and shape-diffs a run against a committed reference (--check).
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "lab/experiment.hpp"
#include "lab/registry.hpp"

namespace mcp::lab {

/// One executed experiment.
struct RunReport {
  const Experiment* experiment = nullptr;
  ExperimentResult result;
};

/// Resolves a selection: `ids` (comma-separated, e.g. "E1,E3"), `tags`, or
/// everything (`all`).  The union is returned in numeric id order.  Throws
/// InputError on an unknown id or a tag matching nothing.
[[nodiscard]] std::vector<const Experiment*> select_experiments(
    const ExperimentRegistry& registry, const std::vector<std::string>& ids,
    const std::vector<std::string>& tags, bool all);

/// Runs every experiment in `selection` with `context`, rendering header,
/// tables and verdict to `os` as each finishes.  Fills wall_seconds.
[[nodiscard]] std::vector<RunReport> run_experiments(
    const std::vector<const Experiment*>& selection, const RunContext& context,
    std::ostream& os);

[[nodiscard]] bool any_failed(const std::vector<RunReport>& reports);

/// Writes one schema-versioned JSON line per report to `path`.
/// Throws InputError if the file cannot be written.
void write_records(const std::string& path,
                   const std::vector<RunReport>& reports,
                   const RunContext& context);

/// Shape-regression check: compares each report against the record with the
/// same experiment id in `reference_path` (a JSONL file from a previous
/// `--json` run).  Compared: schema/version, verdict.pass, and per-series
/// name, caption-independent column lists and row counts.  Timings, hosts
/// and cell values are ignored — the committed reference stays valid across
/// machines.  Returns the number of mismatches, describing each to `diag`.
[[nodiscard]] std::size_t check_against_reference(
    const std::vector<RunReport>& reports, const std::string& reference_path,
    std::ostream& diag);

}  // namespace mcp::lab
