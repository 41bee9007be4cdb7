#include "lab/runner.hpp"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <map>
#include <ostream>
#include <sstream>

#include "lab/json.hpp"
#include "lab/record.hpp"
#include "lab/render.hpp"

namespace mcp::lab {

std::vector<const Experiment*> select_experiments(
    const ExperimentRegistry& registry, const std::vector<std::string>& ids,
    const std::vector<std::string>& tags, bool all) {
  std::vector<const Experiment*> selection;
  const auto add = [&](const Experiment* e) {
    if (std::find(selection.begin(), selection.end(), e) == selection.end()) {
      selection.push_back(e);
    }
  };
  if (all) {
    for (const Experiment* e : registry.all()) add(e);
  }
  for (const std::string& id : ids) {
    const Experiment* e = registry.find(id);
    if (e == nullptr) {
      throw InputError("unknown experiment id '" + id +
                       "' (see mcpaging-lab --list)");
    }
    add(e);
  }
  for (const std::string& tag : tags) {
    const auto matches = registry.with_tag(tag);
    if (matches.empty()) {
      throw InputError("no experiment carries tag '" + tag + "'");
    }
    for (const Experiment* e : matches) add(e);
  }
  // Present the union in the registry's canonical (numeric id) order.
  const auto canonical = registry.all();
  std::sort(selection.begin(), selection.end(),
            [&](const Experiment* a, const Experiment* b) {
              return std::find(canonical.begin(), canonical.end(), a) <
                     std::find(canonical.begin(), canonical.end(), b);
            });
  return selection;
}

std::vector<RunReport> run_experiments(
    const std::vector<const Experiment*>& selection, const RunContext& context,
    std::ostream& os) {
  std::vector<RunReport> reports;
  reports.reserve(selection.size());
  for (const Experiment* experiment : selection) {
    render_header(os, *experiment);
    const auto start = std::chrono::steady_clock::now();
    ExperimentResult result = experiment->run(context);
    const auto stop = std::chrono::steady_clock::now();
    result.wall_seconds = std::chrono::duration<double>(stop - start).count();
    render_result(os, result);
    os.flush();
    reports.push_back(RunReport{experiment, std::move(result)});
  }
  return reports;
}

bool any_failed(const std::vector<RunReport>& reports) {
  return std::any_of(reports.begin(), reports.end(), [](const RunReport& r) {
    return !r.result.verdict.pass;
  });
}

void write_records(const std::string& path,
                   const std::vector<RunReport>& reports,
                   const RunContext& context) {
  std::ofstream os(path);
  if (!os) throw InputError("cannot open for writing: " + path);
  const Environment environment = Environment::capture();
  for (const RunReport& report : reports) {
    os << to_record(*report.experiment, report.result, context, environment)
       << '\n';
  }
  if (!os) throw InputError("write failed: " + path);
}

namespace {

/// Reference records by experiment id (last record wins on duplicates, so a
/// re-generated reference can simply be appended during review).
std::map<std::string, JsonValue> load_reference(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw InputError("cannot open reference: " + path);
  std::map<std::string, JsonValue> records;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(is, line)) {
    ++lineno;
    if (line.empty()) continue;
    JsonValue record;
    try {
      record = json_parse(line);
    } catch (const InputError& e) {
      throw InputError(path + ":" + std::to_string(lineno) + ": " + e.what());
    }
    const JsonValue* id = record.get("experiment");
    if (id == nullptr || !id->is(JsonValue::Type::kString)) {
      throw InputError(path + ":" + std::to_string(lineno) +
                       ": record has no \"experiment\" field");
    }
    records[id->string] = std::move(record);
  }
  return records;
}

/// One experiment's shape mismatches, appended to `out` as diagnostics.
void diff_report(const RunReport& report, const JsonValue& reference,
                 std::vector<std::string>& out) {
  const std::string& id = report.experiment->id;
  const auto complain = [&](const std::string& what) {
    out.push_back(id + ": " + what);
  };

  const JsonValue* version = reference.get("version");
  if (version == nullptr || !version->is(JsonValue::Type::kNumber) ||
      static_cast<int>(version->number) != kRecordVersion) {
    complain("reference record is not schema version " +
             std::to_string(kRecordVersion));
    return;
  }

  const JsonValue* verdict = reference.get("verdict");
  const JsonValue* pass =
      verdict == nullptr ? nullptr : verdict->get("pass");
  if (pass == nullptr || !pass->is(JsonValue::Type::kBool)) {
    complain("reference record has no verdict.pass");
  } else if (pass->boolean != report.result.verdict.pass) {
    std::ostringstream os;
    os << "verdict changed: reference " << (pass->boolean ? "PASS" : "FAIL")
       << ", this run " << (report.result.verdict.pass ? "PASS" : "FAIL");
    complain(os.str());
  }

  const JsonValue* series = reference.get("series");
  if (series == nullptr || !series->is(JsonValue::Type::kArray)) {
    complain("reference record has no series array");
    return;
  }
  if (series->array.size() != report.result.series.size()) {
    std::ostringstream os;
    os << "series count changed: reference " << series->array.size()
       << ", this run " << report.result.series.size();
    complain(os.str());
    return;
  }
  for (std::size_t i = 0; i < series->array.size(); ++i) {
    const JsonValue& ref = series->array[i];
    const Series& got = report.result.series[i];
    const JsonValue* name = ref.get("name");
    if (name == nullptr || name->string != got.name) {
      complain("series " + std::to_string(i) + " name changed: reference '" +
               (name == nullptr ? std::string("?") : name->string) +
               "', this run '" + got.name + "'");
      continue;
    }
    const JsonValue* columns = ref.get("columns");
    std::vector<std::string> ref_columns;
    if (columns != nullptr && columns->is(JsonValue::Type::kArray)) {
      for (const JsonValue& c : columns->array) ref_columns.push_back(c.string);
    }
    if (ref_columns != got.columns) {
      complain("series '" + got.name + "' columns changed");
    }
    const JsonValue* rows = ref.get("rows");
    const std::size_t ref_rows =
        rows != nullptr && rows->is(JsonValue::Type::kArray)
            ? rows->array.size()
            : 0;
    if (ref_rows != got.rows.size()) {
      std::ostringstream os;
      os << "series '" << got.name << "' row count changed: reference "
         << ref_rows << ", this run " << got.rows.size();
      complain(os.str());
    }
  }
}

}  // namespace

std::size_t check_against_reference(const std::vector<RunReport>& reports,
                                    const std::string& reference_path,
                                    std::ostream& diag) {
  const auto reference = load_reference(reference_path);
  std::vector<std::string> mismatches;
  for (const RunReport& report : reports) {
    const auto it = reference.find(report.experiment->id);
    if (it == reference.end()) {
      mismatches.push_back(report.experiment->id +
                           ": missing from the reference file");
      continue;
    }
    diff_report(report, it->second, mismatches);
  }
  if (mismatches.empty()) {
    diag << "check: " << reports.size() << " experiment(s) match the reference "
         << reference_path << " (shape + verdict)\n";
  } else {
    diag << "check: " << mismatches.size() << " mismatch(es) against "
         << reference_path << ":\n";
    for (const std::string& m : mismatches) diag << "  " << m << '\n';
  }
  return mismatches.size();
}

}  // namespace mcp::lab
