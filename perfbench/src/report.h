#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

// The benchmark's metric catalog, read from BENCHMARK.json, and its two
// JSON documents, both written with the obs JSON emitter and checked with
// the strict obs::JsonParse:
//
//  * the result line — the last line of stdout:
//      {"correct": b, "attempted": n, "failed": n,
//       "metrics": {name: {"value": x, "unit": u}, ...}}
//    carrying every end-to-end metric (untraced run) or every per-layer
//    metric (traced run), nothing else;
//  * the full report — the result plus run metadata, host-speed canaries,
//    diagnostics and the list of failed checks.

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct MetricSpec {
  std::string name;
  std::string unit;
  std::string better;  // "lower" | "higher"
};

/// Reads one metric list of BENCHMARK.json (`spec_json` is the file's
/// text): "end_to_end", reported by every workload's untraced run, or
/// "per_layer", reported by every workload's traced run (0 where the
/// workload does not exercise the layer; see the report's "not_exercised"
/// list). False, with `error` set, when the list is missing or malformed.
bool ParseMetricCatalog(const std::string& spec_json,
                        const std::string& section,
                        std::vector<MetricSpec>* catalog, std::string* error);

struct Metric {
  std::string name;
  double value = 0;
};

/// Everything one run produced.
struct RunResult {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> metrics;      // the catalog's metrics
  std::vector<Metric> diagnostics;  // extra numbers, report only
  std::vector<std::string> problems;  // failed checks (correct = false)
  std::vector<std::string> not_exercised;

  /// Records a failed check.
  void Fail(std::string problem);
  void Set(const std::string& name, double value);
  void Diag(const std::string& name, double value);
};

/// Fills every metric of `catalog` that `result` lacks with 0 and lists it
/// as not exercised; drops metrics outside the catalog into diagnostics.
void ConformToCatalog(const std::vector<MetricSpec>& catalog,
                      RunResult* result);

/// The result line (one JSON object, no newline).
std::string ResultLine(const std::vector<MetricSpec>& catalog,
                       const RunResult& result);

/// Strict check of a result line against the catalog: exact top-level
/// keys, integer counts with attempted >= 1, and exactly the catalog's
/// metric names, each {"value": number, "unit": catalog unit}.
bool ValidateResultLine(const std::string& line,
                        const std::vector<MetricSpec>& catalog,
                        std::string* error);

/// String-valued run metadata (workload, seed, CPU model, ...).
struct MetaField {
  std::string key;
  std::string value;
};

/// The full report document.
std::string FullReport(const std::vector<MetricSpec>& catalog,
                       const RunResult& result,
                       const std::vector<MetaField>& meta);

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
