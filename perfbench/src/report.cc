#include "report.h"

#include <algorithm>
#include <cmath>

#include "obs/json.h"

namespace perfbench {

bool ParseMetricCatalog(const std::string& spec_json,
                        const std::string& section,
                        std::vector<MetricSpec>* catalog, std::string* error) {
  emx::obs::JsonValue doc;
  if (!emx::obs::JsonParse(spec_json, &doc, error)) return false;
  const emx::obs::JsonValue* list = doc.Find(section);
  if (list == nullptr || !list->is_array() || list->array.empty()) {
    if (error != nullptr) *error = "no metric list '" + section + "'";
    return false;
  }
  catalog->clear();
  for (const emx::obs::JsonValue& m : list->array) {
    const emx::obs::JsonValue* name = m.Find("name");
    const emx::obs::JsonValue* unit = m.Find("unit");
    const emx::obs::JsonValue* better = m.Find("better");
    if (name == nullptr || !name->is_string() || unit == nullptr ||
        !unit->is_string() || better == nullptr || !better->is_string()) {
      if (error != nullptr) {
        *error = "malformed metric in '" + section + "'";
      }
      return false;
    }
    catalog->push_back(
        {name->string_value, unit->string_value, better->string_value});
  }
  return true;
}

void RunResult::Fail(std::string problem) {
  correct = false;
  problems.push_back(std::move(problem));
}

void RunResult::Set(const std::string& name, double value) {
  for (Metric& m : metrics) {
    if (m.name == name) {
      m.value = value;
      return;
    }
  }
  metrics.push_back({name, value});
}

void RunResult::Diag(const std::string& name, double value) {
  diagnostics.push_back({name, value});
}

void ConformToCatalog(const std::vector<MetricSpec>& catalog,
                      RunResult* result) {
  std::vector<Metric> kept;
  for (const MetricSpec& spec : catalog) {
    bool found = false;
    for (const Metric& m : result->metrics) {
      if (m.name == spec.name) {
        kept.push_back(m);
        found = true;
        break;
      }
    }
    if (!found) {
      kept.push_back({spec.name, 0});
      result->not_exercised.push_back(spec.name);
    }
  }
  for (const Metric& m : result->metrics) {
    const bool in_catalog =
        std::any_of(catalog.begin(), catalog.end(),
                    [&](const MetricSpec& s) { return m.name == s.name; });
    if (!in_catalog) result->diagnostics.push_back(m);
  }
  result->metrics = std::move(kept);
}

namespace {

constexpr int kDigits = 9;

void AppendMetrics(std::string* out, const std::vector<MetricSpec>& catalog,
                   const std::vector<Metric>& metrics) {
  *out += "{";
  bool first = true;
  for (const MetricSpec& spec : catalog) {
    double value = 0;
    for (const Metric& m : metrics) {
      if (m.name == spec.name) value = m.value;
    }
    if (!first) *out += ", ";
    first = false;
    emx::obs::AppendJsonString(out, spec.name);
    *out += ": {\"value\": ";
    emx::obs::AppendJsonDouble(out, value, kDigits);
    *out += ", \"unit\": ";
    emx::obs::AppendJsonString(out, spec.unit);
    *out += "}";
  }
  *out += "}";
}

void AppendNumberMap(std::string* out, const std::vector<Metric>& values) {
  *out += "{";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) *out += ", ";
    emx::obs::AppendJsonString(out, values[i].name);
    *out += ": ";
    emx::obs::AppendJsonDouble(out, values[i].value, kDigits);
  }
  *out += "}";
}

void AppendStringList(std::string* out, const std::vector<std::string>& v) {
  *out += "[";
  for (size_t i = 0; i < v.size(); ++i) {
    if (i > 0) *out += ", ";
    emx::obs::AppendJsonString(out, v[i]);
  }
  *out += "]";
}

bool IsCount(const emx::obs::JsonValue* v) {
  return v != nullptr && v->is_number() && v->number >= 0 &&
         std::floor(v->number) == v->number;
}

}  // namespace

std::string ResultLine(const std::vector<MetricSpec>& catalog,
                       const RunResult& result) {
  std::string out = "{\"correct\": ";
  out += result.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(result.attempted);
  out += ", \"failed\": " + std::to_string(result.failed);
  out += ", \"metrics\": ";
  AppendMetrics(&out, catalog, result.metrics);
  out += "}";
  return out;
}

bool ValidateResultLine(const std::string& line,
                        const std::vector<MetricSpec>& catalog,
                        std::string* error) {
  emx::obs::JsonValue doc;
  if (!emx::obs::JsonParse(line, &doc, error)) return false;
  auto fail = [&](const std::string& why) {
    if (error != nullptr) *error = why;
    return false;
  };
  if (!doc.is_object() || doc.object.size() != 4) {
    return fail("result must be an object with exactly 4 keys");
  }
  const emx::obs::JsonValue* correct = doc.Find("correct");
  if (correct == nullptr || correct->type != emx::obs::JsonValue::Type::kBool) {
    return fail("'correct' must be a bool");
  }
  const emx::obs::JsonValue* attempted = doc.Find("attempted");
  const emx::obs::JsonValue* failed = doc.Find("failed");
  if (!IsCount(attempted) || attempted->number < 1) {
    return fail("'attempted' must be a whole number >= 1");
  }
  if (!IsCount(failed)) return fail("'failed' must be a whole number");
  const emx::obs::JsonValue* metrics = doc.Find("metrics");
  if (metrics == nullptr || !metrics->is_object() ||
      metrics->object.size() != catalog.size()) {
    return fail("'metrics' must hold exactly the catalog's metrics");
  }
  for (const MetricSpec& spec : catalog) {
    const emx::obs::JsonValue* m = metrics->Find(spec.name);
    if (m == nullptr || !m->is_object() || m->object.size() != 2) {
      return fail(std::string("metric missing or malformed: ") + spec.name);
    }
    const emx::obs::JsonValue* value = m->Find("value");
    const emx::obs::JsonValue* unit = m->Find("unit");
    if (value == nullptr || !value->is_number() || unit == nullptr ||
        !unit->is_string() || unit->string_value != spec.unit) {
      return fail(std::string("metric value/unit malformed: ") + spec.name);
    }
  }
  return true;
}

std::string FullReport(const std::vector<MetricSpec>& catalog,
                       const RunResult& result,
                       const std::vector<MetaField>& meta) {
  std::string out = "{\"meta\": {";
  for (size_t i = 0; i < meta.size(); ++i) {
    if (i > 0) out += ", ";
    emx::obs::AppendJsonString(&out, meta[i].key);
    out += ": ";
    emx::obs::AppendJsonString(&out, meta[i].value);
  }
  out += "}, \"result\": " + ResultLine(catalog, result);
  out += ", \"diagnostics\": ";
  AppendNumberMap(&out, result.diagnostics);
  out += ", \"not_exercised\": ";
  AppendStringList(&out, result.not_exercised);
  out += ", \"problems\": ";
  AppendStringList(&out, result.problems);
  out += "}";
  return out;
}

}  // namespace perfbench
