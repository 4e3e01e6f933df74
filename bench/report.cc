#include "bench/report.h"

#include <cstdio>
#include <fstream>
#include <thread>

#include "io/atomic_file.h"
#include "obs/json.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace emx {
namespace bench {
namespace {

constexpr int kGatePrecision = 6;

/// Indents every line after the first by two spaces. JSON strings escape
/// their newlines, so each '\n' is a line break of the layout.
std::string Indent(const std::string& json) {
  std::string out;
  for (char c : json) {
    out.push_back(c);
    if (c == '\n') out += "  ";
  }
  return out;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  for (std::string line; std::getline(in, line);) {
    const size_t colon = line.find(':');
    if (StartsWith(line, "model name") && colon != std::string::npos) {
      return Strip(line.substr(colon + 1));
    }
  }
  return "";
}

/// Read at Finish, after the bench has sized the pool, so `threads` is
/// what the pool runs whatever EMX_NUM_THREADS said.
JsonObject Host() {
  return JsonObject()
      .Set("cpu", CpuModel())
      .Set("hardware_concurrency", std::thread::hardware_concurrency())
      .Set("threads", GlobalThreadPool()->num_threads())
      .Set("build_type", EMX_BENCH_BUILD_TYPE)
      .Set("native_arch", EMX_BENCH_NATIVE_ARCH != 0);
}

bool Compare(double value, std::string_view op, double threshold) {
  if (op == "<") return value < threshold;
  if (op == "<=") return value <= threshold;
  if (op == ">") return value > threshold;
  if (op == ">=") return value >= threshold;
  if (op == "==") return value == threshold;
  return false;
}

}  // namespace

JsonObject& JsonObject::Raw(std::string_view key, std::string json) {
  fields_.emplace_back(std::string(key), std::move(json));
  return *this;
}

JsonObject& JsonObject::Set(std::string_view key, double value,
                            int precision) {
  std::string json;
  obs::AppendJsonDouble(&json, value, precision);
  return Raw(key, std::move(json));
}

JsonObject& JsonObject::Set(std::string_view key, bool value) {
  return Raw(key, value ? "true" : "false");
}

JsonObject& JsonObject::Set(std::string_view key, std::string_view value) {
  std::string json;
  obs::AppendJsonString(&json, value);
  return Raw(key, std::move(json));
}

JsonObject& JsonObject::Set(std::string_view key,
                            const std::vector<JsonObject>& rows) {
  std::string json = "[";
  for (size_t i = 0; i < rows.size(); ++i) {
    json += i == 0 ? "\n  " : ",\n  ";
    json += Indent(rows[i].ToString());
  }
  json += rows.empty() ? "]" : "\n]";
  return Raw(key, std::move(json));
}

std::string JsonObject::ToString() const {
  bool flat = true;
  for (const auto& [key, json] : fields_) {
    flat = flat && json[0] != '{' && json[0] != '[';
  }
  std::string out = "{";
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) out += flat ? ", " : ",";
    if (!flat) out += "\n  ";
    obs::AppendJsonString(&out, fields_[i].first);
    out += ": ";
    out += flat ? fields_[i].second : Indent(fields_[i].second);
  }
  out += flat ? "}" : "\n}";
  return out;
}

Report::Report(std::string_view name, std::string_view dir)
    : path_(std::string(dir) + (dir.empty() ? "" : "/") + "BENCH_" +
            std::string(name) + ".json") {}

bool Report::Add(JsonObject row, std::string_view name,
                 std::string_view shown, Verdict verdict) {
  static constexpr const char* kStatus[] = {"pass", "fail", "skipped"};
  static constexpr const char* kShout[] = {"PASS", "FAIL", "SKIPPED"};
  gates_.push_back(row.Set("status", kStatus[verdict]));
  lines_.push_back(StrFormat("gate  %-44.*s %-30.*s %s",
                             static_cast<int>(name.size()), name.data(),
                             static_cast<int>(shown.size()), shown.data(),
                             kShout[verdict]));
  pass_ = pass_ && verdict != kFail;
  return verdict == kPass;
}

bool Report::Gate(std::string_view name, double value, std::string_view op,
                  double threshold) {
  JsonObject row;
  row.Set("name", name)
      .Set("value", value, kGatePrecision)
      .Set("op", op)
      .Set("threshold", threshold, kGatePrecision);
  const std::string shown =
      StrFormat("%.6g %.*s %.6g", value, static_cast<int>(op.size()),
                op.data(), threshold);
  return Add(std::move(row), name, shown,
             Compare(value, op, threshold) ? kPass : kFail);
}

bool Report::Check(std::string_view name, bool ok) {
  JsonObject row;
  row.Set("name", name).Set("value", ok).Set("op", "==").Set("threshold", true);
  return Add(std::move(row), name, ok ? "true" : "false", ok ? kPass : kFail);
}

void Report::Skip(std::string_view name, std::string_view why) {
  Add(JsonObject().Set("name", name).Set("why", why), name, why, kSkipped);
}

int Report::Finish() {
  std::printf("\n");
  for (const std::string& line : lines_) std::printf("%s\n", line.c_str());
  std::printf("gates — %s\n", pass_ ? "PASS" : "FAIL");

  Set("gates_pass", pass_).Set("host", Host()).Set("gates", gates_);
  io::AtomicFileWriter writer(path_);
  Status status = writer.status();
  if (status.ok()) {
    writer.stream() << ToString() << "\n";
    status = writer.Commit();
  }
  if (!status.ok()) {
    std::printf("error: %s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s\n", path_.c_str());
  return pass_ ? 0 : 1;
}

}  // namespace bench
}  // namespace emx
