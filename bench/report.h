#ifndef EMX_BENCH_REPORT_H_
#define EMX_BENCH_REPORT_H_

// The one report writer of the gated benches. A bench records its numbers
// with typed Set calls and its bounds with Gate, Check or Skip, then
// returns Finish() from main. Numbers go through obs::AppendJsonDouble and
// strings through obs::AppendJsonString, so the file always strict-parses.

#include <concepts>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace emx {
namespace bench {

/// A JSON object under construction, keys in insertion order.
class JsonObject {
 public:
  /// `precision` fractional digits; nan and inf are written as 0.
  JsonObject& Set(std::string_view key, double value, int precision = 3);
  JsonObject& Set(std::string_view key, bool value);
  JsonObject& Set(std::string_view key, std::string_view value);
  JsonObject& Set(std::string_view key, const char* value) {
    return Set(key, std::string_view(value));
  }
  template <std::integral T>
  JsonObject& Set(std::string_view key, T value) {
    return Raw(key, std::to_string(static_cast<int64_t>(value)));
  }
  JsonObject& Set(std::string_view key, const JsonObject& value) {
    return Raw(key, value.ToString());
  }
  /// An array of objects, one per line: a per-case or per-dataset table.
  JsonObject& Set(std::string_view key, const std::vector<JsonObject>& rows);

  /// One line when every value is a scalar; otherwise one key per line.
  std::string ToString() const;

 private:
  JsonObject& Raw(std::string_view key, std::string json);

  std::vector<std::pair<std::string, std::string>> fields_;  // key, JSON
};

/// BENCH_<name>.json: the bench's fields plus `gates_pass`, a `host` block
/// and a `gates` table of {name, value, op, threshold, status}.
class Report : public JsonObject {
 public:
  /// Publishes into `dir` (the working directory when empty).
  explicit Report(std::string_view name, std::string_view dir = "");

  /// Records the gate `value op threshold`, op one of <, <=, >, >=, ==
  /// (any other op fails), and returns its verdict.
  bool Gate(std::string_view name, double value, std::string_view op,
            double threshold);
  /// Records a pass/fail condition that is not a single comparison.
  bool Check(std::string_view name, bool ok);
  /// Records a gate this run does not evaluate: status "skipped", and it
  /// neither passes nor fails the run.
  void Skip(std::string_view name, std::string_view why);

  /// Prints one line per gate, reads the host, publishes the file through
  /// io::AtomicFileWriter and returns the exit code: 0 only when no gate
  /// failed and the file was committed. Call once, last.
  int Finish();

 private:
  enum Verdict { kPass, kFail, kSkipped };
  bool Add(JsonObject row, std::string_view name, std::string_view shown,
           Verdict verdict);

  std::string path_;
  std::vector<JsonObject> gates_;
  std::vector<std::string> lines_;  // one printed line per gate
  bool pass_ = true;
};

}  // namespace bench
}  // namespace emx

#endif  // EMX_BENCH_REPORT_H_
