#include "bench/report.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json.h"
#include "util/thread_pool.h"

namespace emx {
namespace bench {
namespace {

namespace fs = std::filesystem;

class ReportTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("emx_report_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  /// Strict-parses BENCH_<name>.json from the test directory.
  obs::JsonValue Load(const std::string& name) const {
    std::ifstream in(dir_ / ("BENCH_" + name + ".json"));
    std::stringstream text;
    text << in.rdbuf();
    obs::JsonValue doc;
    std::string error;
    EXPECT_TRUE(obs::JsonParse(text.str(), &doc, &error)) << error;
    return doc;
  }

  fs::path dir_;
};

TEST_F(ReportTest, StrictParsesWhateverTheThreadEnvSays) {
  // A non-numeric pool size used to be pasted into the file unquoted.
  setenv("EMX_NUM_THREADS", "abc", /*overwrite=*/1);
  Report report("env", dir_.string());
  std::vector<JsonObject> rows = {JsonObject().Set("a", 1),
                                  JsonObject().Set("a", 2)};
  report.Set("ms", 1.23456, 2)
      .Set("nan", std::nan(""))
      .Set("label", "quote\" and \\ backslash")
      .Set("nested", JsonObject().Set("count", int64_t{-7}).Set("rows", rows))
      .Set("empty", std::vector<JsonObject>{});
  EXPECT_TRUE(report.Gate("speedup", 2.5, ">=", 2.0));
  EXPECT_EQ(report.Finish(), 0);

  const obs::JsonValue doc = Load("env");
  EXPECT_EQ(doc.Find("ms")->number, 1.23);
  EXPECT_EQ(doc.Find("nan")->number, 0);
  EXPECT_EQ(doc.Find("label")->string_value, "quote\" and \\ backslash");
  EXPECT_EQ(doc.Find("nested")->Find("count")->number, -7);
  EXPECT_EQ(doc.Find("nested")->Find("rows")->array[1].Find("a")->number, 2);
  EXPECT_TRUE(doc.Find("empty")->array.empty());
  EXPECT_TRUE(doc.Find("gates_pass")->bool_value);
  const obs::JsonValue* host = doc.Find("host");
  ASSERT_NE(host, nullptr);
  EXPECT_EQ(host->Find("threads")->number,
            static_cast<double>(GlobalThreadPool()->num_threads()));
  EXPECT_TRUE(host->Find("cpu")->is_string());
  EXPECT_TRUE(host->Find("build_type")->is_string());
}

TEST_F(ReportTest, MissingDirectoryFailsAndLeavesNoFile) {
  const fs::path missing = dir_ / "missing";
  Report report("lost", missing.string());
  report.Check("fine", true);
  EXPECT_NE(report.Finish(), 0);
  EXPECT_FALSE(fs::exists(missing));
  EXPECT_TRUE(fs::is_empty(dir_));
}

TEST_F(ReportTest, SkippedGateNeitherFailsNorPasses) {
  Report report("skip", dir_.string());
  report.Gate("speedup", 1.6, ">=", 1.5);
  report.Skip("accuracy", "no fine-tune in --smoke");
  EXPECT_EQ(report.Finish(), 0);

  const obs::JsonValue doc = Load("skip");
  const std::vector<obs::JsonValue>& gates = doc.Find("gates")->array;
  ASSERT_EQ(gates.size(), 2u);
  EXPECT_EQ(gates[0].Find("status")->string_value, "pass");
  EXPECT_EQ(gates[1].Find("status")->string_value, "skipped");
  EXPECT_EQ(gates[1].Find("why")->string_value, "no fine-tune in --smoke");
}

TEST_F(ReportTest, AnyFailingGateFailsTheRun) {
  Report report("fail", dir_.string());
  EXPECT_TRUE(report.Gate("at bound", 1.0, "<=", 1.0));
  EXPECT_FALSE(report.Gate("strict", 1.0, "<", 1.0));
  EXPECT_FALSE(report.Gate("unknown op", 1.0, "~", 1.0));
  EXPECT_FALSE(report.Check("flag", false));
  EXPECT_EQ(report.Finish(), 1);
  EXPECT_FALSE(Load("fail").Find("gates_pass")->bool_value);
}

}  // namespace
}  // namespace bench
}  // namespace emx
