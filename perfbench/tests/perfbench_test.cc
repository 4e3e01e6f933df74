// Self-test of the benchmark's own logic: percentiles and the
// ten-samples-beyond rule, seeded sampling and input generation, paced
// lateness, and the result/report schema.

#include <gtest/gtest.h>

#include <chrono>
#include <set>
#include <string>
#include <vector>

#include "inputs.h"
#include "obs/json.h"
#include "report.h"
#include "stats.h"

namespace perfbench {
namespace {

TEST(Percentile, InterpolatesLinearly) {
  EXPECT_EQ(Percentile({}, 0.5), 0);
  EXPECT_EQ(Percentile({7}, 0.99), 7);
  EXPECT_DOUBLE_EQ(Percentile({4, 1, 3, 2}, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(Percentile({1, 2, 3, 4, 5}, 0.0), 1);
  EXPECT_DOUBLE_EQ(Percentile({1, 2, 3, 4, 5}, 1.0), 5);
  EXPECT_DOUBLE_EQ(Percentile({1, 2, 3, 4, 5}, 0.75), 4);
}

TEST(Percentile, TenSamplesBeyondRule) {
  EXPECT_TRUE(HasTenBeyond(1000, 0.99));
  EXPECT_FALSE(HasTenBeyond(999, 0.99));
  EXPECT_TRUE(HasTenBeyond(200, 0.95));
  EXPECT_FALSE(HasTenBeyond(199, 0.95));
  EXPECT_EQ(TailQuantile(5000), 0.99);
  EXPECT_EQ(TailQuantile(999), 0.95);
  EXPECT_EQ(TailQuantile(150), 0.90);
  EXPECT_EQ(TailQuantile(99), 0.50);
  EXPECT_EQ(TailQuantile(8), 0.50);
}

TEST(QuietFigures, ChunkMedianAtTheQuietQuantile) {
  // Latencies in four chunks of two; chunk medians 1.5, 3.5, 9.5, 5.5.
  const std::vector<double> lat = {1, 2, 3, 4, 9, 10, 5, 6};
  EXPECT_DOUBLE_EQ(QuietChunkMedian(lat, 4), Percentile({1.5, 3.5, 9.5, 5.5},
                                                        kQuietQuantile));
  EXPECT_DOUBLE_EQ(QuietChunkMedian(lat, 1), 4.5);
  EXPECT_EQ(QuietChunkMedian(lat, 9), 0.0);
}

TEST(Zipf, DeterministicAndSkewed) {
  const ZipfSampler zipf(100, 1.0);
  SplitMix64 a(42), b(42), c(43);
  std::vector<int64_t> xa, xb, xc;
  for (int i = 0; i < 1000; ++i) {
    xa.push_back(zipf.Sample(&a));
    xb.push_back(zipf.Sample(&b));
    xc.push_back(zipf.Sample(&c));
  }
  EXPECT_EQ(xa, xb);
  EXPECT_NE(xa, xc);
  int64_t rank0 = 0, rank99 = 0;
  SplitMix64 r(7);
  for (int i = 0; i < 100000; ++i) {
    const int64_t s = zipf.Sample(&r);
    ASSERT_GE(s, 0);
    ASSERT_LT(s, 100);
    rank0 += s == 0 ? 1 : 0;
    rank99 += s == 99 ? 1 : 0;
  }
  // P(rank 0) / P(rank 99) = 100 under s = 1.
  EXPECT_GT(rank0, 50 * rank99);
  EXPECT_NEAR(static_cast<double>(rank0) / 100000, 1.0 / 5.187, 0.01);
}

TEST(Inputs, ZipfQueryOrderIsSeeded) {
  EXPECT_EQ(MakeZipfQueryOrder(5, 1000, 500, 1.0),
            MakeZipfQueryOrder(5, 1000, 500, 1.0));
  EXPECT_NE(MakeZipfQueryOrder(5, 1000, 500, 1.0),
            MakeZipfQueryOrder(6, 1000, 500, 1.0));
}

TEST(Inputs, DistinctPairsAreSeededAndDistinct) {
  const std::vector<TextPair> a = MakeDistinctPairs(11, 3000);
  EXPECT_EQ(a, MakeDistinctPairs(11, 3000));
  EXPECT_NE(a, MakeDistinctPairs(12, 3000));
  ASSERT_EQ(a.size(), 3000u);
  std::set<TextPair> unique(a.begin(), a.end());
  EXPECT_EQ(unique.size(), a.size());
  for (const TextPair& p : a) {
    EXPECT_FALSE(p.first.empty());
    EXPECT_FALSE(p.second.empty());
  }
}

TEST(Inputs, FineTuneSetAndNewRecordsAreSeeded) {
  const auto d1 = MakeFineTuneDataset(3, 200, 50);
  const auto d2 = MakeFineTuneDataset(3, 200, 50);
  ASSERT_EQ(d1.train.size(), 200u);
  ASSERT_EQ(d1.test.size(), 50u);
  for (size_t i = 0; i < d1.train.size(); ++i) {
    EXPECT_EQ(d1.SerializeA(d1.train[i]), d2.SerializeA(d2.train[i]));
    EXPECT_EQ(d1.train[i].label, d2.train[i].label);
  }
  EXPECT_EQ(MakeNewCatalogRecords(9, 64), MakeNewCatalogRecords(9, 64));
  EXPECT_NE(MakeNewCatalogRecords(9, 64), MakeNewCatalogRecords(10, 64));
}

TEST(Paced, LatenessAndLatencyFromDueTime) {
  using Clock = PacedSchedule::Clock;
  const Clock::time_point t0 = Clock::now();
  const PacedSchedule s(t0, 100.0);  // one request every 10 ms
  EXPECT_EQ(s.Due(0), t0);
  EXPECT_EQ(s.Due(3), t0 + std::chrono::milliseconds(30));
  // Sent 5 ms late, done 2 ms after sending: 7 ms from the due time.
  const Clock::time_point sent = s.Due(3) + std::chrono::milliseconds(5);
  const Clock::time_point done = sent + std::chrono::milliseconds(2);
  EXPECT_DOUBLE_EQ(s.LatenessMs(3, sent), 5.0);
  EXPECT_DOUBLE_EQ(s.LatencyMs(3, done), 7.0);
  // Early sends are not negative lateness.
  EXPECT_DOUBLE_EQ(s.LatenessMs(3, s.Due(3) - std::chrono::milliseconds(1)),
                   0.0);
}

// A BENCHMARK.json in miniature: the binary reads its catalogs from it.
constexpr char kSpec[] = R"({
  "command": ["python3", "perfbench/run.py"],
  "end_to_end": [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.2}
  ],
  "per_layer": [
    {"name": "net.codec_us", "unit": "us", "better": "lower"},
    {"name": "util.pool_busy_frac", "unit": "ratio", "better": "higher"},
    {"name": "trace.coverage", "unit": "ratio", "better": "higher"}
  ]
})";

std::vector<MetricSpec> Catalog(const std::string& section) {
  std::vector<MetricSpec> catalog;
  std::string error;
  EXPECT_TRUE(ParseMetricCatalog(kSpec, section, &catalog, &error)) << error;
  return catalog;
}

TEST(Report, CatalogComesFromTheSpec) {
  const std::vector<MetricSpec> e2e = Catalog("end_to_end");
  ASSERT_EQ(e2e.size(), 2u);
  EXPECT_EQ(e2e[1].name, "ops_per_s");
  EXPECT_EQ(e2e[1].unit, "1/s");
  EXPECT_EQ(e2e[1].better, "higher");
  EXPECT_EQ(Catalog("per_layer").size(), 3u);

  std::vector<MetricSpec> catalog;
  std::string error;
  EXPECT_FALSE(ParseMetricCatalog(kSpec, "workloads", &catalog, &error));
  EXPECT_FALSE(ParseMetricCatalog("{\"end_to_end\": [{\"name\": 1}]}",
                                  "end_to_end", &catalog, &error));
  EXPECT_FALSE(ParseMetricCatalog("{\"end_to_end\": []}", "end_to_end",
                                  &catalog, &error));
  EXPECT_FALSE(ParseMetricCatalog("not json", "end_to_end", &catalog, &error));
}

TEST(Report, ResultLineRoundTripsThroughSchema) {
  for (const std::string section : {"end_to_end", "per_layer"}) {
    const std::vector<MetricSpec> catalog = Catalog(section);
    RunResult r;
    r.attempted = 10;
    r.failed = 1;
    r.Set(catalog[0].name, 1.25);
    r.Set("not.in.catalog", 3);
    ConformToCatalog(catalog, &r);
    EXPECT_EQ(r.metrics.size(), catalog.size());
    EXPECT_EQ(r.not_exercised.size(), catalog.size() - 1);
    ASSERT_EQ(r.diagnostics.size(), 1u);
    const std::string line = ResultLine(catalog, r);
    std::string error;
    EXPECT_TRUE(ValidateResultLine(line, catalog, &error)) << error;
    emx::obs::JsonValue doc;
    ASSERT_TRUE(emx::obs::JsonParse(line, &doc, &error)) << error;
    const auto* m = doc.Find("metrics")->Find(catalog[0].name);
    ASSERT_NE(m, nullptr);
    EXPECT_DOUBLE_EQ(m->Find("value")->number, 1.25);
    EXPECT_EQ(m->Find("unit")->string_value, catalog[0].unit);
    EXPECT_EQ(doc.Find("attempted")->number, 10);
    EXPECT_EQ(doc.Find("failed")->number, 1);
    EXPECT_TRUE(doc.Find("correct")->bool_value);

    const std::string report = FullReport(catalog, r, {{"cpu", "x\"y"}});
    ASSERT_TRUE(emx::obs::JsonParse(report, &doc, &error)) << error;
    EXPECT_EQ(doc.Find("meta")->Find("cpu")->string_value, "x\"y");
  }
}

TEST(Report, ValidationRejectsMalformedLines) {
  const std::vector<MetricSpec> catalog = Catalog("end_to_end");
  RunResult r;
  r.attempted = 1;
  ConformToCatalog(catalog, &r);
  const std::string good = ResultLine(catalog, r);
  std::string error;
  ASSERT_TRUE(ValidateResultLine(good, catalog, &error)) << error;
  // Wrong catalog, zero attempts, a failed check, extra keys, non-JSON.
  EXPECT_FALSE(ValidateResultLine(good, Catalog("per_layer"), &error));
  RunResult none;
  ConformToCatalog(catalog, &none);
  EXPECT_FALSE(ValidateResultLine(ResultLine(catalog, none), catalog, &error));
  r.Fail("x");
  EXPECT_TRUE(ValidateResultLine(ResultLine(catalog, r), catalog, &error));
  EXPECT_FALSE(ValidateResultLine(
      good.substr(0, good.size() - 1) + ", \"extra\": 1}", catalog, &error));
  EXPECT_FALSE(ValidateResultLine("{nan}", catalog, &error));
}

}  // namespace
}  // namespace perfbench
