// Tests for emx::obs — the strict JSON parser/emitters, the metrics
// primitives and registry (including concurrent writers, run under the TSan
// CI job), and the trace-span round trip through the chrome-trace exporter
// with nested and cross-thread spans.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace emx {
namespace obs {
namespace {

// ---- JSON emit helpers -------------------------------------------------

TEST(JsonEmitTest, AppendJsonDoubleFinite) {
  std::string out;
  AppendJsonDouble(&out, 1.5);
  EXPECT_EQ(out, "1.500");
  out.clear();
  AppendJsonDouble(&out, -0.25, 2);
  EXPECT_EQ(out, "-0.25");
}

TEST(JsonEmitTest, AppendJsonDoubleSanitizesNonFinite) {
  for (double bad : {std::nan(""), std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity()}) {
    std::string out;
    AppendJsonDouble(&out, bad);
    EXPECT_EQ(out, "0.000") << bad;
  }
}

TEST(JsonEmitTest, AppendJsonStringEscapes) {
  std::string out;
  AppendJsonString(&out, "a\"b\\c\n\t\x01");
  EXPECT_EQ(out, "\"a\\\"b\\\\c\\n\\t\\u0001\"");
  JsonValue v;
  std::string error;
  ASSERT_TRUE(JsonParse(out, &v, &error)) << error;
  EXPECT_EQ(v.string_value, "a\"b\\c\n\t\x01");
}

// ---- Strict parser -----------------------------------------------------

TEST(JsonParseTest, ParsesDocument) {
  const std::string doc =
      R"({"a": 1, "b": [1.5, -2e3, "x"], "c": {"d": true, "e": null}})";
  JsonValue v;
  std::string error;
  ASSERT_TRUE(JsonParse(doc, &v, &error)) << error;
  ASSERT_TRUE(v.is_object());
  EXPECT_DOUBLE_EQ(v.Find("a")->number, 1);
  const JsonValue* b = v.Find("b");
  ASSERT_TRUE(b != nullptr && b->is_array());
  ASSERT_EQ(b->array.size(), 3u);
  EXPECT_DOUBLE_EQ(b->array[1].number, -2000);
  EXPECT_EQ(b->array[2].string_value, "x");
  const JsonValue* c = v.Find("c");
  ASSERT_TRUE(c != nullptr);
  EXPECT_TRUE(c->Find("d")->bool_value);
  EXPECT_EQ(c->Find("e")->type, JsonValue::Type::kNull);
}

TEST(JsonParseTest, RejectsNonFiniteLiterals) {
  // The whole point of "strict": the printf %f bug class must not parse.
  for (const char* bad :
       {"nan", "NaN", "inf", "Infinity", "-inf", "-Infinity",
        "{\"x\": nan}", "{\"x\": inf}", "[1, -nan(ind)]"}) {
    EXPECT_FALSE(JsonParse(bad, nullptr, nullptr)) << bad;
  }
}

TEST(JsonParseTest, RejectsMalformedDocuments) {
  for (const char* bad :
       {"", "{", "[1,]", "{\"a\": 1,}", "01", "1.", ".5", "1e", "+1",
        "\"unterminated", "{\"a\" 1}", "{a: 1}", "[1] garbage",
        "\"bad\\q\"", "tru", "{\"a\": 1} {\"b\": 2}"}) {
    EXPECT_FALSE(JsonParse(bad, nullptr, nullptr)) << bad;
  }
}

TEST(JsonParseTest, ReportsErrorOffset) {
  std::string error;
  EXPECT_FALSE(JsonParse("{\"a\": nan}", nullptr, &error));
  EXPECT_NE(error.find("offset"), std::string::npos) << error;
}

TEST(JsonParseTest, UnicodeEscapes) {
  JsonValue v;
  std::string error;
  ASSERT_TRUE(JsonParse(R"("Aé€")", &v, &error)) << error;
  EXPECT_EQ(v.string_value, "A\xc3\xa9\xe2\x82\xac");  // A, é, €
}

// ---- Metrics primitives ------------------------------------------------

TEST(MetricsTest, CounterAndGauge) {
  Counter c;
  c.Add(3);
  c.Add();
  EXPECT_EQ(c.Value(), 4);
  Gauge g;
  g.Set(2.5);
  EXPECT_DOUBLE_EQ(g.Value(), 2.5);
  g.Max(1.0);
  EXPECT_DOUBLE_EQ(g.Value(), 2.5);  // Max never lowers
  g.Max(7.0);
  EXPECT_DOUBLE_EQ(g.Value(), 7.0);
}

TEST(MetricsTest, HistogramBucketsAndOverflow) {
  Histogram h(LinearBuckets(0, 1, 5));  // bounds 0,1,2,3,4
  h.Record(0);
  h.Record(1);
  h.Record(1);
  h.Record(4);
  h.Record(5);   // beyond last bound -> overflow, never clamped
  h.Record(99);  // overflow
  EXPECT_EQ(h.bucket_count(0), 1);
  EXPECT_EQ(h.bucket_count(1), 2);
  EXPECT_EQ(h.bucket_count(2), 0);
  EXPECT_EQ(h.bucket_count(4), 1);
  EXPECT_EQ(h.overflow(), 2);
  EXPECT_EQ(h.count(), 6);
  EXPECT_DOUBLE_EQ(h.sum(), 110);
  EXPECT_NEAR(h.mean(), 110.0 / 6.0, 1e-12);
}

TEST(MetricsTest, ExponentialBuckets) {
  std::vector<double> b = ExponentialBuckets(1, 10, 4);
  ASSERT_EQ(b.size(), 4u);
  EXPECT_DOUBLE_EQ(b[0], 1);
  EXPECT_DOUBLE_EQ(b[3], 1000);
}

TEST(MetricsTest, RegistryReturnsStablePointers) {
  MetricsRegistry r;
  Counter* a = r.GetCounter("x");
  Counter* b = r.GetCounter("x");
  EXPECT_EQ(a, b);
  Histogram* h1 = r.GetHistogram("h", LinearBuckets(0, 1, 3));
  Histogram* h2 = r.GetHistogram("h", LinearBuckets(0, 1, 99));
  EXPECT_EQ(h1, h2);  // bounds of the first registration win
  EXPECT_EQ(h1->bounds().size(), 3u);
}

TEST(MetricsTest, RegistryToJsonStrictParses) {
  MetricsRegistry r;
  r.GetCounter("c.one")->Add(5);
  r.GetGauge("g.one")->Set(std::nan(""));  // sanitized on export
  Histogram* h = r.GetHistogram("h.one", LinearBuckets(0, 1, 3));
  h->Record(1);
  h->Record(100);
  JsonValue v;
  std::string error;
  ASSERT_TRUE(JsonParse(r.ToJson(), &v, &error)) << error << "\n" << r.ToJson();
  EXPECT_DOUBLE_EQ(v.Find("counters")->Find("c.one")->number, 5);
  EXPECT_DOUBLE_EQ(v.Find("gauges")->Find("g.one")->number, 0);  // nan -> 0
  const JsonValue* hv = v.Find("histograms")->Find("h.one");
  ASSERT_TRUE(hv != nullptr);
  EXPECT_EQ(hv->Find("counts")->array.size(), 3u);
  EXPECT_DOUBLE_EQ(hv->Find("overflow")->number, 1);
  EXPECT_DOUBLE_EQ(hv->Find("count")->number, 2);
}

TEST(MetricsTest, RegistrySnapshotUnderConcurrentWriters) {
  // Writers hammer all three metric kinds while a reader snapshots
  // repeatedly; run under TSan in CI. Totals must be exact afterwards.
  MetricsRegistry r;
  constexpr int kThreads = 4;
  constexpr int kIters = 20000;
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      JsonValue v;
      std::string error;
      ASSERT_TRUE(JsonParse(r.ToJson(), &v, &error)) << error;
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&r, t] {
      Counter* c = r.GetCounter("w.count");
      Gauge* g = r.GetGauge("w.gauge");
      Histogram* h = r.GetHistogram("w.hist", LinearBuckets(0, 1, 8));
      for (int i = 0; i < kIters; ++i) {
        c->Add(1);
        g->Max(static_cast<double>(t * kIters + i));
        h->Record(static_cast<double>(i % 10));  // 8,9 overflow
      }
    });
  }
  for (auto& w : writers) w.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();
  EXPECT_EQ(r.GetCounter("w.count")->Value(), kThreads * kIters);
  Histogram* h = r.GetHistogram("w.hist", {});
  EXPECT_EQ(h->count(), kThreads * kIters);
  EXPECT_EQ(h->overflow(), kThreads * kIters / 5);  // 2 of every 10
  EXPECT_DOUBLE_EQ(r.GetGauge("w.gauge")->Value(),
                   static_cast<double>(kThreads * kIters - 1));
}

// ---- Percentiles and the latency window --------------------------------

TEST(PercentileTest, LinearInterpolationOnSmallSamples) {
  // Regression for the nearest-rank +0.5 rounding bug: a 2-sample buffer
  // at q=0.5 returned the max instead of the midpoint.
  EXPECT_EQ(Percentile({1.0, 2.0}, 0.5), 1.5);
  EXPECT_EQ(Percentile({}, 0.5), 0.0);
  EXPECT_EQ(Percentile({7.0}, 0.99), 7.0);
  const std::vector<double> v = {10.0, 20.0, 30.0, 40.0};
  EXPECT_EQ(Percentile(v, 0.0), 10.0);
  EXPECT_EQ(Percentile(v, 1.0), 40.0);
  EXPECT_EQ(Percentile(v, 0.5), 25.0);
  EXPECT_EQ(Percentile(v, 0.25), 17.5);
  EXPECT_EQ(Percentile(v, 0.75), 32.5);
  // Out-of-range quantiles clamp instead of indexing out of bounds.
  EXPECT_EQ(Percentile(v, -0.5), 10.0);
  EXPECT_EQ(Percentile(v, 2.0), 40.0);
}

TEST(LatencyWindowTest, KeepsTheMostRecentSamplesSorted) {
  LatencyWindow window(3);
  EXPECT_TRUE(window.Sorted().empty());
  window.Record(5.0);
  window.Record(1.0);
  EXPECT_EQ(window.Sorted(), (std::vector<double>{1.0, 5.0}));
  window.Record(3.0);
  window.Record(4.0);  // overwrites the oldest sample (5.0)
  EXPECT_EQ(window.Sorted(), (std::vector<double>{1.0, 3.0, 4.0}));
}

TEST(LatencyWindowTest, ConcurrentCompletionsAndSnapshotsAreClean) {
  // The window is lock-free: writers must never block behind a reader
  // copying it, and concurrent access must be TSan-clean (this test runs in
  // the CI thread-sanitizer job). Every sample any reader observes has to
  // be a value some writer actually recorded.
  LatencyWindow window(8192);
  constexpr int kWriters = 4;
  constexpr int kPerWriter = 5000;
  std::atomic<bool> stop{false};

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&window, w] {
      for (int i = 0; i < kPerWriter; ++i) {
        window.Record(100.0 + w);  // values in {100, 101, 102, 103}
      }
    });
  }
  std::thread reader([&window, &stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      const std::vector<double> sorted = window.Sorted();
      EXPECT_TRUE(std::is_sorted(sorted.begin(), sorted.end()));
      // Slots claimed but not yet stored still read 0 (their initial
      // value), never anything else.
      for (double x : sorted) {
        EXPECT_TRUE(x == 0.0 || (x >= 100.0 && x <= 103.0)) << x;
      }
    }
  });
  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();

  // All 20000 samples outnumber the 8192 slots, so the window is full and
  // every slot holds one of the recorded values.
  const std::vector<double> sorted = window.Sorted();
  ASSERT_EQ(sorted.size(), 8192u);
  EXPECT_GE(Percentile(sorted, 0.0), 100.0);
  EXPECT_LE(Percentile(sorted, 1.0), 103.0);
}

// ---- Trace spans + exporter --------------------------------------------

class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    StopProfiling();
    ClearTrace();
  }
  void TearDown() override {
    StopProfiling();
    ClearTrace();
  }
};

TEST_F(TraceTest, DisabledRecordsNothing) {
  EXPECT_FALSE(ProfilingEnabled());
  { EMX_TRACE_SPAN("should.not.appear"); }
  TraceInstant("nor.this");
  TraceCounterValue("nor.that", 1);
  EXPECT_EQ(TraceEventCount(), 0u);
}

TEST_F(TraceTest, NestedSpansRoundTripThroughExporter) {
  StartProfiling();
  {
    EMX_TRACE_SPAN("outer", [] { return KeyValues({{"n", 3}}); });
    {
      EMX_TRACE_SPAN("inner");
      TraceInstant("tick");
    }
  }
  StopProfiling();
  EXPECT_EQ(TraceEventCount(), 3u);

  const std::string json = ExportChromeTrace();
  JsonValue v;
  std::string error;
  ASSERT_TRUE(JsonParse(json, &v, &error)) << error << "\n" << json;
  const JsonValue* events = v.Find("traceEvents");
  ASSERT_TRUE(events != nullptr && events->is_array());
  ASSERT_EQ(events->array.size(), 3u);

  const JsonValue* outer = nullptr;
  const JsonValue* inner = nullptr;
  const JsonValue* tick = nullptr;
  for (const JsonValue& e : events->array) {
    const std::string& name = e.Find("name")->string_value;
    if (name == "outer") outer = &e;
    if (name == "inner") inner = &e;
    if (name == "tick") tick = &e;
  }
  ASSERT_TRUE(outer != nullptr && inner != nullptr && tick != nullptr);
  EXPECT_EQ(outer->Find("ph")->string_value, "X");
  EXPECT_EQ(tick->Find("ph")->string_value, "i");
  EXPECT_DOUBLE_EQ(outer->Find("args")->Find("n")->number, 3);
  // Nesting: inner lies within [outer.ts, outer.ts + outer.dur], and both
  // events landed on the same thread track.
  const double o_ts = outer->Find("ts")->number;
  const double o_end = o_ts + outer->Find("dur")->number;
  const double i_ts = inner->Find("ts")->number;
  const double i_end = i_ts + inner->Find("dur")->number;
  EXPECT_GE(i_ts, o_ts);
  EXPECT_LE(i_end, o_end + 1e-3);
  EXPECT_DOUBLE_EQ(outer->Find("tid")->number, inner->Find("tid")->number);
}

TEST_F(TraceTest, ThreadsGetDistinctTracksAndAllEventsExport) {
  StartProfiling();
  constexpr int kThreads = 3;
  constexpr int kSpans = 50;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < kSpans; ++i) {
        EMX_TRACE_SPAN("worker.span");
      }
    });
  }
  for (auto& t : threads) t.join();
  StopProfiling();

  const std::string json = ExportChromeTrace();
  JsonValue v;
  std::string error;
  ASSERT_TRUE(JsonParse(json, &v, &error)) << error;
  const JsonValue* events = v.Find("traceEvents");
  ASSERT_TRUE(events != nullptr);
  std::vector<double> tids;
  int count = 0;
  for (const JsonValue& e : events->array) {
    if (e.Find("name")->string_value != "worker.span") continue;
    ++count;
    const double tid = e.Find("tid")->number;
    if (std::find(tids.begin(), tids.end(), tid) == tids.end()) {
      tids.push_back(tid);
    }
  }
  EXPECT_EQ(count, kThreads * kSpans);
  EXPECT_EQ(tids.size(), static_cast<size_t>(kThreads));
}

TEST_F(TraceTest, ExportWhileRecordingIsSafe) {
  // The TSan-relevant case: exporter reads buffers with acquire loads while
  // owner threads keep appending.
  StartProfiling();
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      EMX_TRACE_SPAN("concurrent.span");
    }
  });
  for (int i = 0; i < 20; ++i) {
    JsonValue v;
    std::string error;
    ASSERT_TRUE(JsonParse(ExportChromeTrace(), &v, &error)) << error;
  }
  stop.store(true, std::memory_order_relaxed);
  writer.join();
  StopProfiling();
}

TEST_F(TraceTest, FullBufferDropsAndCounts) {
  ObsOptions opts;
  opts.max_events_per_thread = 4;
  StartProfiling(opts);
  std::thread t([] {
    // Fresh thread => fresh buffer with the tiny capacity above.
    for (int i = 0; i < 10; ++i) {
      EMX_TRACE_SPAN("cap.span");
    }
  });
  t.join();
  StopProfiling();
  EXPECT_EQ(TraceDroppedCount(), 6u);
  // The drop count is visible in the export for trust in partial traces.
  JsonValue v;
  std::string error;
  ASSERT_TRUE(JsonParse(ExportChromeTrace(), &v, &error)) << error;
  EXPECT_DOUBLE_EQ(v.Find("otherData")->Find("dropped")->number, 6);
}

TEST_F(TraceTest, CounterEventsCarryValues) {
  StartProfiling();
  TraceCounterValue("depth", 7.5);
  StopProfiling();
  JsonValue v;
  std::string error;
  ASSERT_TRUE(JsonParse(ExportChromeTrace(), &v, &error)) << error;
  const JsonValue& e = v.Find("traceEvents")->array.at(0);
  EXPECT_EQ(e.Find("ph")->string_value, "C");
  EXPECT_DOUBLE_EQ(e.Find("args")->Find("value")->number, 7.5);
}

TEST_F(TraceTest, LazyArgsOnlyRunWhenEnabled) {
  int evaluations = 0;
  {
    EMX_TRACE_SPAN("lazy", [&] {
      ++evaluations;
      return std::string("{}");
    });
  }
  EXPECT_EQ(evaluations, 0);
  StartProfiling();
  {
    EMX_TRACE_SPAN("lazy", [&] {
      ++evaluations;
      return std::string("{}");
    });
  }
  StopProfiling();
  EXPECT_EQ(evaluations, 1);
}

TEST_F(TraceTest, StreamingExportMatchesStringExport) {
  StartProfiling();
  for (int i = 0; i < 200; ++i) {
    EMX_TRACE_SPAN("span", [i] { return KeyValues({{"i", i}}); });
    TraceInstant("tick");
  }
  StopProfiling();

  const std::string whole = ExportChromeTrace();

  // A tiny chunk size forces many flushes; the bytes must be identical to
  // the one-string export and still strictly parse.
  TraceExporter exporter(/*chunk_bytes=*/64);
  std::ostringstream streamed;
  ASSERT_TRUE(exporter.ExportTo(streamed));
  EXPECT_EQ(streamed.str(), whole);

  JsonValue v;
  std::string error;
  ASSERT_TRUE(JsonParse(streamed.str(), &v, &error)) << error;
  const JsonValue* events = v.Find("traceEvents");
  ASSERT_TRUE(events != nullptr && events->is_array());
  EXPECT_EQ(events->array.size(), 400u);
}

TEST_F(TraceTest, StreamingExportReportsStreamFailure) {
  StartProfiling();
  TraceInstant("one");
  StopProfiling();
  std::ostringstream os;
  os.setstate(std::ios::failbit);
  TraceExporter exporter;
  EXPECT_FALSE(exporter.ExportTo(os));
}

TEST_F(TraceTest, StreamingExportOfEmptyBufferIsValidJson) {
  TraceExporter exporter(/*chunk_bytes=*/16);
  std::ostringstream os;
  ASSERT_TRUE(exporter.ExportTo(os));
  JsonValue v;
  std::string error;
  ASSERT_TRUE(JsonParse(os.str(), &v, &error)) << error << "\n" << os.str();
  const JsonValue* events = v.Find("traceEvents");
  ASSERT_TRUE(events != nullptr && events->is_array());
  EXPECT_TRUE(events->array.empty());
}

}  // namespace
}  // namespace obs
}  // namespace emx
