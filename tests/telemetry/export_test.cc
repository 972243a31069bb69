// The Chrome trace-event exporter and its schema checker: event
// mapping, microsecond conversion, clock-domain separation in the
// output, and rejection of malformed or empty traces.
#include "telemetry/trace_export.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "telemetry/json.h"
#include "telemetry/tracer.h"

namespace updlrm::telemetry {
namespace {

class ExportTest : public ::testing::Test {
 protected:
  void TearDown() override { Tracer::Get().Disable(); }

  /// Records a small representative trace spanning both clocks and
  /// every event kind the instrumentation emits.
  static void RecordSampleTrace() {
    Tracer& tracer = Tracer::Get();
    tracer.Enable();
    tracer.SetProcessName(kDpuPid, "DPU array (simulated time)");
    tracer.SetThreadName(kDpuPid, 3, "dpu 3");
    tracer.Begin("host_span", "engine");
    tracer.Instant("host_mark");
    tracer.End();
    tracer.Complete(kDpuPid, 3, Clock::kSim, "kernel", 2'000.0, 500.0,
                    "cycles", 175.0);
    tracer.Counter(kPipelinePid, Clock::kSim, "queue_depth", 1'000.0,
                   4.0);
    tracer.AsyncBegin(kRequestPid, 9, Clock::kSim, "request", "request",
                      100.0);
    tracer.AsyncEnd(kRequestPid, 9, Clock::kSim, "request", "request",
                    3'100.0);
  }
};

TEST_F(ExportTest, RoundTripsThroughTheSchemaChecker) {
  RecordSampleTrace();
  const std::string json = ToChromeTraceJson(Tracer::Get());
  EXPECT_TRUE(ValidateChromeTraceJson(json).ok())
      << ValidateChromeTraceJson(json).ToString();
  EXPECT_TRUE(ValidateChromeTraceJson(json, /*min_events=*/7).ok());
  // 7 non-metadata events were recorded; demanding more must fail.
  EXPECT_FALSE(ValidateChromeTraceJson(json, /*min_events=*/8).ok());
}

TEST_F(ExportTest, MapsEventKindsAndConvertsToMicroseconds) {
  RecordSampleTrace();
  const std::string json = ToChromeTraceJson(Tracer::Get());
  auto parsed = ParseJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const JsonValue* events = parsed->Find("traceEvents");
  ASSERT_NE(events, nullptr);

  const JsonValue* kernel = nullptr;
  const JsonValue* counter = nullptr;
  const JsonValue* async_begin = nullptr;
  bool saw_host_begin = false;
  for (const JsonValue& e : events->AsArray()) {
    const std::string& ph = e.Find("ph")->AsString();
    const JsonValue* name = e.Find("name");
    if (ph == "X") kernel = &e;
    if (ph == "C") counter = &e;
    if (ph == "b") async_begin = &e;
    if (ph == "B" && name->AsString() == "host_span") {
      saw_host_begin = true;
      EXPECT_EQ(static_cast<int>(e.Find("pid")->AsNumber()), kHostPid);
      EXPECT_EQ(e.Find("cat")->AsString(), "engine");
    }
  }
  EXPECT_TRUE(saw_host_begin);

  ASSERT_NE(kernel, nullptr);
  EXPECT_EQ(kernel->Find("name")->AsString(), "kernel");
  EXPECT_EQ(static_cast<int>(kernel->Find("pid")->AsNumber()), kDpuPid);
  EXPECT_EQ(static_cast<int>(kernel->Find("tid")->AsNumber()), 3);
  // ts/dur are exported in microseconds: 2000 ns -> 2 us, 500 -> 0.5.
  EXPECT_DOUBLE_EQ(kernel->Find("ts")->AsNumber(), 2.0);
  EXPECT_DOUBLE_EQ(kernel->Find("dur")->AsNumber(), 0.5);
  const JsonValue* cycles = kernel->Find("args")->Find("cycles");
  ASSERT_NE(cycles, nullptr);
  EXPECT_DOUBLE_EQ(cycles->AsNumber(), 175.0);

  ASSERT_NE(counter, nullptr);
  EXPECT_DOUBLE_EQ(counter->Find("args")->Find("value")->AsNumber(), 4.0);

  ASSERT_NE(async_begin, nullptr);
  EXPECT_EQ(async_begin->Find("cat")->AsString(), "request");
  ASSERT_NE(async_begin->Find("id"), nullptr);
}

TEST_F(ExportTest, NamesTracksAndSeparatesClockDomains) {
  RecordSampleTrace();
  const std::string json = ToChromeTraceJson(Tracer::Get());
  auto parsed = ParseJson(json);
  ASSERT_TRUE(parsed.ok());
  bool named_dpu_process = false;
  bool named_dpu_track = false;
  for (const JsonValue& e : parsed->Find("traceEvents")->AsArray()) {
    if (e.Find("ph")->AsString() != "M") {
      // Host-clock events stay in kHostPid; simulated events never
      // appear there.
      const int pid = static_cast<int>(e.Find("pid")->AsNumber());
      const std::string& name = e.Find("name") != nullptr
                                    ? e.Find("name")->AsString()
                                    : std::string();
      if (pid == kHostPid) {
        EXPECT_TRUE(name == "host_span" || name == "host_mark" ||
                    name.empty())
            << name;
      } else {
        EXPECT_TRUE(name != "host_span" && name != "host_mark") << name;
      }
      continue;
    }
    if (e.Find("name")->AsString() == "process_name" &&
        static_cast<int>(e.Find("pid")->AsNumber()) == kDpuPid) {
      named_dpu_process = true;
    }
    if (e.Find("name")->AsString() == "thread_name" &&
        static_cast<int>(e.Find("tid")->AsNumber()) == 3) {
      named_dpu_track = true;
    }
  }
  EXPECT_TRUE(named_dpu_process);
  EXPECT_TRUE(named_dpu_track);
  const JsonValue* other = parsed->Find("otherData");
  ASSERT_NE(other, nullptr);
  EXPECT_NE(other->Find("clockDomains"), nullptr);
}

TEST_F(ExportTest, RejectsMalformedJson) {
  EXPECT_FALSE(ValidateChromeTraceJson("not json at all").ok());
  EXPECT_FALSE(ValidateChromeTraceJson("{\"traceEvents\": 17}").ok());
  EXPECT_FALSE(ValidateChromeTraceJson("{}").ok());
  EXPECT_FALSE(ValidateChromeTraceJson("{\"traceEvents\": [").ok());
}

TEST_F(ExportTest, RejectsSchemaViolations) {
  auto wrap = [](const std::string& event) {
    return "{\"traceEvents\": [" + event + "]}";
  };
  // Well-formed JSON, broken trace-event schema:
  EXPECT_FALSE(ValidateChromeTraceJson(wrap("{}")).ok());  // no ph
  EXPECT_FALSE(ValidateChromeTraceJson(
                   wrap("{\"ph\":\"Z\",\"pid\":1,\"tid\":0,\"ts\":0,"
                        "\"name\":\"x\"}"))
                   .ok());  // unknown phase
  EXPECT_FALSE(ValidateChromeTraceJson(
                   wrap("{\"ph\":\"X\",\"pid\":1,\"tid\":0,\"ts\":0,"
                        "\"name\":\"x\"}"))
                   .ok());  // X without dur
  EXPECT_FALSE(ValidateChromeTraceJson(
                   wrap("{\"ph\":\"B\",\"pid\":1,\"tid\":0,\"ts\":-5,"
                        "\"name\":\"x\"}"))
                   .ok());  // negative ts
  EXPECT_FALSE(ValidateChromeTraceJson(
                   wrap("{\"ph\":\"b\",\"pid\":1,\"tid\":0,\"ts\":0,"
                        "\"name\":\"x\"}"))
                   .ok());  // async without id/cat
  EXPECT_FALSE(ValidateChromeTraceJson(
                   wrap("{\"ph\":\"B\",\"pid\":1,\"tid\":0,\"ts\":0,"
                        "\"name\":\"\"}"))
                   .ok());  // empty name on an opening event
  // A valid minimal B event passes.
  EXPECT_TRUE(ValidateChromeTraceJson(
                  wrap("{\"ph\":\"B\",\"pid\":1,\"tid\":0,\"ts\":0,"
                       "\"name\":\"x\"}"))
                  .ok());
}

TEST_F(ExportTest, MetadataOnlyTracesCountAsEmpty) {
  const std::string metadata_only =
      "{\"traceEvents\": [{\"ph\":\"M\",\"pid\":1,\"tid\":0,"
      "\"name\":\"process_name\",\"args\":{\"name\":\"x\"}}]}";
  EXPECT_FALSE(ValidateChromeTraceJson(metadata_only).ok());
  EXPECT_TRUE(ValidateChromeTraceJson(metadata_only, /*min_events=*/0).ok());
}

TEST_F(ExportTest, WriteFailsOnEmptyTrace) {
  Tracer::Get().Enable();  // enabled but nothing recorded
  const Status status =
      WriteChromeTrace(Tracer::Get(), "/tmp/updlrm_export_test_empty.json");
  EXPECT_FALSE(status.ok());
}

TEST_F(ExportTest, WritesAndValidatesFile) {
  RecordSampleTrace();
  const std::string path = "/tmp/updlrm_export_test_trace.json";
  ASSERT_TRUE(WriteChromeTrace(Tracer::Get(), path).ok());
  EXPECT_TRUE(ValidateChromeTraceFile(path).ok());
  std::remove(path.c_str());
  EXPECT_FALSE(ValidateChromeTraceFile(path).ok());  // unreadable
}

TEST_F(ExportTest, ContainsEventFindsNonMetadataNames) {
  RecordSampleTrace();
  const std::string json = ToChromeTraceJson(Tracer::Get());
  auto has_kernel = ChromeTraceContainsEvent(json, "kernel");
  ASSERT_TRUE(has_kernel.ok());
  EXPECT_TRUE(*has_kernel);
  auto has_missing = ChromeTraceContainsEvent(json, "nope");
  ASSERT_TRUE(has_missing.ok());
  EXPECT_FALSE(*has_missing);
  // Metadata track names don't count as events.
  auto has_meta = ChromeTraceContainsEvent(json, "process_name");
  ASSERT_TRUE(has_meta.ok());
  EXPECT_FALSE(*has_meta);
}

// Fixed synthetic trace: every phase, both clocks, fallbacks for null
// names/categories, arg formatting and names that need escaping.
std::vector<TraceEvent> GoldenEvents() {
  std::vector<TraceEvent> events;
  events.reserve(16);
  auto add = [&events](EventKind kind, std::int32_t pid, std::int64_t tid,
                       Clock clock, const char* name, const char* category,
                       double ts_ns) -> TraceEvent& {
    TraceEvent e;
    e.kind = kind;
    e.pid = pid;
    e.tid = tid;
    e.clock = clock;
    e.name = name;
    e.category = category;
    e.ts_ns = ts_ns;
    events.push_back(e);
    return events.back();
  };
  TraceEvent& begin = add(EventKind::kBegin, kHostPid, 0, Clock::kHost,
                          "setup \"phase\"", nullptr, 1234.5678);
  begin.arg_name[0] = "rows";
  begin.arg_value[0] = 4096.0;
  add(EventKind::kEnd, kHostPid, 0, Clock::kHost, "setup", "engine",
      98765.4321);
  TraceEvent& kernel = add(EventKind::kComplete, kDpuPid, 255, Clock::kSim,
                           "kernel", nullptr, 2.0e9 + 0.125);
  kernel.dur_ns = 1.0 / 3.0;
  kernel.arg_name[0] = "cycles";
  kernel.arg_value[0] = 175.0;
  kernel.arg_name[1] = "path\\dir";
  kernel.arg_value[1] = -2.5e-7;
  TraceEvent& host_slice = add(EventKind::kComplete, kHostPid, 3,
                               Clock::kHost, nullptr, "engine", 0.0);
  host_slice.dur_ns = 1.0e15;
  host_slice.arg_name[1] = "only_second";
  host_slice.arg_value[1] = 12345678901234567.0;
  add(EventKind::kInstant, kPipelinePid, 1, Clock::kSim, "drop\tmark",
      nullptr, 10.0);
  TraceEvent& mark = add(EventKind::kInstant, kHostPid, 2, Clock::kHost,
                         "host_mark", "serve", 7.0);
  mark.arg_name[0] = "depth";
  mark.arg_value[0] = 3.0;
  TraceEvent& counter = add(EventKind::kCounter, kPipelinePid, 0,
                            Clock::kSim, "queue_depth", "ignored", 1e3);
  counter.value = 0.1;
  counter.arg_name[0] = "ignored_arg";
  add(EventKind::kAsyncBegin, kRequestPid, 0, Clock::kSim, "request",
      nullptr, 100.0)
      .async_id = 0xdeadbeefULL;
  add(EventKind::kAsyncEnd, kRequestPid, 0, Clock::kSim, "request",
      "request", 3100.0)
      .async_id = 0xdeadbeefULL;
  TraceEvent& ctl = add(EventKind::kComplete, kRankPid, 1, Clock::kSim,
                        "ctl\x01\x1f\r\n", "cat\"q", 5.0);
  ctl.dur_ns = 0.0;
  return events;
}

void NameGoldenTracks(Tracer& tracer) {
  tracer.SetProcessName(kDpuPid, "DPU \"array\"\n(sim)");
  tracer.SetProcessName(42, "unused pid");  // no event: no metadata
  tracer.SetThreadName(kDpuPid, 255, "dpu\\255\t");
  tracer.SetThreadName(kHostPid, 0, "main");
  tracer.CountSampledOut(3);
}

// The exporter's exact output bytes: a change to the trace format
// shows here, not only in whether it parses.
constexpr char kGoldenTrace[] = R"golden({"traceEvents":[
{"name":"process_name","ph":"M","pid":1,"tid":0,"args":{"name":"host threads (wall clock)"}},
{"name":"process_name","ph":"M","pid":2,"tid":0,"args":{"name":"pipeline (simulated time)"}},
{"name":"process_name","ph":"M","pid":3,"tid":0,"args":{"name":"requests (simulated time)"}},
{"name":"process_name","ph":"M","pid":4,"tid":0,"args":{"name":"DPU \"array\"\n(sim)"}},
{"name":"process_name","ph":"M","pid":6,"tid":0,"args":{"name":"rank rollup (simulated time)"}},
{"name":"thread_name","ph":"M","pid":1,"tid":0,"args":{"name":"main"}},
{"name":"thread_name","ph":"M","pid":4,"tid":255,"args":{"name":"dpu\\255\t"}},
{"name":"setup \"phase\"","cat":"host","ph":"B","ts":1.2345678,"pid":1,"tid":0,"args":{"rows":4096}},
{"ph":"E","ts":98.7654321,"pid":1,"tid":0},
{"name":"kernel","cat":"sim","ph":"X","ts":2000000.000125,"pid":4,"tid":255,"dur":0.000333333333333333,"args":{"cycles":175,"path\\dir":-2.5e-07}},
{"name":"(unnamed)","cat":"engine","ph":"X","ts":0,"pid":1,"tid":3,"dur":1000000000000,"args":{"only_second":1.23456789012346e+16}},
{"name":"drop\tmark","cat":"sim","ph":"i","s":"t","ts":0.01,"pid":2,"tid":1},
{"name":"host_mark","cat":"serve","ph":"i","s":"t","ts":0.007,"pid":1,"tid":2,"args":{"depth":3}},
{"name":"queue_depth","ph":"C","ts":1,"pid":2,"tid":0,"args":{"value":0.1}},
{"name":"request","cat":"async","ph":"b","id":"0xdeadbeef","ts":0.1,"pid":3,"tid":0},
{"name":"request","cat":"request","ph":"e","id":"0xdeadbeef","ts":3.1,"pid":3,"tid":0},
{"name":"ctl\u0001\u001f\r\n","cat":"cat\"q","ph":"X","ts":0.005,"pid":6,"tid":1,"dur":0}
],"displayTimeUnit":"ns","otherData":{"clockDomains":"pid 1 = host wall clock; other pids = simulated nanoseconds","recordedEvents":10,"droppedEvents":0,"sampledOutSpans":3}}
)golden";

TEST_F(ExportTest, GoldenTraceBytesArePinned) {
  Tracer& tracer = Tracer::Get();
  tracer.Enable();
  NameGoldenTracks(tracer);
  tracer.Disable();
  EXPECT_EQ(ToChromeTraceJson(tracer, GoldenEvents()), kGoldenTrace);
  EXPECT_TRUE(ValidateChromeTraceJson(kGoldenTrace).ok());
}

}  // namespace
}  // namespace updlrm::telemetry
