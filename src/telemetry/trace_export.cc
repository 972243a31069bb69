#include "telemetry/trace_export.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <set>
#include <sstream>

#include "telemetry/json.h"

namespace updlrm::telemetry {

namespace {

/// Phase letter and the "cat" written when the event names none
/// (nullptr: the phase carries no "cat").
struct Phase {
  const char* ph;
  const char* default_category;
};

Phase PhaseOf(const TraceEvent& e) {
  const char* clock = e.clock == Clock::kSim ? "sim" : "host";
  switch (e.kind) {
    case EventKind::kBegin: return {"B", "host"};
    // "E" closes the innermost open "B" on the same (pid, tid);
    // name/cat are optional and omitted.
    case EventKind::kEnd: return {"E", nullptr};
    case EventKind::kComplete: return {"X", clock};
    case EventKind::kInstant: return {"i", clock};
    case EventKind::kCounter: return {"C", nullptr};
    case EventKind::kAsyncBegin: return {"b", "async"};
    case EventKind::kAsyncEnd: return {"e", "async"};
  }
  return {"i", clock};
}

/// ts and dur are exported in microseconds per the trace-event format.
void WriteEvent(JsonWriter& w, const TraceEvent& e) {
  const Phase phase = PhaseOf(e);
  w.BeginObject();
  if (e.kind != EventKind::kEnd) {
    w.Field("name", e.name != nullptr ? e.name : "(unnamed)");
  }
  if (phase.default_category != nullptr) {
    w.Field("cat",
            e.category != nullptr ? e.category : phase.default_category);
  }
  w.Field("ph", phase.ph);
  if (e.kind == EventKind::kInstant) w.Field("s", "t");
  if (e.kind == EventKind::kAsyncBegin || e.kind == EventKind::kAsyncEnd) {
    char id[32];
    std::snprintf(id, sizeof(id), "0x%llx",
                  static_cast<unsigned long long>(e.async_id));
    w.Field("id", id);
  }
  w.Field("ts", e.ts_ns / 1.0e3).Field("pid", e.pid).Field("tid", e.tid);
  if (e.kind == EventKind::kComplete) w.Field("dur", e.dur_ns / 1.0e3);
  if (e.kind == EventKind::kCounter) {
    w.Key("args").BeginObject().Field("value", e.value).EndObject();
  } else if (std::any_of(std::begin(e.arg_name), std::end(e.arg_name),
                         [](const char* n) { return n != nullptr; })) {
    w.Key("args").BeginObject();
    for (int i = 0; i < kMaxTraceArgs; ++i) {
      if (e.arg_name[i] != nullptr) w.Field(e.arg_name[i], e.arg_value[i]);
    }
    w.EndObject();
  }
  w.EndObject();
}

void WriteMetadata(JsonWriter& w, std::int32_t pid, std::int64_t tid,
                   const char* which, const std::string& name) {
  w.BeginObject().Field("name", which).Field("ph", "M").Field("pid", pid);
  w.Field("tid", tid).Key("args").BeginObject().Field("name", name);
  w.EndObject().EndObject();
}

}  // namespace

std::string ToChromeTraceJson(const Tracer& tracer,
                              const std::vector<TraceEvent>& events) {
  JsonWriter w;
  w.BeginObject().Key("traceEvents").BeginArray(JsonWriter::Layout::kLines);

  // Metadata: default process names for the well-known pids, overlaid
  // with whatever the emitters registered.
  std::map<std::int32_t, std::string> processes = {
      {kHostPid, "host threads (wall clock)"},
      {kPipelinePid, "pipeline (simulated time)"},
      {kRequestPid, "requests (simulated time)"},
      {kDpuPid, "DPU array (simulated time)"},
      {kTaskletPid, "straggler tasklets (simulated time)"},
      {kRankPid, "rank rollup (simulated time)"},
  };
  std::set<std::int32_t> used_pids;
  for (const TraceEvent& e : events) used_pids.insert(e.pid);
  for (const auto& [pid, name] : tracer.process_names()) {
    processes[pid] = name;
  }
  for (const auto& [pid, name] : processes) {
    if (used_pids.count(pid) == 0) continue;
    WriteMetadata(w, pid, 0, "process_name", name);
  }
  for (const auto& [key, name] : tracer.thread_names()) {
    WriteMetadata(w, key.first, key.second, "thread_name", name);
  }

  for (const TraceEvent& e : events) WriteEvent(w, e);
  w.EndArray().Field("displayTimeUnit", "ns");
  w.Key("otherData").BeginObject().Field(
      "clockDomains",
      "pid 1 = host wall clock; other pids = simulated nanoseconds");
  w.Field("recordedEvents", events.size());
  w.Field("droppedEvents", tracer.dropped_events());
  w.Field("sampledOutSpans", tracer.sampled_out_events());
  w.EndObject().EndObject().Newline();
  return w.str();
}

std::string ToChromeTraceJson(const Tracer& tracer) {
  return ToChromeTraceJson(tracer, tracer.Snapshot());
}

Status WriteChromeTrace(const Tracer& tracer, const std::string& path) {
  const std::vector<TraceEvent> events = tracer.Snapshot();
  if (events.empty()) {
    return Status::FailedPrecondition(
        "trace is empty: no events were recorded (is tracing enabled?)");
  }
  return WriteTextFile(path, ToChromeTraceJson(tracer, events));
}

namespace {

Status EventError(std::size_t index, const std::string& what) {
  return Status::InvalidArgument("traceEvents[" + std::to_string(index) +
                                 "]: " + what);
}

Status ValidateEvent(std::size_t i, const JsonValue& event) {
  if (!event.is_object()) return EventError(i, "not an object");
  const JsonValue* ph = event.Find("ph");
  if (ph == nullptr || !ph->is_string()) {
    return EventError(i, "missing string \"ph\"");
  }
  const std::string& phase = ph->AsString();
  static const std::set<std::string> kKnown = {"B", "E", "X", "i", "C",
                                              "b", "e", "M"};
  if (kKnown.count(phase) == 0) {
    return EventError(i, "unknown phase \"" + phase + "\"");
  }
  const JsonValue* pid = event.Find("pid");
  if (pid == nullptr || !pid->is_number()) {
    return EventError(i, "missing numeric \"pid\"");
  }
  if (phase != "M") {
    const JsonValue* ts = event.Find("ts");
    if (ts == nullptr || !ts->is_number()) {
      return EventError(i, "missing numeric \"ts\"");
    }
    if (ts->AsNumber() < 0.0) return EventError(i, "negative \"ts\"");
  }
  if (phase != "E") {
    // "E" events may omit the name; everything else must carry one.
    const JsonValue* name = event.Find("name");
    if (name == nullptr || !name->is_string() ||
        name->AsString().empty()) {
      return EventError(i, "missing non-empty string \"name\"");
    }
  }
  if (phase == "X") {
    const JsonValue* dur = event.Find("dur");
    if (dur == nullptr || !dur->is_number()) {
      return EventError(i, "complete event missing numeric \"dur\"");
    }
    if (dur->AsNumber() < 0.0) return EventError(i, "negative \"dur\"");
  }
  if (phase == "C" || phase == "M") {
    const JsonValue* args = event.Find("args");
    if (args == nullptr || !args->is_object()) {
      return EventError(i, "counter/metadata event missing \"args\"");
    }
  }
  if (phase == "b" || phase == "e") {
    const JsonValue* id = event.Find("id");
    if (id == nullptr || (!id->is_string() && !id->is_number())) {
      return EventError(i, "async event missing \"id\"");
    }
    const JsonValue* cat = event.Find("cat");
    if (cat == nullptr || !cat->is_string()) {
      return EventError(i, "async event missing \"cat\"");
    }
  }
  return Status::Ok();
}

}  // namespace

Status ValidateChromeTraceJson(std::string_view json,
                               std::size_t min_events) {
  auto parsed = ParseJson(json);
  if (!parsed.ok()) return parsed.status();
  if (!parsed->is_object()) {
    return Status::InvalidArgument("trace root is not a JSON object");
  }
  const JsonValue* events = parsed->Find("traceEvents");
  if (events == nullptr || !events->is_array()) {
    return Status::InvalidArgument("missing \"traceEvents\" array");
  }
  std::size_t real_events = 0;
  const JsonArray& array = events->AsArray();
  for (std::size_t i = 0; i < array.size(); ++i) {
    UPDLRM_RETURN_IF_ERROR(ValidateEvent(i, array[i]));
    const JsonValue* ph = array[i].Find("ph");
    if (ph->AsString() != "M") ++real_events;
  }
  if (real_events < min_events) {
    return Status::FailedPrecondition(
        "trace holds " + std::to_string(real_events) +
        " non-metadata event(s), expected at least " +
        std::to_string(min_events));
  }
  return Status::Ok();
}

Status ValidateChromeTraceFile(const std::string& path,
                               std::size_t min_events) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return ValidateChromeTraceJson(buffer.str(), min_events);
}

Status ValidateChromeTraceCounters(std::string_view json,
                                   std::span<const std::string> required) {
  auto parsed = ParseJson(json);
  if (!parsed.ok()) return parsed.status();
  const JsonValue* events = parsed->Find("traceEvents");
  if (events == nullptr || !events->is_array()) {
    return Status::InvalidArgument("missing \"traceEvents\" array");
  }
  // Last timestamp per counter series; (pid, name) is a series the way
  // the viewer draws it.
  std::map<std::pair<double, std::string>, double> last_ts;
  std::set<std::string> seen;
  const JsonArray& array = events->AsArray();
  for (std::size_t i = 0; i < array.size(); ++i) {
    const JsonValue& event = array[i];
    const JsonValue* ph = event.Find("ph");
    if (ph == nullptr || !ph->is_string() || ph->AsString() != "C") {
      continue;
    }
    const JsonValue* name = event.Find("name");
    if (name == nullptr || !name->is_string()) {
      return EventError(i, "counter missing string \"name\"");
    }
    const JsonValue* args = event.Find("args");
    const JsonValue* value =
        args != nullptr && args->is_object() ? args->Find("value") : nullptr;
    if (value == nullptr || !value->is_number()) {
      return EventError(i, "counter \"" + name->AsString() +
                               "\" missing numeric args.value");
    }
    const JsonValue* pid = event.Find("pid");
    const JsonValue* ts = event.Find("ts");
    if (pid == nullptr || !pid->is_number() || ts == nullptr ||
        !ts->is_number()) {
      return EventError(i, "counter missing numeric \"pid\"/\"ts\"");
    }
    const auto key = std::make_pair(pid->AsNumber(), name->AsString());
    const auto it = last_ts.find(key);
    if (it != last_ts.end() && ts->AsNumber() < it->second) {
      return EventError(
          i, "counter series \"" + name->AsString() +
                 "\" timestamps go backwards (" +
                 std::to_string(ts->AsNumber()) + " after " +
                 std::to_string(it->second) + ")");
    }
    last_ts[key] = ts->AsNumber();
    seen.insert(name->AsString());
  }
  for (const std::string& name : required) {
    if (seen.count(name) == 0) {
      return Status::FailedPrecondition(
          "no counter series named \"" + name + "\"");
    }
  }
  return Status::Ok();
}

Result<bool> ChromeTraceContainsEvent(std::string_view json,
                                      std::string_view name) {
  auto parsed = ParseJson(json);
  if (!parsed.ok()) return parsed.status();
  const JsonValue* events = parsed->Find("traceEvents");
  if (events == nullptr || !events->is_array()) {
    return Status::InvalidArgument("missing \"traceEvents\" array");
  }
  for (const JsonValue& event : events->AsArray()) {
    const JsonValue* ph = event.Find("ph");
    const JsonValue* n = event.Find("name");
    if (ph != nullptr && ph->is_string() && ph->AsString() != "M" &&
        n != nullptr && n->is_string() && n->AsString() == name) {
      return true;
    }
  }
  return false;
}

}  // namespace updlrm::telemetry
