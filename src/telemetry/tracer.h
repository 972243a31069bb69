// Low-overhead span tracer with two clock domains.
//
// The simulator's time story is split: host work (routing, functional
// kernels, mining) happens on the machine's wall clock, while every
// latency the paper reports (stage 1/2/3, batch schedules, request
// lifetimes) lives on a *simulated* nanosecond clock that no host
// thread ever observes directly. The tracer records both into one
// event stream so a single Perfetto/Chrome-trace view shows where a
// request queued, which DPU straggled, and what the host threads were
// doing meanwhile (trace_export.h turns the stream into JSON).
//
// Design constraints, in priority order:
//   1. Disabled cost: one relaxed atomic load and branch per site
//      (TraceEnabled()); a -DUPDLRM_TELEMETRY=OFF build compiles the
//      RAII spans out entirely.
//   2. Thread safety without hot-path locks: each thread owns a
//      fixed-capacity event buffer it alone writes (registered once
//      under a mutex); Snapshot() merges them after the traced region's
//      threads have joined.
//   3. Bounded memory: a full buffer drops the event and counts it —
//      never resizes, never blocks. dropped_events() makes the loss
//      visible; the --trace-sample-every knob (TracerOptions::
//      sample_every) is the intended pressure valve for long runs.
//   4. No feedback: tracing writes observation buffers only. Simulated
//      results are bit-exact with tracing on or off, at any thread
//      count (tests/telemetry/trace_determinism_test.cc pins this).
//
// Event names and arg names must be string literals (or otherwise
// outlive the tracer): events store the pointers, not copies.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "common/units.h"

namespace updlrm::telemetry {

/// Which clock an event's timestamps belong to. Host events measure
/// real elapsed time since Enable(); sim events carry timestamps the
/// emitter computed on the simulated clock. The exporter keeps the two
/// domains in disjoint process groups so they are never visually
/// conflated.
enum class Clock : std::uint8_t { kHost, kSim };

enum class EventKind : std::uint8_t {
  kBegin,       // host-clock span open (paired with kEnd, per thread)
  kEnd,         // host-clock span close
  kComplete,    // explicit [ts, ts+dur] slice, either clock
  kInstant,     // point marker
  kCounter,     // sampled counter value
  kAsyncBegin,  // id-correlated span open (request lifetimes)
  kAsyncEnd,    // id-correlated span close
};

/// Numeric args one event can carry.
inline constexpr int kMaxTraceArgs = 4;

/// One recorded event. POD-sized on purpose: buffers are preallocated
/// arrays of these.
struct TraceEvent {
  const char* name = nullptr;
  const char* category = nullptr;
  EventKind kind = EventKind::kInstant;
  Clock clock = Clock::kHost;
  /// Export process id — see the k*Pid constants below.
  std::int32_t pid = 0;
  /// Export track id within the process (host: thread index; DPU
  /// timeline: global DPU id; tasklet detail: tasklet id; ...).
  std::int64_t tid = 0;
  double ts_ns = 0.0;
  double dur_ns = 0.0;    // kComplete only
  std::uint64_t async_id = 0;  // kAsync* only
  double value = 0.0;          // kCounter only
  /// Up to kMaxTraceArgs numeric args, rendered into the event's "args"
  /// object.
  const char* arg_name[kMaxTraceArgs] = {};
  double arg_value[kMaxTraceArgs] = {};
};

/// Well-known export process ids (one per track family). The exporter
/// names them; emitters pick the pid matching their clock/track family.
inline constexpr std::int32_t kHostPid = 1;      // host threads, wall clock
inline constexpr std::int32_t kPipelinePid = 2;  // sim: batch pipeline
inline constexpr std::int32_t kRequestPid = 3;   // sim: request lifetimes
inline constexpr std::int32_t kDpuPid = 4;       // sim: per-DPU stage-2
inline constexpr std::int32_t kTaskletPid = 5;   // sim: straggler tasklets
inline constexpr std::int32_t kRankPid = 6;      // sim: per-rank rollup

/// Well-known track ids (tids) within kPipelinePid, one per simulated
/// resource of the data-flow executor (serve/executor.h). The host is
/// two lanes that run concurrently: the bus track is the transfer lane
/// (stage-1 push, stage-3 pull), the core track the core lane
/// (stage-3 aggregation, then the full path's dense tasks). The
/// executor never overlaps two slices on one track, but the two host
/// tracks overlap each other. The fabric track carries remote shards'
/// cross-host stage-1 hops and only appears when a batch has one.
inline constexpr std::int64_t kHostBusTrack = 0;   // stage 1 push, stage 3 pull
inline constexpr std::int64_t kDpuTrack = 1;       // stage 2 lookup kernels
inline constexpr std::int64_t kHostCoreTrack = 2;  // aggregate + dense tasks
inline constexpr std::int64_t kGpuTrack = 3;       // GPU-placed MLP stages
inline constexpr std::int64_t kFabricTrack = 4;    // stage 1 cross-host hop

struct TracerOptions {
  /// Events per thread buffer; overflow drops (and counts) events.
  std::size_t buffer_capacity = std::size_t{1} << 15;
  /// Trace 1-in-N requests/batches in long runs (1 = everything).
  /// Emitters honoring it must count what they skip — no silent caps
  /// (see Tracer::CountSampledOut / sampled_out_events()).
  std::uint64_t sample_every = 1;
};

/// Process-wide tracer. Get() is the only instance; benches enable it
/// for the duration of a traced run (bench::TraceSession).
class Tracer {
 public:
  static Tracer& Get();

  /// Starts a fresh trace: drops all previously recorded events,
  /// re-arms per-thread buffers lazily, and anchors the host clock's
  /// zero at the call instant.
  void Enable(TracerOptions options = {});
  /// Stops recording. Already-recorded events stay available to
  /// Snapshot() until the next Enable().
  void Disable();
  // Acquire pairs with Enable()'s release store so a thread that sees
  // enabled == true also sees the epoch/options written before it.
  bool enabled() const {
    return enabled_.load(std::memory_order_acquire);
  }
  TracerOptions options() const EXCLUDES(mu_);

  /// Host wall-clock nanoseconds since Enable().
  Nanos HostNowNs() const;

  // --- host-clock emission (pid kHostPid, tid = thread index) ---
  void Begin(const char* name, const char* category = nullptr);
  /// Closes the innermost open span; the optional arg lands in the
  /// span's args (the exporter merges an "E" event's args into its
  /// slice).
  void End(const char* arg0_name = nullptr, double arg0 = 0.0);
  void Instant(const char* name, const char* category = nullptr);

  // --- explicit-clock emission -----------------------------------
  void Complete(std::int32_t pid, std::int64_t tid, Clock clock,
                const char* name, Nanos ts_ns, Nanos dur_ns,
                const char* arg0_name = nullptr, double arg0 = 0.0,
                const char* arg1_name = nullptr, double arg1 = 0.0,
                const char* arg2_name = nullptr, double arg2 = 0.0,
                const char* arg3_name = nullptr, double arg3 = 0.0);
  void Counter(std::int32_t pid, Clock clock, const char* name,
               Nanos ts_ns, double value);
  void InstantAt(std::int32_t pid, std::int64_t tid, Clock clock,
                 const char* name, Nanos ts_ns,
                 const char* arg0_name = nullptr, double arg0 = 0.0);
  void AsyncBegin(std::int32_t pid, std::uint64_t id, Clock clock,
                  const char* name, const char* category, Nanos ts_ns);
  void AsyncEnd(std::int32_t pid, std::uint64_t id, Clock clock,
                const char* name, const char* category, Nanos ts_ns);

  /// Track naming for the exporter ("M" metadata events).
  void SetProcessName(std::int32_t pid, std::string name);
  void SetThreadName(std::int32_t pid, std::int64_t tid, std::string name);

  /// Records that an emitter skipped `n` spans because of
  /// sample_every. Keeps the drop visible in the export summary.
  void CountSampledOut(std::uint64_t n = 1);

  /// Copies out every recorded event, thread buffers concatenated in
  /// registration order (per-thread emission order is preserved). Must
  /// not race live emission: call after the traced region's worker
  /// threads have joined (ParallelFor joins; the serve loop is
  /// single-threaded at the boundaries).
  std::vector<TraceEvent> Snapshot() const;

  std::uint64_t recorded_events() const;
  std::uint64_t dropped_events() const;
  std::uint64_t sampled_out_events() const {
    return sampled_out_.load(std::memory_order_relaxed);
  }

  std::map<std::int32_t, std::string> process_names() const;
  std::map<std::pair<std::int32_t, std::int64_t>, std::string>
  thread_names() const;

  struct ThreadBuffer;

 private:
  Tracer() = default;

  ThreadBuffer* BufferForThisThread();
  void Emit(const TraceEvent& event);

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> generation_{0};
  std::atomic<std::uint64_t> sampled_out_{0};
  // Written only by Enable() (sequenced before the enabled_ release
  // store, which every emitter acquires), read on the emission path —
  // the enabled_ edge, not mu_, is what orders it.
  std::chrono::steady_clock::time_point epoch_{};

  mutable Mutex mu_;
  TracerOptions options_ GUARDED_BY(mu_);
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_ GUARDED_BY(mu_);
  std::map<std::int32_t, std::string> process_names_ GUARDED_BY(mu_);
  std::map<std::pair<std::int32_t, std::int64_t>, std::string>
      thread_names_ GUARDED_BY(mu_);
};

/// True when events would actually be recorded. The one-branch gate
/// every instrumentation site checks first; constant false (and
/// dead-code eliminated) when telemetry is compiled out.
inline bool TraceEnabled() {
#ifdef UPDLRM_TELEMETRY_DISABLED
  return false;
#else
  return Tracer::Get().enabled();
#endif
}

/// RAII host-clock span. Costs the TraceEnabled() branch when tracing
/// is off; emits a Begin/End pair on this thread's track when on.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name, const char* category = nullptr)
      : armed_(TraceEnabled()) {
    if (armed_) Tracer::Get().Begin(name, category);
  }
  ~TraceSpan() {
    if (armed_) Tracer::Get().End();
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  bool armed_;
};

}  // namespace updlrm::telemetry
