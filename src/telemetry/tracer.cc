#include "telemetry/tracer.h"

namespace updlrm::telemetry {

/// One thread's event storage. Only the owning thread writes events
/// and bumps `size` (release); Snapshot() reads `size` (acquire) and
/// the events below it. `dropped` uses relaxed atomics — it is a
/// counter, not a synchronization point.
struct Tracer::ThreadBuffer {
  explicit ThreadBuffer(std::size_t capacity, std::int64_t index)
      : events(capacity), thread_index(index) {}

  std::vector<TraceEvent> events;
  std::atomic<std::size_t> size{0};
  std::atomic<std::uint64_t> dropped{0};
  std::int64_t thread_index = 0;  // registration order == export tid
};

namespace {
/// Per-thread registration slot. `generation` ties the cached pointer
/// to one Enable() epoch so stale buffers from a previous trace are
/// never written into.
struct TlsSlot {
  Tracer::ThreadBuffer* buffer = nullptr;
  std::uint64_t generation = 0;
};
thread_local TlsSlot tls_slot;
}  // namespace

Tracer& Tracer::Get() {
  static Tracer tracer;
  return tracer;
}

void Tracer::Enable(TracerOptions options) {
  MutexLock lock(mu_);
  options_ = options;
  if (options_.buffer_capacity == 0) options_.buffer_capacity = 1;
  if (options_.sample_every == 0) options_.sample_every = 1;
  buffers_.clear();
  process_names_.clear();
  thread_names_.clear();
  sampled_out_.store(0, std::memory_order_relaxed);
  epoch_ = std::chrono::steady_clock::now();
  // Invalidate every thread's cached buffer pointer before recording
  // can start.
  generation_.fetch_add(1, std::memory_order_release);
  enabled_.store(true, std::memory_order_release);
}

TracerOptions Tracer::options() const {
  MutexLock lock(mu_);
  return options_;
}

void Tracer::Disable() {
  enabled_.store(false, std::memory_order_release);
}

Nanos Tracer::HostNowNs() const {
  return static_cast<Nanos>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

Tracer::ThreadBuffer* Tracer::BufferForThisThread() {
  const std::uint64_t gen = generation_.load(std::memory_order_acquire);
  if (tls_slot.buffer != nullptr && tls_slot.generation == gen) {
    return tls_slot.buffer;
  }
  MutexLock lock(mu_);
  // Re-check under the lock: Enable() may have bumped the generation
  // between the load above and here; registering against the newest
  // epoch is always correct (events land in the current trace).
  auto buffer = std::make_unique<ThreadBuffer>(
      options_.buffer_capacity, static_cast<std::int64_t>(buffers_.size()));
  tls_slot.buffer = buffer.get();
  tls_slot.generation = generation_.load(std::memory_order_relaxed);
  buffers_.push_back(std::move(buffer));
  return tls_slot.buffer;
}

void Tracer::Emit(const TraceEvent& event) {
  // Backstop for ungated call sites: a disabled tracer records
  // nothing, so emission racing a Disable()+export cannot mutate the
  // snapshot being written.
  if (!enabled_.load(std::memory_order_acquire)) return;
  ThreadBuffer* buf = BufferForThisThread();
  const std::size_t n = buf->size.load(std::memory_order_relaxed);
  if (n >= buf->events.size()) {
    buf->dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  buf->events[n] = event;
  buf->size.store(n + 1, std::memory_order_release);
}

void Tracer::Begin(const char* name, const char* category) {
  TraceEvent e;
  e.name = name;
  e.category = category;
  e.kind = EventKind::kBegin;
  e.clock = Clock::kHost;
  e.pid = kHostPid;
  e.ts_ns = HostNowNs();
  e.tid = BufferForThisThread()->thread_index;
  Emit(e);
}

void Tracer::End(const char* arg0_name, double arg0) {
  TraceEvent e;
  e.kind = EventKind::kEnd;
  e.arg_name[0] = arg0_name;
  e.arg_value[0] = arg0;
  e.clock = Clock::kHost;
  e.pid = kHostPid;
  e.ts_ns = HostNowNs();
  e.tid = BufferForThisThread()->thread_index;
  Emit(e);
}

void Tracer::Instant(const char* name, const char* category) {
  TraceEvent e;
  e.name = name;
  e.category = category;
  e.kind = EventKind::kInstant;
  e.clock = Clock::kHost;
  e.pid = kHostPid;
  e.ts_ns = HostNowNs();
  e.tid = BufferForThisThread()->thread_index;
  Emit(e);
}

void Tracer::Complete(std::int32_t pid, std::int64_t tid, Clock clock,
                      const char* name, Nanos ts_ns, Nanos dur_ns,
                      const char* arg0_name, double arg0,
                      const char* arg1_name, double arg1,
                      const char* arg2_name, double arg2,
                      const char* arg3_name, double arg3) {
  TraceEvent e;
  e.name = name;
  e.kind = EventKind::kComplete;
  e.clock = clock;
  e.pid = pid;
  e.tid = tid;
  e.ts_ns = ts_ns;
  e.dur_ns = dur_ns;
  e.arg_name[0] = arg0_name;
  e.arg_value[0] = arg0;
  e.arg_name[1] = arg1_name;
  e.arg_value[1] = arg1;
  e.arg_name[2] = arg2_name;
  e.arg_value[2] = arg2;
  e.arg_name[3] = arg3_name;
  e.arg_value[3] = arg3;
  Emit(e);
}

void Tracer::Counter(std::int32_t pid, Clock clock, const char* name,
                     Nanos ts_ns, double value) {
  TraceEvent e;
  e.name = name;
  e.kind = EventKind::kCounter;
  e.clock = clock;
  e.pid = pid;
  e.ts_ns = ts_ns;
  e.value = value;
  Emit(e);
}

void Tracer::InstantAt(std::int32_t pid, std::int64_t tid, Clock clock,
                       const char* name, Nanos ts_ns,
                       const char* arg0_name, double arg0) {
  TraceEvent e;
  e.name = name;
  e.kind = EventKind::kInstant;
  e.clock = clock;
  e.pid = pid;
  e.tid = tid;
  e.ts_ns = ts_ns;
  e.arg_name[0] = arg0_name;
  e.arg_value[0] = arg0;
  Emit(e);
}

void Tracer::AsyncBegin(std::int32_t pid, std::uint64_t id, Clock clock,
                        const char* name, const char* category,
                        Nanos ts_ns) {
  TraceEvent e;
  e.name = name;
  e.category = category;
  e.kind = EventKind::kAsyncBegin;
  e.clock = clock;
  e.pid = pid;
  e.async_id = id;
  e.ts_ns = ts_ns;
  Emit(e);
}

void Tracer::AsyncEnd(std::int32_t pid, std::uint64_t id, Clock clock,
                      const char* name, const char* category,
                      Nanos ts_ns) {
  TraceEvent e;
  e.name = name;
  e.category = category;
  e.kind = EventKind::kAsyncEnd;
  e.clock = clock;
  e.pid = pid;
  e.async_id = id;
  e.ts_ns = ts_ns;
  Emit(e);
}

void Tracer::SetProcessName(std::int32_t pid, std::string name) {
  MutexLock lock(mu_);
  process_names_[pid] = std::move(name);
}

void Tracer::SetThreadName(std::int32_t pid, std::int64_t tid,
                           std::string name) {
  MutexLock lock(mu_);
  thread_names_[{pid, tid}] = std::move(name);
}

void Tracer::CountSampledOut(std::uint64_t n) {
  sampled_out_.fetch_add(n, std::memory_order_relaxed);
}

std::vector<TraceEvent> Tracer::Snapshot() const {
  MutexLock lock(mu_);
  std::vector<TraceEvent> events;
  std::size_t total = 0;
  for (const auto& buf : buffers_) {
    total += buf->size.load(std::memory_order_acquire);
  }
  events.reserve(total);
  for (const auto& buf : buffers_) {
    const std::size_t n = buf->size.load(std::memory_order_acquire);
    events.insert(events.end(), buf->events.begin(),
                  buf->events.begin() + static_cast<std::ptrdiff_t>(n));
  }
  return events;
}

std::uint64_t Tracer::recorded_events() const {
  MutexLock lock(mu_);
  std::uint64_t total = 0;
  for (const auto& buf : buffers_) {
    total += buf->size.load(std::memory_order_acquire);
  }
  return total;
}

std::uint64_t Tracer::dropped_events() const {
  MutexLock lock(mu_);
  std::uint64_t total = 0;
  for (const auto& buf : buffers_) {
    total += buf->dropped.load(std::memory_order_relaxed);
  }
  return total;
}

std::map<std::int32_t, std::string> Tracer::process_names() const {
  MutexLock lock(mu_);
  return process_names_;
}

std::map<std::pair<std::int32_t, std::int64_t>, std::string>
Tracer::thread_names() const {
  MutexLock lock(mu_);
  return thread_names_;
}

}  // namespace updlrm::telemetry
