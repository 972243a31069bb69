#include "common/thread_pool.h"

#include <algorithm>
#include <cstdlib>
#include <exception>
#include <utility>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

namespace updlrm {

namespace {

std::atomic<unsigned> g_default_threads{0};
std::atomic<bool> g_default_created{false};

bool EnvPinThreads() {
  const char* env = std::getenv("UPDLRM_PIN_THREADS");
  return env != nullptr && env[0] != '\0' &&
         !(env[0] == '0' && env[1] == '\0');
}

// Pins the calling thread to one CPU (best effort; no-op off Linux or
// when the mask call fails — pinning is a performance hint, never a
// correctness requirement).
void PinCurrentThread(unsigned cpu) {
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu % std::max(1u, std::thread::hardware_concurrency()), &set);
  (void)pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
#else
  (void)cpu;
#endif
}

}  // namespace

// Region descriptor, recycled across ParallelFor calls. The recycling
// protocol against stale helper tasks (a Submit()ed helper can run
// arbitrarily late, after its region finished and the state moved on):
//
//   helper:  participants++;
//            if (ticket != mine) { participants--; return; }   (stale)
//            run chunks; participants--;
//
//   reuse:   ticket++                       (invalidate stale helpers)
//            spin until participants == 0   (drain ones already past
//                                            the check; they see the
//                                            old exhausted cursor and
//                                            exit without running the
//                                            old — dangling — body)
//            reinit fields; submit helpers with the new ticket
//
// The ticket bump is sequenced before the spin and the reinit after
// it, so no helper can observe a half-initialized region: either it
// sees the new ticket and backs out, or it joined before the bump and
// the spin waits it out while the old cursor (next >= n) starves it.
struct ThreadPool::ParallelForState {
  std::atomic<std::size_t> next{0};
  std::size_t n = 0;
  std::size_t grain = 1;
  FunctionRef<void(std::size_t, std::size_t)> body;
  std::atomic<std::size_t> done{0};  // indices fully processed
  std::atomic<std::uint64_t> ticket{0};
  std::atomic<unsigned> participants{0};
  Mutex done_mu;
  CondVar done_cv;
  Mutex error_mu;
  std::exception_ptr error GUARDED_BY(error_mu);
  // Freelist link; read and written only under the pool's states_mu_.
  ParallelForState* free_next = nullptr;
};

ThreadPool::ThreadPool(unsigned threads) {
  if (threads == 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }
  num_threads_ = threads;
  queues_.resize(std::max(1u, threads - 1));
  workers_.reserve(threads - 1);
  const bool pin = EnvPinThreads();
  for (unsigned i = 0; i + 1 < threads; ++i) {
    workers_.emplace_back([this, i, pin] {
      // Worker i takes CPU i+1, leaving CPU 0 to the caller thread.
      if (pin) PinCurrentThread(i + 1);
      WorkerLoop(i);
    });
  }
  if (pin && threads > 1) PinCurrentThread(0);
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    stopping_ = true;
  }
  cv_.NotifyAll();
  for (std::thread& w : workers_) w.join();
  // Workers are joined: no task can reference a state anymore.
  for (ParallelForState* s : all_states_) delete s;
}

void ThreadPool::Submit(std::function<void()> task) {
  if (workers_.empty()) {
    task();  // single-threaded pool: run inline
    return;
  }
  {
    MutexLock lock(mu_);
    const unsigned q = next_queue_.fetch_add(1, std::memory_order_relaxed) %
                       static_cast<unsigned>(queues_.size());
    queues_[q].push_back(std::move(task));
  }
  cv_.NotifyOne();
}

bool ThreadPool::TryRunOneTask(unsigned home) {
  std::function<void()> task;
  {
    MutexLock lock(mu_);
    // Own deque first (LIFO: newest task, warm caches) ...
    if (!queues_[home].empty()) {
      task = std::move(queues_[home].back());
      queues_[home].pop_back();
    } else {
      // ... then steal the oldest task from a sibling (FIFO).
      for (std::size_t off = 1; off < queues_.size() && !task; ++off) {
        auto& victim = queues_[(home + off) % queues_.size()];
        if (!victim.empty()) {
          task = std::move(victim.front());
          victim.pop_front();
        }
      }
    }
  }
  if (!task) return false;
  task();
  return true;
}

bool ThreadPool::HaveQueuedTaskLocked() const {
  for (const auto& q : queues_) {
    if (!q.empty()) return true;
  }
  return false;
}

void ThreadPool::WorkerLoop(unsigned worker_index) {
  for (;;) {
    if (TryRunOneTask(worker_index)) continue;
    MutexLock lock(mu_);
    while (!stopping_ && !HaveQueuedTaskLocked()) cv_.Wait(mu_);
    if (stopping_) return;
  }
}

ThreadPool::ParallelForState* ThreadPool::AcquireState() {
  // One short critical section per region: a mutex, not a lock-free
  // stack, because a CAS pop must read the head's link while another
  // thread may be pushing that same node back (a data race on the link
  // and an ABA hazard on the head).
  MutexLock lock(states_mu_);
  if (ParallelForState* head = free_states_; head != nullptr) {
    free_states_ = head->free_next;
    return head;
  }
  // Freelist empty (first call, or deeply nested regions): mint a new
  // immortal state. Bounded by the maximum number of concurrently
  // active regions ever reached, not by call count.
  auto* state = new ParallelForState();
  all_states_.push_back(state);
  return state;
}

void ThreadPool::ReleaseState(ParallelForState* state) {
  MutexLock lock(states_mu_);
  state->free_next = free_states_;
  free_states_ = state;
}

// UPDLRM_NOALLOC_BEGIN: ParallelFor steady state. Region descriptors
// are recycled (AcquireState's freelist; the mint-on-empty `new` lives
// outside this region by design), helper closures fit std::function's
// small-object buffer, and chunk dispatch touches only the shared
// atomics — a warm region allocates nothing.
void ThreadPool::RunChunks(ParallelForState& state) {
  for (;;) {
    const std::size_t begin =
        state.next.fetch_add(state.grain, std::memory_order_relaxed);
    if (begin >= state.n) return;
    const std::size_t end = std::min(state.n, begin + state.grain);
    try {
      state.body(begin, end);
    } catch (...) {
      MutexLock lock(state.error_mu);
      if (!state.error) state.error = std::current_exception();
    }
    const std::size_t done =
        state.done.fetch_add(end - begin, std::memory_order_acq_rel) +
        (end - begin);
    if (done >= state.n) {
      MutexLock lock(state.done_mu);
      state.done_cv.NotifyAll();
    }
  }
}

void ThreadPool::HelperRun(ParallelForState* state, std::uint64_t ticket) {
  state->participants.fetch_add(1, std::memory_order_acq_rel);
  if (state->ticket.load(std::memory_order_acquire) != ticket) {
    // Stale: the region completed and the state was (or is being)
    // recycled. Back out without touching anything else.
    state->participants.fetch_sub(1, std::memory_order_release);
    return;
  }
  RunChunks(*state);
  state->participants.fetch_sub(1, std::memory_order_release);
}

void ThreadPool::ParallelFor(
    std::size_t n, std::size_t grain,
    FunctionRef<void(std::size_t, std::size_t)> body,
    unsigned max_workers) {
  if (n == 0) return;
  if (grain == 0) grain = 1;
  unsigned width = max_workers == 0 ? num_threads_
                                    : std::min(max_workers, num_threads_);
  const std::size_t chunks = (n + grain - 1) / grain;
  width = static_cast<unsigned>(
      std::min<std::size_t>(width, chunks));
  if (width <= 1 || workers_.empty()) {
    for (std::size_t begin = 0; begin < n; begin += grain) {
      body(begin, std::min(n, begin + grain));
    }
    return;
  }

  ParallelForState* state = AcquireState();
  // Invalidate any stale helpers of the previous region first, then
  // wait out ones that already passed their ticket check (they find
  // the old cursor exhausted and exit), and only then reinitialize.
  const std::uint64_t ticket =
      state->ticket.fetch_add(1, std::memory_order_acq_rel) + 1;
  while (state->participants.load(std::memory_order_acquire) != 0) {
    std::this_thread::yield();
  }
  state->next.store(0, std::memory_order_relaxed);
  state->n = n;
  state->grain = grain;
  state->body = body;
  state->done.store(0, std::memory_order_relaxed);
  {
    MutexLock lock(state->error_mu);
    state->error = nullptr;
  }

  // One helper per extra thread; busy workers simply never pick theirs
  // up and the caller (or a stealing sibling) drains the range instead.
  // The closure is two words — inside std::function's small-object
  // buffer, so Submit does not allocate.
  for (unsigned i = 0; i + 1 < width; ++i) {
    Submit([state, ticket] { HelperRun(state, ticket); });
  }
  RunChunks(*state);
  // While other threads finish this region's last chunks, run queued
  // tasks instead of idling: they are helpers of regions other threads
  // opened (nested inside this one, or beside it), which would
  // otherwise wait for a worker to come free.
  while (state->done.load(std::memory_order_acquire) < n &&
         TryRunOneTask(0)) {
  }
  if (state->done.load(std::memory_order_acquire) < n) {
    MutexLock lock(state->done_mu);
    while (state->done.load(std::memory_order_acquire) < n) {
      state->done_cv.Wait(state->done_mu);
    }
  }
  // `body` dangles once we return; helpers that wake late see a stale
  // ticket (or an exhausted cursor) and never touch it.
  std::exception_ptr error;
  {
    MutexLock lock(state->error_mu);
    error = state->error;
  }
  ReleaseState(state);
  if (error) std::rethrow_exception(error);
}
// UPDLRM_NOALLOC_END

ThreadPool& ThreadPool::Default() {
  static ThreadPool pool(g_default_threads.load(std::memory_order_acquire));
  g_default_created.store(true, std::memory_order_release);
  return pool;
}

unsigned ThreadPool::SetDefaultThreads(unsigned threads) {
  if (!g_default_created.load(std::memory_order_acquire)) {
    g_default_threads.store(threads, std::memory_order_release);
  }
  return Default().size();
}

void ParallelFor(std::size_t n,
                 FunctionRef<void(std::size_t, std::size_t)> body,
                 unsigned num_threads, std::size_t grain) {
  if (num_threads == 1) {
    const std::size_t step = std::max<std::size_t>(grain, 1);
    for (std::size_t begin = 0; begin < n; begin += step) {
      body(begin, std::min(n, begin + step));
    }
    return;
  }
  ThreadPool::Default().ParallelFor(n, grain, body, num_threads);
}

}  // namespace updlrm
