// Work-stealing thread pool for the host execution backend.
//
// Every host-side fan-out in the library (engine setup, stage-2 batch
// simulation, GRACE mining, trace generation, the comparison harness)
// runs through this pool. The pool provides *wall-clock* parallelism
// only: callers are responsible for the determinism contract — a
// parallel region must write to disjoint output slots, and any
// reduction must happen after the region in a fixed order, so that the
// same inputs produce the same bytes and the same simulated times at
// every thread count (see DESIGN.md §"Host execution backend").
//
// Structure: N-1 worker threads, each owning a deque of tasks. Submit()
// pushes to the deques round-robin; idle workers pop their own deque
// LIFO and steal FIFO from siblings. ParallelFor() splits an index
// range over the pool via an atomic cursor; the calling thread always
// participates, so nested parallel regions (an engine fanning out from
// inside a comparison task) cannot deadlock — a caller that finds no
// idle worker simply executes every chunk itself. A caller whose chunks
// are done runs queued tasks until the region's last chunk finishes
// elsewhere, so helpers of regions nested in long chunks (a shard
// engine's per-table setup inside the sharded engine's per-shard
// fan-out) need not wait for a free worker.
//
// Steady-state ParallelFor is allocation-free: the body is passed by
// FunctionRef (no std::function ownership copy), region descriptors
// are recycled from a freelist of immortal states guarded by a
// (ticket, participant-count) protocol against stale helper tasks, and
// the helper closures fit std::function's small-object buffer.
//
// Affinity: set UPDLRM_PIN_THREADS=1 to pin each worker thread to one
// CPU (round-robin over the online set, the caller's CPU excluded
// first). Off by default — pinning helps steady-state serving on
// dedicated cores and hurts oversubscribed CI boxes.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "common/function_ref.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace updlrm {

class ThreadPool {
 public:
  /// Creates a pool that runs work on `threads` threads total: the
  /// calling thread plus `threads - 1` background workers. `threads`
  /// == 0 selects std::thread::hardware_concurrency().
  explicit ThreadPool(unsigned threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total execution width (background workers + the caller).
  unsigned size() const { return num_threads_; }

  /// Enqueues a fire-and-forget task on a worker deque.
  void Submit(std::function<void()> task);

  /// Runs body(begin, end) over chunks of [0, n). Blocks until every
  /// index has been processed. The caller executes chunks alongside the
  /// workers. `max_workers` caps the number of threads used for this
  /// call (0 = the full pool, 1 = inline on the caller). Chunk
  /// boundaries depend only on `n` and `grain`, never on thread count.
  void ParallelFor(std::size_t n, std::size_t grain,
                   FunctionRef<void(std::size_t, std::size_t)> body,
                   unsigned max_workers = 0);

  /// The process-wide pool, created on first use. Sized by
  /// SetDefaultThreads() if called before first use, otherwise by
  /// hardware_concurrency().
  static ThreadPool& Default();

  /// Overrides the Default() pool size. Only effective before the first
  /// Default() call; later calls are ignored (the pool is never
  /// resized). Returns the size Default() will have / has.
  static unsigned SetDefaultThreads(unsigned threads);

 private:
  struct ParallelForState;

  void WorkerLoop(unsigned worker_index);
  bool TryRunOneTask(unsigned home);
  // True when any worker deque holds a task (stealable work exists).
  bool HaveQueuedTaskLocked() const REQUIRES(mu_);
  static void RunChunks(ParallelForState& state);
  // Helper-task entry: joins `state`'s region iff its ticket is still
  // current (see the recycling protocol in thread_pool.cc).
  static void HelperRun(ParallelForState* state, std::uint64_t ticket);

  ParallelForState* AcquireState();
  void ReleaseState(ParallelForState* state);

  unsigned num_threads_ = 1;  // workers + caller
  std::vector<std::thread> workers_;
  Mutex mu_;
  std::vector<std::deque<std::function<void()>>> queues_ GUARDED_BY(mu_);
  CondVar cv_;
  std::atomic<unsigned> next_queue_{0};
  bool stopping_ GUARDED_BY(mu_) = false;

  // Freelist of recycled region descriptors, linked through their
  // `free_next` fields and guarded, links included, by states_mu_.
  // States live until pool destruction — stale helper tasks may
  // dereference them long after their region completed.
  Mutex states_mu_;
  ParallelForState* free_states_ GUARDED_BY(states_mu_) = nullptr;
  std::vector<ParallelForState*> all_states_ GUARDED_BY(states_mu_);
};

/// ParallelFor on the process-wide default pool. `num_threads` is the
/// per-call cap with the EngineOptions convention: 0 = full pool,
/// 1 = serial inline, N = at most N threads.
void ParallelFor(std::size_t n,
                 FunctionRef<void(std::size_t, std::size_t)> body,
                 unsigned num_threads = 0, std::size_t grain = 1);

}  // namespace updlrm
