// Sharded sink fan-out: run the energy sinks of a fused replay on
// parallel shards over a buffered batch of access events.
//
// A fused group (runner.hpp simulate_group) hangs tens of policy sinks
// off one functional cache, and their work, not the cache's, dominates
// its replay. The sinks are independent pure observers
// (common/access_event.hpp), so they may run concurrently as long as each
// one still sees every event in trace order. ShardedFanout is then the
// only sink the cache sees: it copies each event, with the line images a
// sink can read, into a fixed buffer of kBatchEvents, and when the buffer
// fills -- and on flush() -- it runs the sinks sink-major over the
// buffered events on static shards. The calling thread runs shard 0;
// helper threads, started by the constructor and joined by the
// destructor, run the others. A barrier at the end of each flush hands
// the buffer back for reuse, so every sink's ledger is exactly the one it
// would keep attached to the cache directly.
//
// Spans in the events a sink receives point into the fan-out's buffer and
// are overwritten by the next batch: like any AccessEvent span, they are
// valid only until on_access returns.
#pragma once

#include <atomic>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "common/access_event.hpp"
#include "common/types.hpp"

namespace cnt {

class ShardedFanout final : public AccessSink {
 public:
  /// Events buffered between two flushes.
  static constexpr usize kBatchEvents = 1024;

  /// Fan out to `sinks` (not owned; they must outlive the fan-out) on
  /// min(threads, sinks.size()) shards, at least one; shard s runs a
  /// contiguous slice of `sinks` in order. `line_bytes` bounds the line
  /// images of the events it will be given. Starts the helper threads.
  ShardedFanout(std::span<AccessSink* const> sinks, usize threads,
                usize line_bytes);
  /// Stops and joins every helper. Buffered events are dropped: call
  /// flush() first to deliver them.
  ~ShardedFanout() override;

  ShardedFanout(const ShardedFanout&) = delete;
  ShardedFanout& operator=(const ShardedFanout&) = delete;
  ShardedFanout(ShardedFanout&&) = delete;
  ShardedFanout& operator=(ShardedFanout&&) = delete;

  /// Buffer a copy of `ev`; flushes when the buffer is full.
  void on_access(const AccessEvent& ev) override;

  /// Deliver every buffered event to every sink and wait for all shards.
  /// If a sink threw, every helper is joined and the exception of the
  /// lowest shard is rethrown here, on the calling thread; the fan-out
  /// then rethrows it on every later flush.
  void flush();

  /// Shards the sinks run on (helper threads + 1).
  [[nodiscard]] usize shards() const noexcept { return errors_.size(); }

 private:
  void run_shard(usize shard) noexcept;
  void helper_loop(usize shard);
  void stop_helpers() noexcept;

  std::vector<AccessSink*> sinks_;
  std::vector<usize> shard_begin_;  ///< shards + 1 bounds into sinks_
  usize line_bytes_;
  std::vector<AccessEvent> events_;  ///< kBatchEvents slots
  /// Per slot: line_after image, then line_before image (line_bytes_
  /// each).
  std::vector<u8> lines_;
  /// line_before of a fill with no dirty victim: its content is never
  /// read (every consumer is gated on evicted_dirty), and the cache
  /// reports it as zeros.
  std::vector<u8> zeros_;
  /// Buffered events. Written by the calling thread between flushes and
  /// read by the helpers during one; the generation handshake on mu_
  /// orders the two.
  usize count_ = 0;
  std::vector<std::exception_ptr> errors_;  ///< per shard, set by its runner
  std::exception_ptr failed_;  ///< first rethrown error; the fan-out is dead

  // The per-flush handshake. A waiting thread first spins for a short
  // budget on the atomics, then blocks on a condition variable:
  // between two close flushes no thread sleeps, so none pays a wake-up.
  /// Generation of the batch being run; each helper runs its shard once
  /// per generation, and exits on the stop generation. Moved under mu_,
  /// so a blocked helper cannot miss it.
  std::atomic<u64> generation_{0};
  /// Helpers still running the current generation: the flush barrier.
  std::atomic<usize> unfinished_{0};
  std::mutex mu_;
  std::condition_variable start_cv_;  ///< generation_ moved on
  std::condition_variable done_cv_;   ///< unfinished_ reached zero
  usize sleepers_ = 0;         // cnt-lint: guarded-by(mu_)
  bool barrier_wait_ = false;  // cnt-lint: guarded-by(mu_)
  std::vector<std::thread> helpers_;
};

}  // namespace cnt
