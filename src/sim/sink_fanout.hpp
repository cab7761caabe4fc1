// Pipelined sink fan-out: run the energy sinks of a fused replay on
// parallel threads over double-buffered batches of access events.
//
// A fused group (runner.hpp simulate_group) hangs tens of policy sinks
// off one functional cache, and their work, not the cache's, dominates
// its replay. The sinks are independent pure observers
// (common/access_event.hpp), so they may run concurrently as long as each
// one still sees every event in trace order. ShardedFanout is then the
// only sink the cache sees: it copies each event, with the line images a
// sink can read, into one of two batch buffers of kBatchEvents. When the
// buffer fills -- and on flush() -- the batch is posted, and the calling
// thread goes on running the cache into the other buffer while helper
// threads (started by the constructor, joined by the destructor) run the
// posted batch. A posted batch hands its sinks out one at a time from an
// atomic claim index: each thread that is free claims the next sink and
// runs it over the whole batch, in one on_batch call. The calling thread
// joins in once its next batch is full, and posts that batch only after
// every sink has finished the running one. So a sink runs on one thread
// at a time, over every event in trace order, and its ledger is exactly
// the one it would keep attached to the cache directly.
//
// Spans in the events a sink receives -- line images and word counts --
// point into the fan-out's buffers and are overwritten two batches later:
// like any AccessEvent span, they are valid only until the on_batch call
// that delivered them returns.
#pragma once

#include <array>
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
  /// Events in one batch buffer.
  static constexpr usize kBatchEvents = 1024;

  /// Fan out to `sinks` (not owned; they must outlive the fan-out) on
  /// min(threads, sinks.size()) threads, at least one: the calling thread
  /// and the helpers this starts. Sinks are claimed in list order, so the
  /// heaviest should come first. `line_bytes` bounds the line images of
  /// the events it will be given.
  ShardedFanout(std::span<AccessSink* const> sinks, usize threads,
                usize line_bytes);
  /// Stops and joins every helper once the posted batch's sinks have all
  /// been claimed and run. Events still being buffered are dropped: call
  /// flush() first to deliver them.
  ~ShardedFanout() override;

  ShardedFanout(const ShardedFanout&) = delete;
  ShardedFanout& operator=(const ShardedFanout&) = delete;
  ShardedFanout(ShardedFanout&&) = delete;
  ShardedFanout& operator=(ShardedFanout&&) = delete;

  /// Buffer a copy of `ev`; posts the batch when its buffer is full.
  void on_access(const AccessEvent& ev) override;

  /// Deliver every buffered event to every sink and wait until all have
  /// run. A sink's exception surfaces once its batch is done, at the next
  /// post or flush(): every helper is joined and the exception of the
  /// lowest-index failed sink is rethrown on the calling thread; the
  /// fan-out then rethrows it on every later post and flush.
  void flush();

  /// Threads the sinks run on (helper threads + the calling thread).
  [[nodiscard]] usize shards() const noexcept { return helpers_.size() + 1; }

 private:
  /// One of the two event buffers.
  struct Batch {
    std::vector<AccessEvent> events;  ///< kBatchEvents slots
    /// Per slot (slot_bytes()): line_after image, line_before image
    /// (line_bytes_ each), then their word counts (line_bytes_ / 8 each).
    std::vector<u8> lines;
    /// Buffered events. Written by the calling thread while it fills the
    /// batch; read by the sinks' threads once the batch is posted.
    usize count = 0;
    /// Next sink to claim. At or past the sink count, the batch has no
    /// work to hand out: every sink is taken, or the batch is filling.
    /// Reset (release) when the batch is posted.
    alignas(64) std::atomic<usize> next{0};
    /// Sinks that have finished the batch: the batch is done, and its
    /// buffer free, at the sink count.
    alignas(64) std::atomic<usize> done{0};
  };

  /// Bytes of Batch::lines one event slot takes.
  [[nodiscard]] usize slot_bytes() const noexcept {
    return 2 * line_bytes_ + 2 * (line_bytes_ / 8);
  }

  void post();
  void drain();
  void run_claims(Batch& b) noexcept;
  void helper_loop();
  void stop_helpers() noexcept;
  [[noreturn]] void rethrow_failure();

  std::vector<AccessSink*> sinks_;
  usize line_bytes_;
  /// Batch g (counting posts from 1) lives in batches_[g % 2].
  std::array<Batch, 2> batches_;
  Batch* fill_;  ///< the batch the calling thread is filling
  /// line_before of a fill with no dirty victim: its content is never
  /// read (every consumer is gated on evicted_dirty), and the cache
  /// reports it as zeros.
  std::vector<u8> zeros_;
  u64 posted_ = 0;          ///< batches posted; the calling thread's copy
  bool in_flight_ = false;  ///< batch posted_ is posted and not drained
  /// Per sink, the exception it threw, set by the thread that ran it and
  /// read by the calling thread once the batch is done.
  std::vector<std::exception_ptr> errors_;
  std::exception_ptr failed_;  ///< first rethrown error; the fan-out is dead

  // The handshake. A waiting thread first spins for a short budget on the
  // atomics, then blocks on a condition variable: while batches follow
  // each other closely no thread sleeps, so none pays a wake-up.
  /// Number of the latest posted batch; a helper claims sinks of each new
  /// one, and exits on the stop generation. Moved under mu_, so a blocked
  /// helper cannot miss it.
  alignas(64) std::atomic<u64> generation_{0};
  std::mutex mu_;
  std::condition_variable start_cv_;  ///< generation_ moved on
  std::condition_variable done_cv_;   ///< a batch's done hit the sink count
  usize sleepers_ = 0;         // cnt-lint: guarded-by(mu_)
  bool barrier_wait_ = false;  // cnt-lint: guarded-by(mu_)
  std::vector<std::thread> helpers_;
};

}  // namespace cnt
