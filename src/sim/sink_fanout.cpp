#include "sim/sink_fanout.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <stdexcept>

namespace cnt {

namespace {

/// How long a thread waiting for the next batch or for the barrier spins
/// before it blocks. It covers the usual gap between two flushes (the
/// calling thread refilling the buffer, a straggling shard), so a busy
/// replay never sleeps: waking a blocked thread cost up to a millisecond
/// on a virtualized 4-vCPU host, longer than a whole flush.
constexpr std::chrono::microseconds kSpinBudget{250};

/// One spin-loop step. A pause rather than a yield: yielding spinners
/// stayed stacked on the core that started them, and ran their shards
/// one after another.
inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

/// The generation stop_helpers() posts: a helper that sees it exits. A
/// spinning helper sees it as soon as a blocked one does.
constexpr u64 kStopGeneration = ~u64{0};

/// Slice of every blocking wait below. The waits re-check their condition
/// each slice; a notify ends them at once, so the slice only bounds how
/// long a lost wake-up could park a thread.
constexpr std::chrono::milliseconds kWaitSlice{50};

/// Spin until `done()` holds or kSpinBudget has passed; returns done().
template <typename Pred>
bool spin_until(Pred done) {
  const auto until = std::chrono::steady_clock::now() + kSpinBudget;
  while (!done()) {
    if (std::chrono::steady_clock::now() >= until) return false;
    cpu_relax();
  }
  return true;
}

}  // namespace

ShardedFanout::ShardedFanout(std::span<AccessSink* const> sinks, usize threads,
                             usize line_bytes)
    : sinks_(sinks.begin(), sinks.end()),
      line_bytes_(line_bytes),
      events_(kBatchEvents),
      lines_(kBatchEvents * 2 * line_bytes),
      zeros_(line_bytes, 0) {
  const usize shards = std::max<usize>(1, std::min(threads, sinks_.size()));
  shard_begin_.resize(shards + 1);
  for (usize s = 0; s <= shards; ++s) {
    shard_begin_[s] = s * sinks_.size() / shards;
  }
  errors_.resize(shards);
  helpers_.reserve(shards - 1);
  try {
    for (usize s = 1; s < shards; ++s) {
      helpers_.emplace_back([this, s] { helper_loop(s); });
    }
  } catch (...) {
    stop_helpers();
    throw;
  }
}

ShardedFanout::~ShardedFanout() { stop_helpers(); }

// cnt-hot
void ShardedFanout::on_access(const AccessEvent& ev) {
  if (ev.line_after.size() > line_bytes_ ||
      ev.line_before.size() > line_bytes_) {
    throw std::invalid_argument("ShardedFanout: line wider than line_bytes");
  }
  AccessEvent& slot = events_[count_];
  slot = ev;
  u8* const after = lines_.data() + count_ * 2 * line_bytes_;
  u8* const before = after + line_bytes_;
  if (!ev.line_after.empty()) {
    std::memcpy(after, ev.line_after.data(), ev.line_after.size());
    slot.line_after = {after, ev.line_after.size()};
  }
  if (ev.line_before.empty()) {
    // kWriteAround: no array image either side.
  } else if (ev.line_before.data() == ev.line_after.data()) {
    slot.line_before = slot.line_after;  // a read hit: the line is unchanged
  } else if (ev.kind == AccessKind::kWriteHit || ev.evicted_dirty) {
    std::memcpy(before, ev.line_before.data(), ev.line_before.size());
    slot.line_before = {before, ev.line_before.size()};
  } else {
    slot.line_before = {zeros_.data(), ev.line_before.size()};
  }
  if (++count_ == kBatchEvents) flush();
}

// cnt-hot
void ShardedFanout::flush() {
  if (failed_) std::rethrow_exception(failed_);
  if (count_ == 0) return;
  if (!helpers_.empty()) {
    bool wake = false;
    {
      std::lock_guard lock(mu_);
      unfinished_.store(helpers_.size(), std::memory_order_relaxed);
      generation_.fetch_add(1, std::memory_order_release);
      wake = sleepers_ != 0;
    }
    if (wake) start_cv_.notify_all();
  }
  run_shard(0);
  const auto all_done = [this] {
    return unfinished_.load(std::memory_order_acquire) == 0;
  };
  if (!spin_until(all_done)) {
    std::unique_lock lock(mu_);
    barrier_wait_ = true;
    while (!all_done()) (void)done_cv_.wait_for(lock, kWaitSlice);
    barrier_wait_ = false;
  }
  count_ = 0;
  for (const std::exception_ptr& e : errors_) {
    if (e) {
      failed_ = e;
      stop_helpers();
      std::rethrow_exception(failed_);
    }
  }
}

// cnt-hot
void ShardedFanout::run_shard(usize shard) noexcept {
  try {
    for (usize k = shard_begin_[shard]; k < shard_begin_[shard + 1]; ++k) {
      AccessSink& sink = *sinks_[k];
      for (usize i = 0; i < count_; ++i) sink.on_access(events_[i]);
    }
  } catch (...) {
    errors_[shard] = std::current_exception();
  }
}

void ShardedFanout::helper_loop(usize shard) {
  u64 seen = 0;
  const auto posted = [this, &seen] {
    return generation_.load(std::memory_order_acquire) != seen;
  };
  for (;;) {
    if (!spin_until(posted)) {
      std::unique_lock lock(mu_);
      ++sleepers_;
      while (!posted()) (void)start_cv_.wait_for(lock, kWaitSlice);
      --sleepers_;
    }
    seen = generation_.load(std::memory_order_acquire);
    if (seen == kStopGeneration) return;
    run_shard(shard);
    std::lock_guard lock(mu_);
    if (unfinished_.fetch_sub(1, std::memory_order_acq_rel) == 1 &&
        barrier_wait_) {
      done_cv_.notify_one();
    }
  }
}

void ShardedFanout::stop_helpers() noexcept {
  {
    std::lock_guard lock(mu_);
    generation_.store(kStopGeneration, std::memory_order_release);
  }
  start_cv_.notify_all();
  for (std::thread& t : helpers_) {
    if (t.joinable()) t.join();
  }
}

}  // namespace cnt
