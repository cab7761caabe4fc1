#include "sim/sink_fanout.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "common/bits.hpp"

namespace cnt {

namespace {

/// How long a thread waiting for the next batch or for a batch to finish
/// spins before it blocks. It covers the usual gap between two posts (the
/// calling thread filling the next buffer, a straggling sink), so a busy
/// replay never sleeps: waking a blocked thread cost up to a millisecond
/// on a virtualized 4-vCPU host, longer than a whole batch.
constexpr std::chrono::microseconds kSpinBudget{250};

/// One spin-loop step. A pause rather than a yield: yielding spinners
/// stayed stacked on the core that started them, and ran their sinks
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
      fill_(&batches_[1]),
      zeros_(line_bytes, 0),
      errors_(sinks_.size()) {
  for (Batch& b : batches_) {
    b.events.resize(kBatchEvents);
    b.lines.resize(kBatchEvents * slot_bytes());
    b.next.store(sinks_.size(), std::memory_order_relaxed);
  }
  const usize workers = std::max<usize>(1, std::min(threads, sinks_.size()));
  helpers_.reserve(workers - 1);
  try {
    for (usize h = 1; h < workers; ++h) {
      helpers_.emplace_back([this] { helper_loop(); });
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
      ev.line_before.size() > line_bytes_ ||
      ev.after_word_ones.size() > line_bytes_ / 8 ||
      ev.before_word_ones.size() > line_bytes_ / 8) {
    throw std::invalid_argument("ShardedFanout: line wider than line_bytes");
  }
  Batch& b = *fill_;
  AccessEvent& slot = b.events[b.count];
  slot = ev;
  u8* const after = b.lines.data() + b.count * slot_bytes();
  u8* const before = after + line_bytes_;
  u8* const after_ones = before + line_bytes_;
  u8* const before_ones = after_ones + line_bytes_ / 8;
  if (!ev.line_after.empty()) {
    copy_line(after, ev.line_after.data(), ev.line_after.size());
    slot.line_after = {after, ev.line_after.size()};
  }
  if (!ev.after_word_ones.empty()) {
    copy_line(after_ones, ev.after_word_ones.data(),
              ev.after_word_ones.size());
    slot.after_word_ones = {after_ones, ev.after_word_ones.size()};
  }
  if (!ev.before_word_ones.empty()) {
    copy_line(before_ones, ev.before_word_ones.data(),
              ev.before_word_ones.size());
    slot.before_word_ones = {before_ones, ev.before_word_ones.size()};
  }
  if (ev.line_before.empty()) {
    // kWriteAround: no array image either side.
  } else if (ev.line_before.data() == ev.line_after.data()) {
    slot.line_before = slot.line_after;  // a read hit: the line is unchanged
  } else if (ev.kind == AccessKind::kWriteHit || ev.evicted_dirty) {
    copy_line(before, ev.line_before.data(), ev.line_before.size());
    slot.line_before = {before, ev.line_before.size()};
  } else {
    slot.line_before = {zeros_.data(), ev.line_before.size()};
  }
  if (++b.count == kBatchEvents) post();
}

void ShardedFanout::flush() {
  if (fill_->count != 0) post();
  drain();
}

// cnt-hot
void ShardedFanout::post() {
  // Batch posted_ must be done before the next one starts: a sink may
  // only move on to batch g+1 once it has finished batch g.
  drain();
  Batch& b = *fill_;
  b.done.store(0, std::memory_order_relaxed);
  b.next.store(0, std::memory_order_release);
  in_flight_ = true;
  bool wake = false;
  {
    std::lock_guard lock(mu_);
    generation_.store(++posted_, std::memory_order_release);
    wake = sleepers_ != 0;
  }
  if (wake) start_cv_.notify_all();
  // The other buffer held batch posted_ - 1, which drain() saw finish.
  fill_ = &batches_[(posted_ + 1) % 2];
  fill_->count = 0;
}

// cnt-hot
void ShardedFanout::drain() {
  if (failed_) rethrow_failure();
  if (!in_flight_) return;
  Batch& b = batches_[posted_ % 2];
  run_claims(b);
  const usize n = sinks_.size();
  const auto all_done = [&b, n] {
    return b.done.load(std::memory_order_acquire) == n;
  };
  if (!spin_until(all_done)) {
    std::unique_lock lock(mu_);
    barrier_wait_ = true;
    while (!all_done()) (void)done_cv_.wait_for(lock, kWaitSlice);
    barrier_wait_ = false;
  }
  in_flight_ = false;
  for (const std::exception_ptr& e : errors_) {
    if (e) {
      failed_ = e;
      stop_helpers();
      rethrow_failure();
    }
  }
}

// cnt-hot
void ShardedFanout::run_claims(Batch& b) noexcept {
  const usize n = sinks_.size();
  for (;;) {
    // The claim that reads the posting's reset acquires the batch.
    const usize k = b.next.fetch_add(1, std::memory_order_acq_rel);
    if (k >= n) return;
    try {
      sinks_[k]->on_batch(
          std::span<const AccessEvent>(b.events.data(), b.count));
    } catch (...) {
      errors_[k] = std::current_exception();
    }
    if (b.done.fetch_add(1, std::memory_order_acq_rel) + 1 == n) {
      std::lock_guard lock(mu_);
      if (barrier_wait_) done_cv_.notify_one();
    }
  }
}

void ShardedFanout::helper_loop() {
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
    // A helper that fell a batch behind claims from a buffer whose claim
    // index is exhausted, or -- two batches behind -- from the batch now
    // running in the same buffer; either way it runs only posted work.
    run_claims(batches_[seen % 2]);
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

void ShardedFanout::rethrow_failure() {
  fill_->count = 0;  // the fan-out is dead: drop what it buffered
  std::rethrow_exception(failed_);
}

}  // namespace cnt
