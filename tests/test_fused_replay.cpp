// Fused replay, differentially: a group of policy-only configs replayed
// once through simulate_group() must give, config by config, the same
// dump_json bytes as a solo simulate(), with its sinks attached directly
// or fanned out over any number of threads; an engine sweep that fuses
// jobs must write the same journal bytes as the per-job path, at any
// worker count; and the functional key that decides which jobs may fuse
// must change with every field of the cache and with a fault campaign.
// The pipelined fan-out is also driven directly: every sink sees every
// event in order with its own line images, also when sinks of very
// unequal cost are claimed by different threads, a sink that overrides
// on_batch gets each batch in one call with its word counts, no two
// threads run one sink at once, a sink's exception reaches the calling
// thread, and no helper thread outlives a replay.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/cancel.hpp"
#include "common/error.hpp"
#include "common/failpoint.hpp"
#include "common/hash.hpp"
#include "common/rng.hpp"
#include "exec/engine.hpp"
#include "exec/journal.hpp"
#include "exec/result_sink.hpp"
#include "exec/sweep.hpp"
#include "exec/watchdog.hpp"
#include "sim/runner.hpp"
#include "sim/sink_fanout.hpp"
#include "sim/stats_dump.hpp"
#include "trace/workload_suite.hpp"

namespace cnt::exec {
namespace {

template <typename T>
T pick(Rng& rng, const std::vector<T>& values) {
  return values[rng.uniform(values.size())];
}

/// A random cache configuration shared by one group.
CacheConfig random_cache(Rng& rng) {
  CacheConfig c;
  c.size_bytes = pick<usize>(rng, {16 * 1024, 32 * 1024});
  c.ways = pick<usize>(rng, {2, 4, 8});
  c.write_policy = pick(rng, std::vector<WritePolicy>{
                                 WritePolicy::kWriteBack,
                                 WritePolicy::kWriteThrough});
  c.alloc_policy = pick(rng, std::vector<AllocPolicy>{
                                 AllocPolicy::kWriteAllocate,
                                 AllocPolicy::kNoWriteAllocate});
  c.replacement = pick(rng, std::vector<ReplKind>{ReplKind::kLru,
                                                  ReplKind::kFifo,
                                                  ReplKind::kRandom,
                                                  ReplKind::kTreePlru});
  c.way_prediction = rng.uniform(2) == 1;
  c.sector_writeback = rng.uniform(2) == 1;
  return c;
}

/// A random policy-only variation of `base`.
SimConfig random_policy(Rng& rng, const SimConfig& base) {
  SimConfig cfg = base;
  CntConfig& n = cfg.cnt;
  n.window = pick<usize>(rng, {3, 5, 7, 15, 31, 63});
  n.partitions = pick<usize>(rng, {1, 2, 4, 8, 16});
  n.fifo_depth = pick<usize>(rng, {1, 2, 8, 32});
  n.delta_t = pick(rng, std::vector<double>{0.0, 0.1, 0.5});
  n.fill_policy = pick(rng, std::vector<FillDirectionPolicy>{
                                FillDirectionPolicy::kAsIs,
                                FillDirectionPolicy::kMinWriteEnergy,
                                FillDirectionPolicy::kReadOptimized,
                                FillDirectionPolicy::kByMissType});
  n.history_scope = pick(rng, std::vector<HistoryScope>{
                                  HistoryScope::kPerLine,
                                  HistoryScope::kPerSet});
  n.write_granularity = pick(rng, std::vector<WriteGranularity>{
                                      WriteGranularity::kLine,
                                      WriteGranularity::kWord});
  n.account_metadata = rng.uniform(2) == 1;
  n.flip_aware_writes = rng.uniform(2) == 1;
  n.zero_line_opt = rng.uniform(2) == 1;
  cfg.with_cmos = rng.uniform(2) == 1;
  cfg.with_static = rng.uniform(2) == 1;
  cfg.with_ideal = rng.uniform(2) == 1;
  return cfg;
}

std::string json_of(const SimResult& r) {
  std::ostringstream os;
  dump_json(r, os);
  return os.str();
}

/// Every config's solo simulate() dump_json.
std::vector<std::string> solo_json(const Workload& w,
                                   const std::vector<SimConfig>& cfgs) {
  std::vector<std::string> out;
  for (const SimConfig& cfg : cfgs) out.push_back(json_of(simulate(w, cfg)));
  return out;
}

TEST(FusedReplay, RandomGroupsMatchSoloSimulateByteForByte) {
  const std::vector<std::string> workloads = {"stream_copy", "zipf_kv",
                                              "hash_join", "ifetch"};
  for (u64 seed = 1; seed <= 8; ++seed) {
    Rng rng(seed);
    SimConfig base;
    base.cache = random_cache(rng);
    const Workload w = build_workload(pick(rng, workloads), 0.03, seed);
    std::vector<SimConfig> cfgs;
    const usize n = 2 + rng.uniform(6);
    for (usize i = 0; i < n; ++i) cfgs.push_back(random_policy(rng, base));
    // A repeated config shares every sink argument with its twin, and a
    // copy with every baseline family on puts cmos, static_inv and ideal
    // sinks into every group.
    cfgs.push_back(cfgs.front());
    cfgs.push_back(cfgs.front());
    cfgs.back().with_cmos = cfgs.back().with_static = true;
    cfgs.back().with_ideal = true;

    const std::vector<std::string> want = solo_json(w, cfgs);
    // threads = 1 attaches the sinks directly; the others shard them,
    // 8 into more shards than the host may have cores.
    for (const usize threads : {usize{1}, usize{2}, usize{3}, usize{8}}) {
      const std::vector<SimResult> fused = simulate_group(w, cfgs, threads);
      ASSERT_EQ(fused.size(), cfgs.size());
      for (usize i = 0; i < cfgs.size(); ++i) {
        EXPECT_EQ(json_of(fused[i]), want[i])
            << "seed " << seed << ", config " << i << " of " << w.name
            << ", " << threads << " threads";
      }
    }
  }
}

TEST(FusedReplay, ShardedGroupsMatchAtEveryBatchBoundary) {
  // Traces shorter than one fan-out batch, exactly one, and lengths that
  // leave a partial batch for the final flush.
  const Workload full = build_workload("hash_join", 0.05);
  constexpr usize kBatch = ShardedFanout::kBatchEvents;
  ASSERT_GT(full.trace.size(), 3 * kBatch + 517);
  std::vector<SimConfig> cfgs(kMinShardedGroup);
  for (usize i = 0; i < cfgs.size(); ++i) {
    cfgs[i].cnt.window = 3 + 4 * i;
    cfgs[i].cnt.partitions = usize{1} << (i % 4);
  }
  for (const usize len :
       {usize{0}, usize{1}, kBatch - 1, kBatch, kBatch + 1, 3 * kBatch + 517}) {
    Workload w;
    w.name = full.name;
    w.init = full.init;
    for (usize i = 0; i < len; ++i) w.trace.push(full.trace[i]);
    const std::vector<std::string> want = solo_json(w, cfgs);
    const std::vector<SimResult> fused = simulate_group(w, cfgs, 3);
    ASSERT_EQ(fused.size(), cfgs.size());
    for (usize i = 0; i < cfgs.size(); ++i) {
      EXPECT_EQ(fused[i].trace_stats.accesses, len);
      EXPECT_EQ(json_of(fused[i]), want[i]) << len << " accesses, config " << i;
    }
  }
}

TEST(FusedReplay, SharedBaselineSinksKeepTechnologyApart) {
  // Two configs that differ only in the CNFET technology must not share a
  // baseline sink: each result carries its own technology's ledgers.
  const Workload w = build_workload("zipf_kv", 0.03);
  std::vector<SimConfig> cfgs(2);
  cfgs[1].tech.cell.wr1 = cfgs[1].tech.cell.wr1 * 2.0;
  const std::vector<SimResult> fused = simulate_group(w, cfgs);
  ASSERT_EQ(fused.size(), 2u);
  EXPECT_NE(fused[0].energy(kPolicyBaseline).in_joules(),
            fused[1].energy(kPolicyBaseline).in_joules());
  for (usize i = 0; i < cfgs.size(); ++i) {
    EXPECT_EQ(json_of(fused[i]), json_of(simulate(w, cfgs[i])));
  }
}

TEST(FusedReplay, RejectsGroupsThatCannotShareOneCache) {
  const Workload w = build_workload("stream_copy", 0.02);
  std::vector<SimConfig> cfgs(2);
  cfgs[1].cache.ways = 8;
  EXPECT_THROW((void)simulate_group(w, cfgs), std::invalid_argument);

  cfgs[1] = cfgs[0];
  cfgs[1].fault.protection = ProtectionScheme::kSecded;
  EXPECT_THROW((void)simulate_group(w, cfgs), std::invalid_argument);

  // A lone fault campaign is simulate()'s own case.
  const std::vector<SimResult> alone =
      simulate_group(w, std::span<const SimConfig>(&cfgs[1], 1));
  ASSERT_EQ(alone.size(), 1u);
  EXPECT_TRUE(alone[0].has_fault);
  EXPECT_TRUE(simulate_group(w, {}).empty());
}

// --- pipelined fan-out -------------------------------------------------------

/// Threads of this process, or nullopt where /proc/self/task is absent.
std::optional<usize> thread_count() {
  std::error_code ec;
  const std::filesystem::directory_iterator it("/proc/self/task", ec);
  if (ec) return std::nullopt;
  return static_cast<usize>(
      std::distance(it, std::filesystem::directory_iterator{}));
}

/// The thread count to come back to once a test's threads are joined. A
/// runtime may start threads of its own with the process's first extra
/// thread (ThreadSanitizer does), so one is started and joined first.
std::optional<usize> baseline_threads() {
  std::thread([] {}).join();
  return thread_count();
}

/// Wait (bounded) for the process to be back down to `want` threads: a
/// joined thread's kernel task can linger a moment after join() returns.
void expect_threads_settle_to(std::optional<usize> want) {
  if (!want.has_value()) return;
  const cancel::Token pause;
  for (int i = 0; i < 1000 && thread_count() != want; ++i) {
    (void)pause.wait_ms(1);
  }
  EXPECT_EQ(thread_count(), want);
}

/// Remembers, for every event, its address and both line images as they
/// read while the event is live.
class RecordingSink final : public AccessSink {
 public:
  void on_access(const AccessEvent& ev) override {
    std::string rec = std::to_string(ev.addr) + ':';
    rec.append(ev.line_before.begin(), ev.line_before.end());
    rec += '|';
    rec.append(ev.line_after.begin(), ev.line_after.end());
    seen.push_back(std::move(rec));
  }
  std::vector<std::string> seen;
};

class ThrowingSink final : public AccessSink {
 public:
  explicit ThrowingSink(usize at) : at_(at) {}
  void on_access(const AccessEvent&) override {
    if (++calls_ == at_) throw std::runtime_error("sink failed on purpose");
  }

 private:
  usize at_;
  usize calls_ = 0;
};

/// A write-hit-like event whose line images live in `before` / `after`,
/// which the caller overwrites as soon as on_access returns.
AccessEvent event_over(std::vector<u8>& before, std::vector<u8>& after,
                       usize i) {
  for (usize b = 0; b < after.size(); ++b) {
    before[b] = static_cast<u8>((i + b) & 0xFFu);
    after[b] = static_cast<u8>((3 * i + b) & 0xFFu);
  }
  AccessEvent ev;
  ev.kind = AccessKind::kWriteHit;
  ev.addr = i;
  ev.line_before = before;
  ev.line_after = after;
  return ev;
}

TEST(ShardedFanout, EverySinkSeesEveryEventInOrderWithItsOwnImages) {
  constexpr usize kLine = 64;
  const usize n = 2 * ShardedFanout::kBatchEvents + 77;
  // The reference: one sink fed directly.
  RecordingSink direct;
  std::vector<u8> before(kLine), after(kLine);
  for (usize i = 0; i < n; ++i) {
    direct.on_access(event_over(before, after, i));
  }

  std::vector<RecordingSink> rec(5);
  std::vector<AccessSink*> sinks;
  for (RecordingSink& r : rec) sinks.push_back(&r);
  {
    ShardedFanout fan(sinks, 3, kLine);
    EXPECT_EQ(fan.shards(), 3u);
    for (usize i = 0; i < n; ++i) fan.on_access(event_over(before, after, i));
    fan.flush();
    fan.flush();  // nothing buffered: a no-op
  }
  for (const RecordingSink& r : rec) EXPECT_EQ(r.seen, direct.seen);
}

/// A RecordingSink that burns `weight` rounds of work per event and
/// counts the calls that found another thread already inside it.
class UnequalSink final : public AccessSink {
 public:
  explicit UnequalSink(usize weight) : weight_(weight) {}
  void on_access(const AccessEvent& ev) override {
    if (inside_.fetch_add(1, std::memory_order_acq_rel) != 0) {
      overlaps_.fetch_add(1, std::memory_order_relaxed);
    }
    u64 h = ev.addr;
    for (usize r = 0; r < weight_; ++r) h = h * 0x100000001B3ull + r;
    work_ += h;
    rec_.on_access(ev);
    inside_.fetch_sub(1, std::memory_order_acq_rel);
  }
  [[nodiscard]] const std::vector<std::string>& seen() const {
    return rec_.seen;
  }
  [[nodiscard]] usize overlaps() const {
    return overlaps_.load(std::memory_order_relaxed);
  }

 private:
  usize weight_;
  u64 work_ = 0;
  RecordingSink rec_;
  std::atomic<usize> inside_{0};
  std::atomic<usize> overlaps_{0};
};

TEST(ShardedFanout, UnequalSinksRunOneThreadAtATimeInOrder) {
  constexpr usize kLine = 64;
  constexpr usize kBatch = ShardedFanout::kBatchEvents;
  // The heavy sinks first, as replay() orders them, then cheap ones that
  // idle threads claim while a heavy one is still running.
  const std::vector<usize> weights = {400, 150, 40, 8, 1, 0, 0};
  for (const usize n : {2 * kBatch - 1, 2 * kBatch, 2 * kBatch + 1}) {
    RecordingSink direct;
    std::vector<u8> before(kLine), after(kLine);
    for (usize i = 0; i < n; ++i) {
      direct.on_access(event_over(before, after, i));
    }
    for (const usize threads : {usize{1}, usize{2}, usize{4}, usize{8}}) {
      std::vector<std::unique_ptr<UnequalSink>> owned;
      std::vector<AccessSink*> sinks;
      for (const usize w : weights) {
        owned.push_back(std::make_unique<UnequalSink>(w));
        sinks.push_back(owned.back().get());
      }
      {
        ShardedFanout fan(sinks, threads, kLine);
        EXPECT_EQ(fan.shards(), std::min(threads, weights.size()));
        for (usize i = 0; i < n; ++i) {
          fan.on_access(event_over(before, after, i));
        }
        fan.flush();
      }
      for (usize k = 0; k < owned.size(); ++k) {
        EXPECT_EQ(owned[k]->overlaps(), 0u)
            << "sink " << k << ", " << threads << " threads, " << n;
        EXPECT_EQ(owned[k]->seen(), direct.seen)
            << "sink " << k << ", " << threads << " threads, " << n;
      }
    }
  }
}

/// A dirty-victim fill whose line images and word counts live in the
/// caller's buffers, which it overwrites as soon as the event is handed on.
AccessEvent counted_event_over(std::vector<u8>& before, std::vector<u8>& after,
                               std::vector<u8>& before_ones,
                               std::vector<u8>& after_ones, usize i) {
  AccessEvent ev = event_over(before, after, i);
  ev.kind = AccessKind::kReadMissFill;
  ev.evicted_valid = true;
  ev.evicted_dirty = true;
  count_word_ones(before, before_ones.data());
  count_word_ones(after, after_ones.data());
  ev.before_word_ones = before_ones;
  ev.after_word_ones = after_ones;
  return ev;
}

/// Overrides on_batch: remembers every event it is handed -- address,
/// line images and word counts -- and counts the batches that found
/// another thread already inside it.
class BatchRecordingSink final : public AccessSink {
 public:
  void on_access(const AccessEvent& ev) override { record(ev); }
  void on_batch(std::span<const AccessEvent> events) override {
    if (inside_.fetch_add(1, std::memory_order_acq_rel) != 0) {
      overlaps_.fetch_add(1, std::memory_order_relaxed);
    }
    ++batches;
    for (const AccessEvent& ev : events) record(ev);
    inside_.fetch_sub(1, std::memory_order_acq_rel);
  }
  [[nodiscard]] usize overlaps() const {
    return overlaps_.load(std::memory_order_relaxed);
  }

  std::vector<std::string> seen;
  usize batches = 0;

 private:
  void record(const AccessEvent& ev) {
    std::string rec = std::to_string(ev.addr) + ':';
    for (const std::span<const u8> s :
         {ev.line_before, ev.line_after, ev.before_word_ones,
          ev.after_word_ones}) {
      rec.append(s.begin(), s.end());
      rec += '|';
    }
    seen.push_back(std::move(rec));
  }

  std::atomic<usize> inside_{0};
  std::atomic<usize> overlaps_{0};
};

TEST(ShardedFanout, OnBatchSinksGetEveryEventOnceInOrderPerBatch) {
  constexpr usize kLine = 64;
  constexpr usize kBatch = ShardedFanout::kBatchEvents;
  for (const usize n : {2 * kBatch - 1, 2 * kBatch, 2 * kBatch + 1}) {
    std::vector<u8> before(kLine), after(kLine);
    std::vector<u8> before_ones(kLine / 8), after_ones(kLine / 8);
    BatchRecordingSink direct;
    for (usize i = 0; i < n; ++i) {
      direct.on_access(
          counted_event_over(before, after, before_ones, after_ones, i));
    }
    for (const usize threads : {usize{1}, usize{2}, usize{4}, usize{8}}) {
      std::vector<std::unique_ptr<BatchRecordingSink>> owned;
      std::vector<AccessSink*> sinks;
      for (usize k = 0; k < 6; ++k) {
        owned.push_back(std::make_unique<BatchRecordingSink>());
        sinks.push_back(owned.back().get());
      }
      {
        ShardedFanout fan(sinks, threads, kLine);
        for (usize i = 0; i < n; ++i) {
          fan.on_access(
              counted_event_over(before, after, before_ones, after_ones, i));
        }
        fan.flush();
      }
      for (usize k = 0; k < owned.size(); ++k) {
        EXPECT_EQ(owned[k]->overlaps(), 0u)
            << "sink " << k << ", " << threads << " threads, " << n;
        // One on_batch call per posted batch, none for an empty flush.
        EXPECT_EQ(owned[k]->batches, (n + kBatch - 1) / kBatch)
            << "sink " << k << ", " << threads << " threads, " << n;
        EXPECT_EQ(owned[k]->seen, direct.seen)
            << "sink " << k << ", " << threads << " threads, " << n;
      }
    }
  }
}

TEST(ShardedFanout, HelperSinkExceptionIsRethrownOnTheCallingThread) {
  constexpr usize kLine = 32;
  const std::optional<usize> threads_before = baseline_threads();
  std::vector<RecordingSink> rec(3);
  // Four threads for four sinks: the thrower fails in the second batch,
  // on whichever thread claimed it.
  ThrowingSink thrower(ShardedFanout::kBatchEvents + 5);
  std::vector<AccessSink*> sinks = {&rec[0], &rec[1], &thrower, &rec[2]};
  std::vector<u8> before(kLine), after(kLine);
  {
    ShardedFanout fan(sinks, 4, kLine);
    ASSERT_EQ(fan.shards(), 4u);
    usize fed = 0;
    try {
      for (; fed < 3 * ShardedFanout::kBatchEvents; ++fed) {
        fan.on_access(event_over(before, after, fed));
      }
      fan.flush();
      FAIL() << "the sink's exception was swallowed";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "sink failed on purpose");
    }
    // It surfaced when the third batch was full and waited for the second
    // to finish: after every sink -- including the ones that did not
    // throw -- had run the second batch, and before the third was posted.
    EXPECT_EQ(fed, 3 * ShardedFanout::kBatchEvents - 1);
    for (const RecordingSink& r : rec) {
      EXPECT_EQ(r.seen.size(), 2 * ShardedFanout::kBatchEvents);
    }
    // The helpers are gone already, and a dead fan-out keeps failing.
    expect_threads_settle_to(threads_before);
    EXPECT_THROW(fan.flush(), std::runtime_error);
  }
  expect_threads_settle_to(threads_before);
}

TEST(ShardedFanout, CancellingMidReplayThrowsPromptlyAndJoinsEveryHelper) {
  const std::optional<usize> threads_before = baseline_threads();
  if (!threads_before.has_value()) {
    GTEST_SKIP() << "needs /proc/self/task to see the helper threads";
  }
  const Workload w = build_workload("zipf_kv", 1.0);
  std::vector<SimConfig> cfgs(16);
  for (usize i = 0; i < cfgs.size(); ++i) cfgs[i].cnt.window = 3 + 2 * i;

  cancel::Token token;
  std::atomic<i64> cancelled_at_ns{0};
  // Cancel once the replay's helpers are up, i.e. mid-replay: the
  // canceller itself is one extra thread, the helpers three more.
  std::thread canceller([&] {
    const cancel::Token pause;
    for (int i = 0; i < 10000 && thread_count() < *threads_before + 4; ++i) {
      (void)pause.wait_ms(1);
    }
    cancelled_at_ns = std::chrono::steady_clock::now().time_since_epoch() /
                      std::chrono::nanoseconds(1);
    token.cancel();
  });
  std::optional<Errc> code;
  i64 threw_at_ns = 0;
  {
    const cancel::ScopedToken scope(token);
    try {
      (void)simulate_group(w, cfgs, 4);
    } catch (const Error& e) {
      threw_at_ns = std::chrono::steady_clock::now().time_since_epoch() /
                    std::chrono::nanoseconds(1);
      code = e.code();
    }
  }
  canceller.join();
  ASSERT_TRUE(code.has_value()) << "the replay finished before the cancel";
  EXPECT_EQ(*code, Errc::kCancelled);
  // One 4096-access replay batch at most, even on a slow sanitizer build.
  EXPECT_LT(threw_at_ns - cancelled_at_ns.load(), i64{2'000'000'000});
  expect_threads_settle_to(threads_before);
}

// --- functional key ---------------------------------------------------------

TEST(FunctionalKey, ChangesWithEveryCacheFieldAndWithAFaultCampaign) {
  const Job base_job = [] {
    Job j;
    j.workload = "zipf_kv";
    j.scale = 0.25;
    return j;
  }();
  const std::optional<u64> base = functional_key(base_job);
  ASSERT_TRUE(base.has_value());

  const std::vector<std::pair<const char*, std::function<void(Job&)>>>
      mutations = {
          {"workload", [](Job& j) { j.workload = "stream_copy"; }},
          {"scale", [](Job& j) { j.scale = 0.5; }},
          {"seed_offset", [](Job& j) { j.seed_offset = 1; }},
          {"name", [](Job& j) { j.config.cache.name = "L1X"; }},
          {"size_bytes", [](Job& j) { j.config.cache.size_bytes *= 2; }},
          {"ways", [](Job& j) { j.config.cache.ways = 8; }},
          {"line_bytes", [](Job& j) { j.config.cache.line_bytes = 32; }},
          {"addr_bits", [](Job& j) { j.config.cache.addr_bits = 48; }},
          {"write_policy",
           [](Job& j) {
             j.config.cache.write_policy = WritePolicy::kWriteThrough;
           }},
          {"alloc_policy",
           [](Job& j) {
             j.config.cache.alloc_policy = AllocPolicy::kNoWriteAllocate;
           }},
          {"replacement",
           [](Job& j) { j.config.cache.replacement = ReplKind::kFifo; }},
          {"idle.idle_per_miss",
           [](Job& j) { j.config.cache.idle.idle_per_miss = 3; }},
          {"idle.hit_idle_period",
           [](Job& j) { j.config.cache.idle.hit_idle_period = 0; }},
          {"replacement_seed",
           [](Job& j) { j.config.cache.replacement_seed = 7; }},
          {"way_prediction",
           [](Job& j) { j.config.cache.way_prediction = true; }},
          {"sector_writeback",
           [](Job& j) { j.config.cache.sector_writeback = true; }},
          {"fault.stuck_per_mbit",
           [](Job& j) { j.config.fault.stuck_per_mbit = 1.0; }},
          {"fault.transient_per_read",
           [](Job& j) { j.config.fault.transient_per_read = 1e-6; }},
          {"fault.protection",
           [](Job& j) {
             j.config.fault.protection = ProtectionScheme::kParity;
           }},
      };
  for (const auto& [field, mutate] : mutations) {
    Job j = base_job;
    mutate(j);
    EXPECT_NE(functional_key(j), base) << field;
  }
}

TEST(FunctionalKey, IgnoresEveryPolicyOnlyField) {
  Job a;
  a.workload = "zipf_kv";
  Job b = a;
  b.id = 9;
  b.tag = "window=3";
  b.config.cnt.window = 3;
  b.config.cnt.partitions = 2;
  b.config.cnt.fifo_depth = 1;
  b.config.cnt.zero_line_opt = true;
  b.config.tech.cell.rd0 = b.config.tech.cell.rd0 * 2.0;
  b.config.cmos_tech.clock_ghz = 1.0;
  b.config.with_ideal = false;
  // Fault knobs other than the enabling ones are inert while disabled.
  b.config.fault.seed = 1;
  ASSERT_TRUE(functional_key(a).has_value());
  EXPECT_EQ(functional_key(a), functional_key(b));
}

TEST(FunctionalKey, CacheFingerprintLeavesJournalFingerprintsUnchanged) {
  // Pinned from the journal format that predates cache_fingerprint():
  // every journaled job key derives from this value.
  EXPECT_EQ(hex_u64(config_fingerprint(SimConfig{})), "8bab0c96ce7a0fea");
  SimConfig other;
  other.cache.ways = 8;
  EXPECT_NE(cache_fingerprint(other.cache),
            cache_fingerprint(SimConfig{}.cache));
}

// --- engine -----------------------------------------------------------------

std::string temp_path(const std::string& name) {
  const std::string path = ::testing::TempDir() + name;
  std::remove(path.c_str());
  std::remove((path + ".partial").c_str());
  return path;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Three workloads x W x K: every workload is one fused group of six, and
/// a group's members are strided through the submission order.
SweepSpec fused_spec() {
  SweepSpec spec;
  spec.scale(0.03)
      .workloads({"stream_copy", "zipf_kv", "hash_join"})
      .axis("window", std::vector<usize>{3, 15, 63},
            [](SimConfig& cfg, usize w) { cfg.cnt.window = w; })
      .axis("partitions", std::vector<usize>{1, 8},
            [](SimConfig& cfg, usize k) { cfg.cnt.partitions = k; });
  return spec;
}

/// The journal the per-job path writes: every job run alone through
/// run_job_with_retry, rows in submission order.
std::string per_job_journal(const std::vector<Job>& batch, u32 retries,
                            Watchdog* watchdog = nullptr) {
  std::vector<Job> jobs = batch;
  for (usize i = 0; i < jobs.size(); ++i) jobs[i].id = i;
  std::ostringstream os;
  os << make_header_line(sweep_fingerprint(jobs), jobs.size()) << '\n';
  for (const Job& job : jobs) {
    write_jsonl_row(run_job_with_retry(job, retries, 0, run_job, watchdog),
                    os, false);
    os << '\n';
  }
  return os.str();
}

EngineOptions journal_opts(const std::string& path, usize workers) {
  EngineOptions opts;
  opts.jobs = workers;
  opts.jsonl_path = path;
  opts.jsonl_timing = false;
  return opts;
}

TEST(FusedEngine, JournalMatchesThePerJobPathAtAnyWorkerCount) {
  const std::vector<Job> jobs = fused_spec().expand();
  const std::string want = per_job_journal(jobs, 0);
  // Two workers leave each of the three groups' replays a share of the
  // hardware threads; eight, more workers than groups.
  for (const usize workers : {usize{1}, usize{2}, usize{8}}) {
    const std::string path =
        temp_path("cnt_fused_w" + std::to_string(workers) + ".jsonl");
    const auto outcomes =
        ExperimentEngine(journal_opts(path, workers)).run(jobs);
    EXPECT_EQ(slurp(path), want) << workers << " workers";
    ASSERT_EQ(outcomes.size(), jobs.size());
    for (usize i = 0; i < outcomes.size(); ++i) {
      EXPECT_EQ(outcomes[i].job.id, i);
      EXPECT_TRUE(outcomes[i].ok) << outcomes[i].error;
    }
  }
}

TEST(FusedEngine, GroupMembersShareTheGroupWallTimeEqually) {
  const auto outcomes = ExperimentEngine({.jobs = 1}).run(fused_spec());
  ASSERT_EQ(outcomes.size(), 18u);
  // Jobs 0, 3, 6, ... are the stream_copy group.
  for (usize i = 3; i < outcomes.size(); i += 3) {
    EXPECT_EQ(outcomes[i].wall_ms, outcomes[0].wall_ms);
  }
  EXPECT_GT(outcomes[0].wall_ms, 0.0);
}

TEST(FusedEngine, FailedGroupFallsBackToThePerJobPath) {
  // Every member names a workload that does not exist: the fused attempt
  // throws, and each member must then fail, retry and quarantine exactly
  // as it would alone.
  std::vector<Job> jobs = fused_spec().expand();
  for (Job& j : jobs) {
    if (j.workload == "zipf_kv") j.workload = "no_such_workload";
  }
  const std::string path = temp_path("cnt_fused_fallback.jsonl");
  EngineOptions opts = journal_opts(path, 1);
  opts.max_retries = 1;
  opts.retry_backoff_ms = 0;
  const auto outcomes = ExperimentEngine(opts).run(jobs);
  EXPECT_EQ(slurp(path), per_job_journal(jobs, 1));
  EXPECT_EQ(quarantined_count(outcomes), 6u);
  EXPECT_EQ(sweep_exit_code(outcomes), kExitQuarantine);
  EXPECT_EQ(outcomes[1].attempts, 2u);
  EXPECT_EQ(outcomes[1].quarantine_reason, "retries");
}

TEST(FusedEngine, TimedOutGroupFallsBackAndQuarantinesEachMember) {
  // A 1 ms budget cannot cover building and replaying a full-scale
  // workload, fused or alone: the group times out, every member retries
  // alone, times out again and is quarantined as "timeout". One worker
  // leaves the group every hardware thread, so on a multi-core host it
  // times out while sharded; the journal must still be the per-job one.
  std::vector<usize> windows;
  for (usize i = 0; i < kMinShardedGroup; ++i) {
    windows.push_back(3 + 4 * i);
  }
  SweepSpec spec;
  spec.scale(1.0).workloads({"zipf_kv"}).axis(
      "window", windows, [](SimConfig& cfg, usize w) { cfg.cnt.window = w; });
  const std::string path = temp_path("cnt_fused_timeout.jsonl");
  EngineOptions opts = journal_opts(path, 1);
  opts.job_timeout_ms = 1;
  const auto outcomes = ExperimentEngine(opts).run(spec);
  ASSERT_EQ(outcomes.size(), windows.size());
  for (const JobOutcome& o : outcomes) {
    EXPECT_TRUE(o.quarantined);
    EXPECT_EQ(o.quarantine_reason, "timeout");
    EXPECT_EQ(o.attempt_errcs, std::vector<std::string>{"timeout"});
  }
  Watchdog dog(1);
  EXPECT_EQ(slurp(path), per_job_journal(spec.expand(), 0, &dog));
}

TEST(FusedEngine, FailpointHitsSelectJobsInSubmissionOrder) {
  // hang@2 is job 1 and error:EIO@4 is job 3, members of two different
  // fused groups; both leave their groups, the hung one is quarantined
  // and the failed one retried clean, while the rest still fuse.
  const std::string ref_path = temp_path("cnt_fused_fp_ref.jsonl");
  (void)ExperimentEngine(journal_opts(ref_path, 1)).run(fused_spec());
  const std::string ref = slurp(ref_path);

  const std::string path = temp_path("cnt_fused_fp.jsonl");
  fp::configure("engine.job=hang@2;engine.job=error:EIO@4");
  EngineOptions opts = journal_opts(path, 1);
  opts.job_timeout_ms = 100;
  opts.max_retries = 1;
  opts.retry_backoff_ms = 0;
  const auto outcomes = ExperimentEngine(opts).run(fused_spec());
  fp::clear();
  ASSERT_EQ(outcomes.size(), 18u);
  EXPECT_EQ(quarantined_count(outcomes), 1u);
  EXPECT_TRUE(outcomes[1].quarantined);
  EXPECT_EQ(outcomes[1].quarantine_reason, "timeout");
  EXPECT_TRUE(outcomes[3].ok);
  EXPECT_EQ(outcomes[3].attempts, 2u);
  EXPECT_EQ(sweep_exit_code(outcomes), kExitQuarantine);

  // --resume re-attempts only the quarantined job.
  EngineOptions resume = journal_opts(path, 1);
  resume.resume = true;
  const auto resumed = ExperimentEngine(resume).run(fused_spec());
  for (usize i = 0; i < resumed.size(); ++i) {
    EXPECT_EQ(resumed[i].resumed, i != 1) << i;
  }
  EXPECT_EQ(slurp(path), ref);
}

TEST(FusedEngine, InterruptCommitsASubmissionOrderPrefixAndResumes) {
  const std::string ref_path = temp_path("cnt_fused_cut_ref.jsonl");
  (void)ExperimentEngine(journal_opts(ref_path, 1)).run(fused_spec());

  const std::string path = temp_path("cnt_fused_cut.jsonl");
  usize polls = 0;
  EngineOptions cut = journal_opts(path, 1);
  cut.cancel_check = [&polls] { return ++polls > 5; };
  try {
    (void)ExperimentEngine(cut).run(fused_spec());
    FAIL() << "sweep was not interrupted";
  } catch (const SweepInterrupted& e) {
    EXPECT_EQ(e.completed(), 5u);
  }

  // Jobs 0-4 were committed even though their groups also computed
  // later members; those are discarded and resume recomputes them.
  EngineOptions resume = journal_opts(path, 4);
  resume.resume = true;
  const auto outcomes = ExperimentEngine(resume).run(fused_spec());
  for (usize i = 0; i < outcomes.size(); ++i) {
    EXPECT_EQ(outcomes[i].resumed, i < 5) << i;
  }
  EXPECT_EQ(slurp(path), slurp(ref_path));
}

}  // namespace
}  // namespace cnt::exec
