// Batch sink kernels: a sink's on_batch, its on_access, and events whose
// per-word '1' counts are recomputed from the line images must all leave
// byte-identical ledgers, CNT statistics and queue statistics -- for every
// sink type, across partition counts, line sizes, write granularities and
// the zero-line, flip-aware and per-set-history options. Also checks the
// counts a Cache ships against popcounts of the images they describe.
#include <gtest/gtest.h>

#include <bit>
#include <cstring>
#include <memory>
#include <ostream>
#include <string>
#include <type_traits>
#include <vector>

#include "cache/cache.hpp"
#include "cnt/baseline_policies.hpp"
#include "cnt/cnt_policy.hpp"
#include "cnt/encoding.hpp"
#include "common/rng.hpp"

namespace cnt {
namespace {

/// One event with its own copies of everything its spans point at.
struct OwnedEvent {
  AccessEvent ev;
  std::vector<u8> before, after, before_ones, after_ones;
};

/// Copies every event it sees, so the events can be replayed later.
class Recorder final : public AccessSink {
 public:
  void on_access(const AccessEvent& ev) override {
    OwnedEvent o;
    o.ev = ev;
    o.before.assign(ev.line_before.begin(), ev.line_before.end());
    o.after.assign(ev.line_after.begin(), ev.line_after.end());
    o.before_ones.assign(ev.before_word_ones.begin(),
                         ev.before_word_ones.end());
    o.after_ones.assign(ev.after_word_ones.begin(), ev.after_word_ones.end());
    owned.push_back(std::move(o));
  }
  std::vector<OwnedEvent> owned;
};

/// Point every recorded event's spans at its own copies. With `recount`,
/// the word counts are recomputed from the images instead of the ones the
/// cache shipped.
std::vector<AccessEvent> events_of(std::vector<OwnedEvent>& owned,
                                   bool recount) {
  std::vector<AccessEvent> out;
  out.reserve(owned.size());
  for (OwnedEvent& o : owned) {
    if (recount) {
      o.after_ones.assign(o.after.size() / 8, 0xAA);
      count_word_ones(o.after, o.after_ones.data());
      if (o.ev.evicted_dirty) {
        o.before_ones.assign(o.before.size() / 8, 0xAA);
        count_word_ones(o.before, o.before_ones.data());
      }
    }
    AccessEvent ev = o.ev;
    ev.line_before = o.before;
    ev.line_after = o.after;
    ev.before_word_ones = o.before_ones;
    ev.after_word_ones = o.after_ones;
    out.push_back(ev);
  }
  return out;
}

struct Variant {
  usize line_bytes = 64;
  usize partitions = 8;
  WriteGranularity gran = WriteGranularity::kWord;
  bool zero_line = false;
  bool flip_aware = false;
  bool per_set = false;
  AllocPolicy alloc = AllocPolicy::kWriteAllocate;
  bool sector_writeback = false;

  [[nodiscard]] std::string name() const {
    std::string n = "L" + std::to_string(line_bytes) + "_K" +
                    std::to_string(partitions) + "_" + to_string(gran);
    if (zero_line) n += "_zero";
    if (flip_aware) n += "_flip";
    if (per_set) n += "_perset";
    if (alloc == AllocPolicy::kNoWriteAllocate) n += "_nwa";
    if (sector_writeback) n += "_sector";
    return n;
  }
  friend void PrintTo(const Variant& v, std::ostream* os) { *os << v.name(); }
};

CacheConfig cache_of(const Variant& v) {
  CacheConfig c;
  c.ways = 2;
  c.line_bytes = v.line_bytes;
  c.size_bytes = 16 * c.ways * c.line_bytes;  // 16 sets: evictions galore
  c.alloc_policy = v.alloc;
  c.sector_writeback = v.sector_writeback;
  c.idle.idle_per_miss = 2;
  c.idle.hit_idle_period = 3;
  return c;
}

/// Every sink type, built fresh for one replay.
struct Sinks {
  std::vector<std::unique_ptr<EnergyPolicyBase>> all;
  CntPolicy* cnt = nullptr;

  explicit Sinks(const Variant& v) {
    const ArrayGeometry geom = geometry_of(cache_of(v));
    CntConfig cc;
    cc.window = 5;
    cc.partitions = v.partitions;
    cc.fifo_depth = 2;
    cc.write_granularity = v.gran;
    cc.zero_line_opt = v.zero_line;
    cc.flip_aware_writes = v.flip_aware;
    cc.history_scope =
        v.per_set ? HistoryScope::kPerSet : HistoryScope::kPerLine;
    auto c = std::make_unique<CntPolicy>("cnt", TechParams::cnfet(), geom, cc);
    cnt = c.get();
    all.push_back(std::move(c));
    all.push_back(std::make_unique<PlainPolicy>("base", TechParams::cnfet(),
                                                geom, v.gran));
    all.push_back(std::make_unique<PlainPolicy>("cmos", TechParams::cmos(),
                                                geom, v.gran));
    all.push_back(std::make_unique<StaticInvertPolicy>(
        "inv", TechParams::cnfet(), geom, v.gran));
    all.push_back(std::make_unique<IdealPolicy>(
        "ideal", TechParams::cnfet(), geom, v.partitions, v.gran));
  }
};

/// A dirty-victim-heavy trace over 4x the cache: stores of every width,
/// mostly-zero and dense values (so zero lines and every partition
/// density occur), and line-granular writes and reads as an upper level
/// issues them.
void drive(Cache& cache, usize line_bytes, u64 seed) {
  Rng rng(seed);
  const u64 span = 4 * 16 * 2 * line_bytes;
  std::vector<u8> line(line_bytes);
  for (usize i = 0; i < 6000; ++i) {
    const u64 r = rng.uniform(100);
    if (r < 4) {
      const u64 addr = rng.uniform(span) & ~u64{line_bytes - 1};
      const bool zero = rng.uniform(2) == 0;
      for (u8& b : line) b = zero ? u8{0} : rng.next_byte();
      cache.write_line(addr, line);
    } else if (r < 8) {
      cache.read_line(rng.uniform(span) & ~u64{line_bytes - 1}, line);
    } else {
      const u8 size = static_cast<u8>(u64{1} << rng.uniform(4));
      const u64 addr = rng.uniform(span) & ~u64{size - 1u};
      if (r < 60) {
        const u64 pick = rng.uniform(3);
        const u64 value = pick == 0 ? 0 : pick == 1 ? ~u64{0} : rng.next();
        cache.access(MemAccess::write(addr, value, size));
      } else {
        cache.access(MemAccess::read(addr, size));
      }
    }
  }
}

void expect_same(const EnergyPolicyBase& a, const EnergyPolicyBase& b,
                 const std::string& where) {
  for (usize c = 0; c < static_cast<usize>(EnergyCategory::kCount); ++c) {
    const auto cat = static_cast<EnergyCategory>(c);
    const double ja = a.ledger().get(cat).in_joules();
    const double jb = b.ledger().get(cat).in_joules();
    EXPECT_EQ(std::bit_cast<u64>(ja), std::bit_cast<u64>(jb))
        << where << " " << a.name() << " " << to_string(cat) << ": " << ja
        << " vs " << jb;
    EXPECT_EQ(a.ledger().count(cat), b.ledger().count(cat))
        << where << " " << a.name() << " " << to_string(cat);
  }
}

template <typename T>
bool same_bytes(const T& a, const T& b) {
  static_assert(std::has_unique_object_representations_v<T>);
  return std::memcmp(&a, &b, sizeof(T)) == 0;
}

void expect_same(const Sinks& a, const Sinks& b, const std::string& where) {
  ASSERT_EQ(a.all.size(), b.all.size());
  for (usize i = 0; i < a.all.size(); ++i) {
    expect_same(*a.all[i], *b.all[i], where);
  }
  EXPECT_TRUE(same_bytes(a.cnt->stats(), b.cnt->stats())) << where;
  EXPECT_TRUE(same_bytes(a.cnt->queue_stats(), b.cnt->queue_stats()))
      << where;
}

std::vector<Variant> variants() {
  std::vector<Variant> out;
  for (const usize line : {usize{32}, usize{64}, usize{128}}) {
    for (const usize k : {usize{1}, usize{2}, usize{4}, usize{8}, usize{16},
                          usize{64}}) {
      if ((line * 8 / k) % 8 != 0) continue;  // not byte-aligned partitions
      for (const auto gran :
           {WriteGranularity::kWord, WriteGranularity::kLine}) {
        Variant v;
        v.line_bytes = line;
        v.partitions = k;
        v.gran = gran;
        out.push_back(v);
      }
    }
  }
  // The options, on the common geometry and on one whose partitions are
  // narrower than a word (the byte path).
  for (const usize k : {usize{8}, usize{16}}) {
    Variant v;
    v.partitions = k;
    v.zero_line = true;
    out.push_back(v);
    v.zero_line = false;
    v.flip_aware = true;
    out.push_back(v);
    v.flip_aware = false;
    v.per_set = true;
    out.push_back(v);
    v.per_set = false;
    v.alloc = AllocPolicy::kNoWriteAllocate;
    out.push_back(v);
    v.alloc = AllocPolicy::kWriteAllocate;
    v.sector_writeback = true;
    v.zero_line = true;
    out.push_back(v);
  }
  return out;
}

class BatchSinks : public ::testing::TestWithParam<Variant> {};

TEST_P(BatchSinks, OnBatchOnAccessAndRecountedEventsAgree) {
  const Variant v = GetParam();
  const CacheConfig cfg = cache_of(v);

  // The reference: every sink attached to the cache, direct dispatch.
  Sinks direct(v);
  Recorder rec;
  {
    MainMemory mem;
    Cache cache(cfg, mem);
    for (auto& s : direct.all) cache.add_sink(*s);
    cache.add_sink(rec);
    drive(cache, v.line_bytes, 0xB47C4 + v.partitions);
  }
  usize dirty_victims = 0;
  for (const OwnedEvent& o : rec.owned) dirty_victims += o.ev.evicted_dirty;
  // Even without write-allocate, about a tenth of all events evict a
  // dirty victim; with it, more.
  EXPECT_GT(dirty_victims, rec.owned.size() / 20) << "not victim-heavy";

  // on_access over the recorded events.
  const std::vector<AccessEvent> shipped = events_of(rec.owned, false);
  Sinks per_event(v);
  for (auto& s : per_event.all) {
    for (const AccessEvent& ev : shipped) s->on_access(ev);
  }
  expect_same(direct, per_event, v.name() + " on_access");

  // on_batch over them, in batches of uneven sizes.
  Sinks batched(v);
  for (auto& s : batched.all) {
    const std::span<const AccessEvent> all(shipped);
    usize at = 0;
    for (usize n = 1; at < all.size(); n = n * 3 + 1) {
      const usize take = std::min(n, all.size() - at);
      s->on_batch(all.subspan(at, take));
      at += take;
    }
  }
  expect_same(direct, batched, v.name() + " on_batch");

  // Counts recomputed from the images, delivered in one batch.
  const std::vector<AccessEvent> recounted = events_of(rec.owned, true);
  Sinks recount(v);
  for (auto& s : recount.all) s->on_batch(recounted);
  expect_same(direct, recount, v.name() + " recounted");
}

INSTANTIATE_TEST_SUITE_P(
    Configs, BatchSinks, ::testing::ValuesIn(variants()),
    [](const ::testing::TestParamInfo<Variant>& p) { return p.param.name(); });

TEST(BatchSinks, CacheShipsThePopcountOfEveryWord) {
  for (const usize line : {usize{8}, usize{32}, usize{64}, usize{128}}) {
    Variant v;
    v.line_bytes = line;
    v.partitions = 1;
    for (const bool sector : {false, true}) {
      v.sector_writeback = sector;
      Recorder rec;
      MainMemory mem;
      Cache cache(cache_of(v), mem);
      cache.add_sink(rec);
      drive(cache, line, 0x5EED + line);
      ASSERT_FALSE(rec.owned.empty());
      for (const OwnedEvent& o : rec.owned) {
        const AccessEvent& ev = o.ev;
        if (ev.kind == AccessKind::kWriteAround) {
          EXPECT_TRUE(o.after_ones.empty());
          EXPECT_TRUE(o.before_ones.empty());
          continue;
        }
        ASSERT_EQ(o.after_ones.size(), line / 8);
        for (usize w = 0; w < line / 8; ++w) {
          u64 word;
          std::memcpy(&word, o.after.data() + 8 * w, 8);
          EXPECT_EQ(int{o.after_ones[w]}, std::popcount(word)) << "word " << w;
        }
        if (!ev.evicted_dirty) {
          EXPECT_TRUE(o.before_ones.empty());
          continue;
        }
        ASSERT_EQ(o.before_ones.size(), line / 8);
        for (usize w = 0; w < line / 8; ++w) {
          u64 word;
          std::memcpy(&word, o.before.data() + 8 * w, 8);
          EXPECT_EQ(int{o.before_ones[w]}, std::popcount(word)) << "word " << w;
        }
      }
    }
  }
}

TEST(BatchSinks, RangeCountsMatchTheBytePath) {
  Rng rng(7);
  std::vector<u8> line(128);
  std::vector<u8> ones(line.size() / 8);
  for (int round = 0; round < 200; ++round) {
    for (u8& b : line) b = rng.next_byte();
    count_word_ones(line, ones.data());
    const usize lo = rng.uniform(line.size() * 8);
    const usize hi = lo + rng.uniform(line.size() * 8 - lo + 1);
    EXPECT_EQ(popcount_range(line, ones, lo, hi), popcount_range(line, lo, hi));
    const usize wlo = lo / 64 * 64;
    const usize whi = (hi + 63) / 64 * 64;
    EXPECT_EQ(popcount_range(line, ones, wlo, whi),
              popcount_range(line, wlo, whi));
  }
}

TEST(BatchSinks, WordKernelsMatchTheBytePath) {
  Rng rng(11);
  usize packed = 0;
  for (const usize line : {usize{8}, usize{16}, usize{32}, usize{64},
                           usize{128}}) {
    for (usize k = 1; k <= 64; k *= 2) {
      if ((line * 8) % k != 0 || (line * 8 / k) % 8 != 0) continue;
      const PartitionScheme ps(line, k);
      // Packed exactly when partitions are whole 64-bit words.
      EXPECT_EQ(ps.word_packed(), ps.partition_bits() % 64 == 0)
          << line << " B, K=" << k;
      if (!ps.word_packed()) continue;
      ++packed;
      std::vector<u8> bytes(line);
      std::vector<u8> ones(line / 8);
      for (int round = 0; round < 50; ++round) {
        for (u8& b : bytes) b = rng.next_byte();
        count_word_ones(bytes, ones.data());
        const u64 dirs = rng.next();
        for (usize p = 0; p < k; ++p) {
          EXPECT_EQ(partition_raw_ones_from_words(ps, ones, p),
                    detail::partition_raw_ones(ps, bytes.data(), p))
              << line << " B, K=" << k << ", partition " << p;
        }
        const usize words = line / 8;
        const usize lo = rng.uniform(words);
        const usize hi = lo + 1 + rng.uniform(words - lo);
        EXPECT_EQ(stored_word_ones(ps, ones, dirs, lo, hi),
                  stored_ones_range(ps, bytes, dirs, lo * 64, hi * 64))
            << line << " B, K=" << k << ", words [" << lo << ", " << hi
            << ")";
      }
    }
  }
  EXPECT_EQ(packed, 15u);  // every line size with K <= line_bits / 64
}

}  // namespace
}  // namespace cnt
