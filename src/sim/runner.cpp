#include "sim/runner.hpp"

#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "cache/cache.hpp"
#include "cache/main_memory.hpp"
#include "common/cancel.hpp"
#include "cnt/baseline_policies.hpp"
#include "fault/protection.hpp"
#include "sim/sink_fanout.hpp"
#include "trace/workload_suite.hpp"

namespace cnt {

namespace {

// Inner replay loop, one batch per call. The caller owns the batch
// buffer and all per-run config; this function stays allocation-free so
// replay throughput is bounded by the cache model, not the heap.
// cnt-hot
void replay_batch(Cache& cache, MainMemory& memory,
                  TraceStatsAccumulator& stats_acc,
                  std::span<const MemAccess> batch, u64 line_mask,
                  usize line_bytes, bool warm_sets) {
  // How many accesses ahead to warm the backing store for a potential
  // fill. Far enough to cover a DRAM round-trip at replay speed, near
  // enough that the lines are still cached when the fill copies them.
  constexpr usize kPrefetchDistance = 8;
  const usize got = batch.size();
  for (usize i = 0; i < got; ++i) {
    if (i + kPrefetchDistance < got) {
      const u64 ahead = batch[i + kPrefetchDistance].addr;
      if (warm_sets) cache.prefetch(ahead);
      memory.prefetch_line(ahead & line_mask, line_bytes);
    }
    stats_acc.feed(batch[i]);
    // A single-cache study treats instruction fetches as reads.
    MemAccess routed = batch[i];
    if (routed.op == MemOp::kIFetch) routed.op = MemOp::kRead;
    cache.access(routed);
  }
}

}  // namespace

SimConfig::SimConfig()
    : tech(TechParams::cnfet()), cmos_tech(TechParams::cmos()) {
  cache.name = "L1D";
  cache.size_bytes = 32 * 1024;
  cache.ways = 4;
  cache.line_bytes = 64;
}

const PolicyResult* SimResult::find(std::string_view name) const {
  for (const auto& p : policies) {
    if (p.name == name) return &p;
  }
  return nullptr;
}

Energy SimResult::energy(std::string_view name) const {
  const auto* p = find(name);
  if (p == nullptr) {
    throw std::out_of_range("SimResult: no policy named " + std::string(name));
  }
  return p->total();
}

double SimResult::saving(std::string_view opt, std::string_view base) const {
  const double b = energy(base).in_joules();
  const double o = energy(opt).in_joules();
  return b <= 0.0 ? 0.0 : 1.0 - o / b;
}

namespace {

/// A baseline-family sink (cmos, cnfet_base, static_inv, ideal) with the
/// constructor arguments it was built from. A fused replay builds one per
/// distinct argument set and shares it between every config that asks for
/// the same one: a pure observer with equal arguments keeps an equal
/// ledger, so the copy each result receives is the one it would compute.
struct FamilySink {
  std::string_view kind;
  const TechParams* tech = nullptr;
  ProtectionSpec prot;
  usize partitions = 0;  ///< IdealPolicy's partition count; 0 otherwise
  WriteGranularity wg = WriteGranularity::kWord;
  std::unique_ptr<EnergyPolicyBase> policy;
};

class FamilySinks {
 public:
  explicit FamilySinks(const ArrayGeometry& geom) : geom_(geom) {}

  /// The `kind` sink for these arguments, built on first request.
  const EnergyPolicyBase* get(std::string_view kind, const TechParams& tech,
                              const ProtectionSpec& prot, usize partitions,
                              WriteGranularity wg) {
    for (const FamilySink& s : sinks_) {
      if (s.kind == kind && *s.tech == tech && s.prot == prot &&
          s.partitions == partitions && s.wg == wg) {
        return s.policy.get();
      }
    }
    ArrayGeometry geom = geom_;
    geom.meta_bits += prot.check_bits;
    std::unique_ptr<EnergyPolicyBase> p;
    if (kind == kPolicyStatic) {
      p = std::make_unique<StaticInvertPolicy>(std::string(kind), tech, geom,
                                               wg);
    } else if (kind == kPolicyIdeal) {
      p = std::make_unique<IdealPolicy>(std::string(kind), tech, geom,
                                        partitions, wg);
    } else {
      p = std::make_unique<PlainPolicy>(std::string(kind), tech, geom, wg);
    }
    p->set_protection(prot);
    sinks_.push_back({kind, &tech, prot, partitions, wg, std::move(p)});
    return sinks_.back().policy.get();
  }

  /// Append every sink built so far, in build order.
  void append_to(std::vector<AccessSink*>& out) const {
    for (const FamilySink& s : sinks_) out.push_back(s.policy.get());
  }

 private:
  ArrayGeometry geom_;
  std::vector<FamilySink> sinks_;
};

/// One config's view of a fused replay: its own CNT sink and the shared
/// baseline-family sinks it reads its ledgers from.
struct ConfigSinks {
  const EnergyPolicyBase* cmos = nullptr;
  const EnergyPolicyBase* baseline = nullptr;
  const EnergyPolicyBase* static_inv = nullptr;
  std::unique_ptr<CntPolicy> cnt;
  const EnergyPolicyBase* ideal = nullptr;
};

PolicyResult ledger_of(const EnergyPolicyBase& p) {
  PolicyResult pr;
  pr.name = p.name();
  pr.ledger = p.ledger();
  return pr;
}

/// The replay loop behind simulate() and simulate_group(): one functional
/// cache, every config's policy sinks attached, one SimResult per config.
/// A group of at least kMinShardedGroup configs given more than one
/// thread runs its sinks through a ShardedFanout; anything else attaches
/// them to the cache directly.
std::vector<SimResult> replay(TraceSource& source,
                              std::span<const MemorySegment> init,
                              std::span<const SimConfig> cfgs, usize threads) {
  if (cfgs.empty()) return {};
  const SimConfig& lead = cfgs.front();
  for (const SimConfig& cfg : cfgs) {
    if (cfg.cache != lead.cache) {
      throw std::invalid_argument(
          "simulate_group: every config must share one cache configuration");
    }
    if (cfgs.size() > 1 && cfg.fault.enabled()) {
      throw std::invalid_argument(
          "simulate_group: a fault campaign must replay alone");
    }
  }

  MainMemory memory;
  memory.load(init);

  Cache cache(lead.cache, memory);
  const ArrayGeometry geom = geometry_of(lead.cache);

  // Fault campaign: one shared corruption substrate for the functional
  // run (the data array is policy-agnostic), plus the CNT policy's
  // direction-bit domain. Disabled => no hook, no check bits, and results
  // byte-identical to a fault-free build. Only a lone config may carry one.
  std::unique_ptr<FaultCampaign> campaign;
  if (lead.fault.enabled()) {
    campaign = std::make_unique<FaultCampaign>(
        lead.fault, lead.cache.sets(), lead.cache.ways,
        lead.cache.line_bytes, lead.cnt.partitions);
    cache.set_fault_hook(campaign.get());
  }

  FamilySinks family(geom);
  std::vector<ConfigSinks> per_config(cfgs.size());
  for (usize i = 0; i < cfgs.size(); ++i) {
    const SimConfig& cfg = cfgs[i];
    ConfigSinks& s = per_config[i];
    // Baseline-family arrays protect the data line; the CNT array's
    // codeword additionally covers its K direction bits. Check bits widen
    // the row (meta_bits), so decode and leakage see the protected
    // geometry.
    const ProtectionSpec data_prot = make_protection_spec(
        cfg.fault.protection, geom.line_bits(), cfg.cnt.partitions,
        /*include_directions=*/false);
    const ProtectionSpec cnt_prot = make_protection_spec(
        cfg.fault.protection, geom.line_bits(), cfg.cnt.partitions,
        cfg.fault.protect_directions);
    ArrayGeometry cnt_geom = geom;
    cnt_geom.meta_bits += cnt_prot.check_bits;

    // Every policy uses the same write-accounting granularity so the
    // comparison isolates the encoding scheme.
    const WriteGranularity wg = cfg.cnt.write_granularity;

    s.baseline = family.get(kPolicyBaseline, cfg.tech, data_prot, 0, wg);
    s.cnt = std::make_unique<CntPolicy>(std::string(kPolicyCnt), cfg.tech,
                                        cnt_geom, cfg.cnt);
    s.cnt->set_protection(cnt_prot);
    s.cnt->attach_direction_hook(campaign.get());
    if (cfg.with_cmos) {
      s.cmos = family.get(kPolicyCmos, cfg.cmos_tech, data_prot, 0, wg);
    }
    if (cfg.with_static) {
      s.static_inv = family.get(kPolicyStatic, cfg.tech, data_prot, 0, wg);
    }
    if (cfg.with_ideal) {
      s.ideal = family.get(kPolicyIdeal, cfg.tech, data_prot,
                           cfg.cnt.partitions, wg);
    }
  }

  // The CNT sinks first, then the cheaper shared family sinks: a fan-out
  // hands the sinks out in list order, so the heaviest are claimed first
  // and the cheap ones fill the gaps at the end of a batch.
  std::vector<AccessSink*> sinks;
  for (const ConfigSinks& s : per_config) sinks.push_back(s.cnt.get());
  family.append_to(sinks);
  std::optional<ShardedFanout> fanout;
  if (cfgs.size() >= kMinShardedGroup && threads > 1) {
    fanout.emplace(sinks, threads, lead.cache.line_bytes);
    cache.add_sink(*fanout);
  } else {
    for (AccessSink* s : sinks) cache.add_sink(*s);
  }

  // Pull in batches: keeps virtual dispatch off the per-access path and
  // bounds resident memory at one batch + one decoded chunk regardless of
  // trace length. Statistics accumulate inline on the un-routed access --
  // the same accumulator Trace::stats() uses -- so streamed and in-RAM
  // replay report identical TraceStats.
  source.reset();
  TraceStatsAccumulator stats_acc;
  std::vector<MemAccess> batch(4096);
  const u64 line_mask = ~static_cast<u64>(lead.cache.line_bytes - 1);
  // Warming the cache's own set arrays only pays when the data store
  // outgrows the CPU's caches; for KiB-scale configs the set is already
  // resident and the extra prefetches are pure overhead.
  const bool warm_sets = lead.cache.size_bytes > (usize{1} << 21);
  for (;;) {
    // Cooperative cancellation, once per 4096-access batch (one relaxed
    // atomic load, docs/robustness.md) -- never inside replay_batch.
    cancel::throw_if_cancelled("sim.replay");
    const usize got = source.next(batch);
    if (got == 0) break;
    replay_batch(cache, memory, stats_acc,
                 std::span<const MemAccess>(batch.data(), got), line_mask,
                 lead.cache.line_bytes, warm_sets);
  }
  if (fanout.has_value()) fanout->flush();

  SimResult shared;
  shared.workload = source.name();
  shared.trace_stats = stats_acc.finish();
  shared.cache_stats = cache.stats();
  if (campaign) {
    shared.has_fault = true;
    shared.fault_stats = campaign->stats();
  }

  std::vector<SimResult> results;
  results.reserve(cfgs.size());
  for (const ConfigSinks& s : per_config) {
    SimResult res = shared;
    if (s.cmos != nullptr) res.policies.push_back(ledger_of(*s.cmos));
    res.policies.push_back(ledger_of(*s.baseline));
    if (s.static_inv != nullptr) {
      res.policies.push_back(ledger_of(*s.static_inv));
    }
    PolicyResult cnt = ledger_of(*s.cnt);
    cnt.has_cnt_stats = true;
    cnt.cnt_stats = s.cnt->stats();
    cnt.queue_stats = s.cnt->queue_stats();
    res.policies.push_back(std::move(cnt));
    if (s.ideal != nullptr) res.policies.push_back(ledger_of(*s.ideal));
    results.push_back(std::move(res));
  }
  return results;
}

}  // namespace

SimResult simulate(TraceSource& source, std::span<const MemorySegment> init,
                   const SimConfig& cfg) {
  return std::move(replay(source, init, {&cfg, 1}, 1).front());
}

SimResult simulate(const Workload& w, const SimConfig& cfg) {
  return std::move(simulate_group(w, {&cfg, 1}).front());
}

std::vector<SimResult> simulate_group(const Workload& w,
                                      std::span<const SimConfig> cfgs,
                                      usize threads) {
  VectorTraceSource source(w.trace);
  std::vector<SimResult> results = replay(source, w.init, cfgs, threads);
  for (SimResult& res : results) res.workload = w.name;
  return results;
}

std::vector<SimResult> run_suite(const SimConfig& cfg, double scale,
                                 u64 seed_offset) {
  std::vector<SimResult> results;
  for (const auto& entry : default_suite()) {
    results.push_back(simulate(entry.build(scale, seed_offset), cfg));
  }
  return results;
}

}  // namespace cnt
