// Experiment runner: replay one workload through a functional cache with
// the full set of energy policies attached, and collect per-policy ledgers.
//
// Because the policies are pure observers, a single functional run yields
// exactly comparable energy numbers for every policy (same hits, same
// evictions, same data) -- the experimental-control property the paper's
// comparison needs. The same property makes fused replay exact:
// simulate_group() attaches the sinks of many configs that share one
// cache configuration to a single functional pass and returns one result
// per config, each byte-identical to its own simulate(). simulate() is the
// one-config case of that loop.
#pragma once

#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "cache/cache_config.hpp"
#include "cache/cache_stats.hpp"
#include "cnt/cnt_policy.hpp"
#include "energy/energy_ledger.hpp"
#include "energy/tech_params.hpp"
#include "fault/campaign.hpp"
#include "fault/fault_config.hpp"
#include "trace/stream/trace_source.hpp"
#include "trace/trace.hpp"

namespace cnt {

/// Canonical policy names used in every report.
inline constexpr std::string_view kPolicyCmos = "cmos";
inline constexpr std::string_view kPolicyBaseline = "cnfet_base";
inline constexpr std::string_view kPolicyStatic = "static_inv";
inline constexpr std::string_view kPolicyCnt = "cnt_cache";
inline constexpr std::string_view kPolicyIdeal = "ideal";

struct SimConfig {
  CacheConfig cache;            ///< the cache under study (default 32K/4w L1D)
  TechParams tech;              ///< CNFET parameters for all CNFET policies
  TechParams cmos_tech;         ///< CMOS parameters for the CMOS reference
  CntConfig cnt;                ///< CNT-Cache configuration
  /// Fault-injection campaign (default: disabled, zero cost, byte-identical
  /// results to a fault-free build). Baseline-family arrays protect the
  /// data line; the CNT array's codeword also covers its direction bits
  /// when fault.protect_directions is set.
  FaultConfig fault;
  bool with_cmos = true;
  bool with_static = true;
  bool with_ideal = true;

  SimConfig();
};

struct PolicyResult {
  std::string name;
  EnergyLedger ledger;
  bool has_cnt_stats = false;
  CntPolicyStats cnt_stats;
  UpdateQueueStats queue_stats;

  [[nodiscard]] Energy total() const noexcept { return ledger.total(); }
};

struct SimResult {
  std::string workload;
  TraceStats trace_stats;
  CacheStats cache_stats;
  std::vector<PolicyResult> policies;
  bool has_fault = false;   ///< a fault campaign ran for this workload
  FaultStats fault_stats;   ///< campaign tallies (valid when has_fault)

  [[nodiscard]] const PolicyResult* find(std::string_view name) const;
  /// Energy of a policy; throws std::out_of_range if absent.
  [[nodiscard]] Energy energy(std::string_view name) const;
  /// Fractional dynamic-energy saving of `opt` relative to `base`
  /// (0.222 = 22.2% lower).
  [[nodiscard]] double saving(std::string_view opt,
                              std::string_view base = kPolicyBaseline) const;
};

/// Core entry: replay accesses pulled from any TraceSource -- an in-RAM
/// Trace or a chunked on-disk file -- through one cache configuration
/// with all selected policies attached. `init` segments are loaded into
/// memory before replay. The source is rewound first, and accesses are
/// pulled in batches, so a streamed multi-GB trace replays with O(chunk)
/// resident memory and produces a ledger byte-identical to the same
/// accesses replayed from RAM.
[[nodiscard]] SimResult simulate(TraceSource& source,
                                 std::span<const MemorySegment> init,
                                 const SimConfig& cfg);

/// Run one materialized workload (wraps its trace in a VectorTraceSource).
[[nodiscard]] SimResult simulate(const Workload& w, const SimConfig& cfg);

/// Fused replay: run one materialized workload once, through one cache,
/// with the policy sinks of every config attached, and return one result
/// per config in `cfgs` order -- each identical to simulate(w, cfgs[i]).
/// Baseline-family sinks (cnfet_base, and cmos / static_inv / ideal when
/// enabled) are built once per distinct set of constructor arguments and
/// their ledgers copied into every result that shares them. Every config
/// must carry the same CacheConfig, and a config with a fault campaign
/// must be alone (the campaign's RNG is cache-global); otherwise throws
/// std::invalid_argument.
///
/// `threads` is how many threads the replay may use, the calling thread
/// included. With more than one and at least kMinShardedGroup configs,
/// the sinks run on min(threads, sinks) threads over double-buffered
/// batches of events (sim/sink_fanout.hpp), while the calling thread runs
/// the cache into the next batch: helper threads are started for the call
/// and joined before it returns or throws, and the results are the same
/// bytes as with threads = 1. Cancellation is polled on the calling
/// thread only, as in simulate(); a sink's exception on a helper is
/// rethrown on the calling thread.
[[nodiscard]] std::vector<SimResult> simulate_group(
    const Workload& w, std::span<const SimConfig> cfgs, usize threads = 1);

/// Smallest group simulate_group() fans out. The fan-out copies every
/// event into a batch buffer, but the cache pass then overlaps the sinks:
/// from two configs on, that won every measured pair against direct
/// dispatch. A lone config keeps direct dispatch: its two-sink pipeline
/// won on the server trace of `stream_srv` but lost by up to 1.6x on the
/// suite's hit-heavy traces (docs/performance.md, "Fixed-width line
/// copies on the cache thread").
inline constexpr usize kMinShardedGroup = 2;

/// Run the whole default suite. `scale` shrinks the workloads for quick
/// runs (1.0 = full size); `seed_offset` perturbs the generators for
/// statistical replication (0 = canonical instances).
[[nodiscard]] std::vector<SimResult> run_suite(const SimConfig& cfg,
                                               double scale = 1.0,
                                               u64 seed_offset = 0);

}  // namespace cnt
