// perfbench_driver: the measuring half of the repository benchmark
// (perfbench/README.md). It runs one workload, times the calls it makes
// into the simulator's public functions from the outside, and writes the
// raw samples, spans, simulated-output digests and check verdicts as one
// JSON document. perfbench/run.py builds this program, turns the raw
// samples into metrics and compares the digests with perfbench/golden.json.
//
//   perfbench_driver --workload stream_srv|sweep_policy|hier_writeburst
//                    --seed N --seconds S --trace 0|1
//                    --work-dir DIR --out FILE
//
// --trace 0 times the workload's own loop a fixed number of times, sized
// so the timed phase lasts about S seconds on the host the benchmark was
// calibrated on; the count depends on S alone, never on the speed of the
// code, so two builds compared on one S take their best-of-N over the
// same N. --trace 1 instead measures the layer ladder of all three
// workload paths (every per-layer metric is reported by every traced run)
// and the cost of span recording on the named workload's loop, or on all
// three loops for --workload all.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <iterator>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <sys/resource.h>

#include "cache/cache.hpp"
#include "cache/main_memory.hpp"
#include "cnt/baseline_policies.hpp"
#include "cnt/cnt_policy.hpp"
#include "common/cancel.hpp"
#include "common/failpoint.hpp"
#include "common/hash.hpp"
#include "common/json.hpp"
#include "exec/engine.hpp"
#include "exec/options.hpp"
#include "fault/protection.hpp"
#include "sim/hierarchy_runner.hpp"
#include "sim/runner.hpp"
#include "sim/stats_dump.hpp"
#include "trace/gen/server_traffic.hpp"
#include "trace/gen/workloads.hpp"
#include "trace/stream/stream_reader.hpp"
#include "trace/stream/stream_writer.hpp"
#include "trace/stream/trace_source.hpp"
#include "trace/workload_suite.hpp"

using namespace cnt;

namespace {

using Clock = std::chrono::steady_clock;

/// The seed whose simulated outputs perfbench/golden.json pins. Seed 0 is
/// the canonical instance of every generator.
constexpr u64 kGoldenSeed = 0;
/// Instruction fetches between consecutive data accesses in
/// hier_writeburst; the fetch stream is sized to span the whole run.
constexpr usize kCodePerData = 2;
/// srv_writeburst size for hier_writeburst: small enough that one
/// run_hierarchy call lasts tens of milliseconds, so a run collects
/// enough calls for a p95 with ten samples beyond it.
constexpr double kHierScale = 0.25;
/// Timed iterations per second of --seconds, one constant per workload,
/// measured once on a shared 4-vCPU x86-64 host (set-ups included). The
/// iteration count of a run is --seconds times this, so it depends on
/// --seconds alone.
constexpr double kStreamReplaysPerSecond = 8.0;
constexpr double kHierReplaysPerSecond = 16.0;
constexpr double kSweepsPerSecond = 0.8;
/// Suite scale of sweep_policy's jobs. A 1-worker sweep at a quarter of
/// the default suite takes about half as long as a 2-worker sweep at
/// scale 1.0, so a run times each job twice as often, and each job's best
/// time more often falls where co-tenants leave the host alone.
constexpr double kSweepScale = 0.25;
/// Workers of the timed sweep. With one, a run needs one free core of
/// the host and not two: on a shared 4-vCPU host a 2-worker sweep spread
/// about twice as much from run to run as a 1-worker one. The traced
/// run's identity check still runs the sweep on several workers.
constexpr usize kSweepWorkers = 1;
/// Replays per run at least, whatever --seconds says: a p95 needs 200
/// samples to have ten beyond it.
constexpr int kMinReplays = 200;
/// Replays between two timed set-up points of stream_srv and
/// hier_writeburst.
constexpr int kReplaysPerSetup = 5;
/// Set-ups timed back to back at each set-up point of sweep_policy,
/// whose set-up lasts only about a tenth of a millisecond.
constexpr int kSweepSetupRepeats = 50;
/// Ladder rounds per traced run; each round runs every stage once.
constexpr int kLadderRounds = 7;
/// Rounds of the traced sweep's serial pass and 1-worker engine run.
constexpr int kSweepRounds = 4;

const Clock::time_point kEpoch = Clock::now();

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

u64 ns_since_epoch(Clock::time_point t) {
  return static_cast<u64>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t - kEpoch)
          .count());
}

// Same splitmix-style perturbation as the suite generators: seed 0 keeps
// the canonical instance.
u64 mix_seed(u64 base, u64 offset) {
  if (offset == 0) return base;
  u64 z = base + offset * 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  return z ^ (z >> 31);
}

u64 peak_rss_bytes() {
  rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
  return static_cast<u64>(ru.ru_maxrss) * 1024;  // ru_maxrss is in KiB
}

u64 file_size(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  const auto pos = in.tellg();
  return pos < 0 ? 0 : static_cast<u64>(pos);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

// ---------------------------------------------------------------------------
// What one run records. run.py derives every metric from these fields.

struct Span {
  u64 id = 0;
  u64 parent = 0;  ///< 0 = root
  std::string name;
  u64 start_ns = 0;
  u64 end_ns = 0;
  u64 items = 0;  ///< accesses or jobs the span covered
};

/// One timed iteration; its jobs' own times go to Record::job_ms in job
/// order.
struct TimedRun {
  double wall_s = 0;
  u64 accesses = 0;
  u64 jobs = 0;     ///< simulations completed in this iteration
  u64 failed = 0;   ///< failed or quarantined simulations
  u64 workers = 1;  ///< simulations running at once
  std::string digest;
};

/// A workload's simulated outputs at kGoldenSeed.
struct Golden {
  std::string digest;
  std::optional<double> cnt_saving;  ///< where the run has a baseline
};

struct Record {
  std::vector<double> setup_s;
  std::vector<TimedRun> runs;
  std::vector<double> job_ms;
  std::vector<std::pair<std::string, bool>> checks;
  std::map<std::string, Golden> golden;  ///< by workload, at kGoldenSeed
  std::map<std::string, std::vector<double>> samples;
  std::map<std::string, double> counts;
  std::vector<Span> spans;
  u64 peak_rss = 0;

  u64 span(std::string name, u64 parent, Clock::time_point t0,
           Clock::time_point t1, u64 items) {
    spans.push_back({spans.size() + 1, parent, std::move(name),
                     ns_since_epoch(t0), ns_since_epoch(t1), items});
    return spans.size();
  }
};

/// num / den, or 0 for an empty denominator (JSON has no NaN).
double ratio(u64 num, u64 den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

std::string digest_of(const std::string& bytes) {
  return hex_u64(fnv1a64(bytes));
}

/// How many iterations a run of `seconds` makes: a fixed number per
/// second, at least `min_runs`.
int iterations(double seconds, double per_second, int min_runs) {
  const auto n = static_cast<int>(std::lround(seconds * per_second));
  return std::max(min_runs, n);
}

/// The timed phase of an untraced run: `runs` calls of `body`, with a
/// set-up point before the first and before every `setup_every`-th one.
/// A set-up point calls `setup` `setup_repeats` times, each timed into
/// rec.setup_s. Set-ups spread over the whole run see the same host speed
/// swings as the body does. rec.peak_rss is read after the first set-up
/// and `body`: what running the workload once needs, before the heap
/// fragmentation of the benchmark's own repeated set-ups adds to it.
void measure(Record& rec, int runs, int setup_every, int setup_repeats,
             const std::function<void()>& setup,
             const std::function<void()>& body) {
  for (int done = 0; done < runs; ++done) {
    if (done % setup_every == 0) {
      for (int i = 0; i < setup_repeats; ++i) {
        const auto t0 = Clock::now();
        setup();
        rec.setup_s.push_back(seconds_between(t0, Clock::now()));
      }
    }
    body();
    if (done == 0) rec.peak_rss = peak_rss_bytes();
  }
}

// ---------------------------------------------------------------------------
// stream_srv: one streamed CNTTRS replay through simulate().

SimConfig stream_config() {
  SimConfig cfg;
  cfg.with_cmos = cfg.with_static = cfg.with_ideal = false;
  return cfg;
}

gen::ServerTrafficParams stream_params(u64 seed) {
  gen::ServerTrafficParams p;
  p.seed = mix_seed(p.seed, seed);
  return p;
}

/// Ledger rendering with the source name (a file path) normalized away.
std::string stream_fingerprint(SimResult r) {
  r.workload = "stream_srv";
  std::ostringstream os;
  dump_json(r, os);
  return os.str();
}

u64 write_stream_trace(const std::string& path, u64 seed) {
  stream::StreamTraceWriter writer(path);
  const u64 n = gen::generate_server_traffic(stream_params(seed), writer);
  writer.finish();
  return n;
}

SimResult stream_replay(const std::string& path, Record* trace_rec) {
  const auto t0 = Clock::now();
  stream::StreamTraceSource source(path);
  const auto t1 = Clock::now();
  SimResult r = simulate(source, {}, stream_config());
  if (trace_rec != nullptr) {
    const auto t2 = Clock::now();
    const u64 root = trace_rec->span("stream_srv/replay", 0, t0, t2,
                                     r.trace_stats.accesses);
    trace_rec->span("stream_srv/trace.stream.open", root, t0, t1, 0);
    trace_rec->span("stream_srv/sim.simulate", root, t1, t2,
                    r.trace_stats.accesses);
  }
  return r;
}

Golden stream_golden(const std::string& work_dir) {
  const std::string path = work_dir + "/stream_golden.trs";
  (void)write_stream_trace(path, kGoldenSeed);
  const SimResult r = stream_replay(path, nullptr);
  (void)std::remove(path.c_str());
  return {digest_of(stream_fingerprint(r)), r.saving(kPolicyCnt)};
}

/// The streamed ledger must equal the one replayed from RAM.
bool stream_identity(u64 seed, const std::string& streamed_fingerprint) {
  Trace in_ram("stream_srv");
  TraceCollector collect(in_ram);
  (void)gen::generate_server_traffic(stream_params(seed), collect);
  VectorTraceSource source(in_ram);
  return stream_fingerprint(simulate(source, {}, stream_config())) ==
         streamed_fingerprint;
}

void run_stream(u64 seed, double seconds, const std::string& work_dir,
                Record& rec) {
  const std::string path = work_dir + "/stream_srv.trs";
  // The golden pass runs before timing and doubles as its warm-up.
  rec.golden["stream_srv"] = stream_golden(work_dir);
  std::string first_fingerprint;
  const auto setup = [&] { (void)write_stream_trace(path, seed); };
  const int runs = iterations(seconds, kStreamReplaysPerSecond, kMinReplays);
  measure(rec, runs, kReplaysPerSetup, 1, setup, [&] {
    const auto t0 = Clock::now();
    const SimResult r = stream_replay(path, nullptr);
    const double wall = seconds_between(t0, Clock::now());
    std::string fp = stream_fingerprint(r);
    rec.runs.push_back({wall, r.trace_stats.accesses, 1, 0, 1, digest_of(fp)});
    rec.job_ms.push_back(wall * 1e3);
    if (first_fingerprint.empty()) first_fingerprint = std::move(fp);
  });
  rec.checks.emplace_back("stream_identity",
                          stream_identity(seed, first_fingerprint));
  (void)std::remove(path.c_str());
}

/// Counts generator output without storing it (trace.gen.ns).
class CountingSink final : public TraceSink {
 public:
  void push(const MemAccess&) override { ++count_; }
  [[nodiscard]] u64 count() const noexcept { return count_; }

 private:
  u64 count_ = 0;
};

// The replay ladder: each stage adds one layer of simulate()'s set-up and
// inner loop (runner.cpp, replay_batch) on top of the previous one, so
// consecutive differences attribute time per layer. The last stage is a
// copy of simulate() with the default SimConfig; its ledger is checked
// byte for byte against simulate()'s in every round (ladder_identity), so
// the copy cannot drift from the loop it measures without failing the
// run.
enum class Stage { kDecode, kStats, kCache, kBaseline, kCnt };

/// What a ladder pass leaves: the accesses decoded and, for the last
/// stage, the result simulate() would return.
struct LadderOut {
  u64 seen = 0;
  SimResult result;
};

template <Stage kStage>
LadderOut ladder_pass(const std::string& path, const SimConfig& cfg) {
  stream::StreamTraceSource source(path);
  MainMemory memory;
  memory.load({});
  Cache cache(cfg.cache, memory);
  const ArrayGeometry geom = geometry_of(cfg.cache);
  const ProtectionSpec data_prot =
      make_protection_spec(cfg.fault.protection, geom.line_bits(),
                           cfg.cnt.partitions, /*include_directions=*/false);
  const ProtectionSpec cnt_prot = make_protection_spec(
      cfg.fault.protection, geom.line_bits(), cfg.cnt.partitions,
      cfg.fault.protect_directions);
  ArrayGeometry data_geom = geom;
  data_geom.meta_bits += data_prot.check_bits;
  ArrayGeometry cnt_geom = geom;
  cnt_geom.meta_bits += cnt_prot.check_bits;
  PlainPolicy baseline(std::string(kPolicyBaseline), cfg.tech, data_geom,
                       cfg.cnt.write_granularity);
  CntPolicy cnt_policy(std::string(kPolicyCnt), cfg.tech, cnt_geom, cfg.cnt);
  baseline.set_protection(data_prot);
  cnt_policy.set_protection(cnt_prot);
  cnt_policy.attach_direction_hook(nullptr);
  if constexpr (kStage >= Stage::kBaseline) cache.add_sink(baseline);
  if constexpr (kStage >= Stage::kCnt) cache.add_sink(cnt_policy);

  source.reset();
  TraceStatsAccumulator stats;
  std::vector<MemAccess> batch(4096);
  const u64 line_mask = ~static_cast<u64>(cfg.cache.line_bytes - 1);
  const bool warm_sets = cfg.cache.size_bytes > (usize{1} << 21);
  constexpr usize kPrefetchDistance = 8;
  LadderOut out;
  for (;;) {
    cancel::throw_if_cancelled("sim.replay");
    const usize got = source.next(batch);
    if (got == 0) break;
    out.seen += got;
    if constexpr (kStage == Stage::kDecode) continue;
    for (usize i = 0; i < got; ++i) {
      if constexpr (kStage >= Stage::kCache) {
        if (i + kPrefetchDistance < got) {
          const u64 ahead = batch[i + kPrefetchDistance].addr;
          if (warm_sets) cache.prefetch(ahead);
          memory.prefetch_line(ahead & line_mask, cfg.cache.line_bytes);
        }
      }
      stats.feed(batch[i]);
      if constexpr (kStage >= Stage::kCache) {
        MemAccess routed = batch[i];
        if (routed.op == MemOp::kIFetch) routed.op = MemOp::kRead;
        cache.access(routed);
      }
    }
  }
  if constexpr (kStage == Stage::kCnt) {
    SimResult& r = out.result;
    r.workload = source.name();
    r.trace_stats = stats.finish();
    r.cache_stats = cache.stats();
    PolicyResult base;
    base.name = baseline.name();
    base.ledger = baseline.ledger();
    r.policies.push_back(std::move(base));
    PolicyResult cnt;
    cnt.name = cnt_policy.name();
    cnt.ledger = cnt_policy.ledger();
    cnt.has_cnt_stats = true;
    cnt.cnt_stats = cnt_policy.stats();
    cnt.queue_stats = cnt_policy.queue_stats();
    r.policies.push_back(std::move(cnt));
  }
  return out;
}

void stream_layers(u64 seed, const std::string& work_dir, Record& rec) {
  const std::string path = work_dir + "/stream_srv.trs";
  for (int i = 0; i < kLadderRounds; ++i) {
    const auto t0 = Clock::now();
    CountingSink counter;
    (void)gen::generate_server_traffic(stream_params(seed), counter);
    const auto t1 = Clock::now();
    const u64 n = write_stream_trace(path, seed);
    const auto t2 = Clock::now();
    rec.span("stream_srv/trace.gen", 0, t0, t1, counter.count());
    rec.span("stream_srv/trace.gen+write", 0, t1, t2, n);
  }
  const SimConfig cfg = stream_config();
  using Pass = LadderOut (*)(const std::string&, const SimConfig&);
  const std::pair<const char*, Pass> passes[] = {
      {"stream_srv/ladder.decode", &ladder_pass<Stage::kDecode>},
      {"stream_srv/ladder.stats", &ladder_pass<Stage::kStats>},
      {"stream_srv/ladder.cache", &ladder_pass<Stage::kCache>},
      {"stream_srv/ladder.baseline", &ladder_pass<Stage::kBaseline>},
      {"stream_srv/ladder.cnt", &ladder_pass<Stage::kCnt>}};
  SimResult result;
  bool ladder_identity = true;
  for (int i = 0; i < kLadderRounds; ++i) {
    const auto start = Clock::now();
    const u64 round = rec.span("stream_srv/ladder", 0, start, start, 0);
    SimResult full;
    for (const auto& [name, pass] : passes) {
      const auto t0 = Clock::now();
      LadderOut out = pass(path, cfg);
      rec.span(name, round, t0, Clock::now(), out.seen);
      full = std::move(out.result);  // the last stage's is kept
    }
    const auto t0 = Clock::now();
    stream::StreamTraceSource source(path);
    result = simulate(source, {}, cfg);
    const auto t1 = Clock::now();
    rec.span("stream_srv/ladder.simulate", round, t0, t1,
             result.trace_stats.accesses);
    rec.spans[round - 1].end_ns = ns_since_epoch(t1);  // close the round
    ladder_identity = ladder_identity && stream_fingerprint(full) ==
                                            stream_fingerprint(result);
  }
  rec.checks.emplace_back("ladder_identity", ladder_identity);
  const CacheStats& cs = result.cache_stats;
  rec.counts["cache.miss_ratio"] = ratio(cs.misses(), cs.accesses);
  rec.counts["trace.stream.bytes_per_access"] =
      ratio(file_size(path), result.trace_stats.accesses);

  rec.checks.emplace_back(
      "stream_identity", stream_identity(seed, stream_fingerprint(result)));
  rec.golden["stream_srv"] = stream_golden(work_dir);
  (void)std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// sweep_policy: W x K over the default suite through ExperimentEngine.

const std::vector<usize> kWindows = {3, 5, 7, 11, 15, 21, 31, 47, 63};
const std::vector<usize> kPartitions = {1, 2, 4, 8};

std::vector<exec::Job> sweep_jobs(u64 seed) {
  SimConfig base;
  base.with_cmos = base.with_static = base.with_ideal = false;
  exec::SweepSpec spec;
  spec.base(base)
      .scale(kSweepScale)
      .suite()
      .seed_offsets({seed})
      .axis("window", kWindows,
            [](SimConfig& cfg, usize w) { cfg.cnt.window = w; })
      .axis("partitions", kPartitions,
            [](SimConfig& cfg, usize k) { cfg.cnt.partitions = k; });
  return spec.expand();
}

struct SweepTotals {
  u64 accesses = 0;
  u64 failed = 0;
  std::string digest;
  double cnt_saving = 0;  ///< mean over the suite at W=15, K=8
};

SweepTotals sweep_totals(const std::vector<exec::JobOutcome>& outcomes) {
  SweepTotals t;
  std::ostringstream os;
  double saving_sum = 0;
  usize saving_n = 0;
  for (const auto& o : outcomes) {
    os << o.job.tag << ' ' << o.ok << '\n';
    if (!o.ok || o.quarantined) {
      ++t.failed;
      os << o.error << '\n';
      continue;
    }
    t.accesses += o.result.trace_stats.accesses;
    dump_json(o.result, os);
    if (o.job.config.cnt.window == 15 && o.job.config.cnt.partitions == 8) {
      saving_sum += o.result.saving(kPolicyCnt);
      ++saving_n;
    }
  }
  t.digest = digest_of(os.str());
  t.cnt_saving =
      saving_n == 0 ? 0.0 : saving_sum / static_cast<double>(saving_n);
  return t;
}

exec::EngineOptions sweep_options(usize workers, const std::string& jsonl,
                                  bool timing) {
  exec::EngineOptions opts;
  opts.jobs = workers;
  opts.jsonl_path = jsonl;
  opts.jsonl_timing = timing;
  return opts;
}

Golden sweep_golden(usize workers, const std::string& work_dir) {
  const std::string jsonl = work_dir + "/sweep_golden.jsonl";
  const exec::ExperimentEngine engine(sweep_options(workers, jsonl, true));
  const SweepTotals t = sweep_totals(engine.run(sweep_jobs(kGoldenSeed)));
  (void)std::remove(jsonl.c_str());
  return {t.failed == 0 ? t.digest : "failed", t.cnt_saving};
}

struct SweepRun {
  double wall_s = 0;
  std::vector<exec::JobOutcome> outcomes;
};

SweepRun sweep_once(const exec::ExperimentEngine& engine,
                    const std::vector<exec::Job>& jobs, Record* trace_rec) {
  std::vector<exec::Job> batch = jobs;
  const auto t0 = Clock::now();
  SweepRun run{0, engine.run(std::move(batch))};
  const auto t1 = Clock::now();
  run.wall_s = seconds_between(t0, t1);
  if (trace_rec != nullptr) {
    trace_rec->span("sweep_policy/exec.run", 0, t0, t1, run.outcomes.size());
  }
  return run;
}

void run_sweep(u64 seed, double seconds, const std::string& work_dir,
               Record& rec) {
  const usize workers = kSweepWorkers;
  // The golden pass runs before timing and doubles as its warm-up.
  rec.golden["sweep_policy"] = sweep_golden(workers, work_dir);
  std::vector<exec::Job> jobs;
  std::optional<exec::ExperimentEngine> engine;
  const auto setup = [&] {
    jobs = sweep_jobs(seed);
    engine.emplace(sweep_options(workers, work_dir + "/sweep.jsonl", true));
  };
  const int sweeps = iterations(seconds, kSweepsPerSecond, 1);
  measure(rec, sweeps, 1, kSweepSetupRepeats, setup, [&] {
    const SweepRun run = sweep_once(*engine, jobs, nullptr);
    const SweepTotals t = sweep_totals(run.outcomes);
    rec.runs.push_back({run.wall_s, t.accesses, run.outcomes.size(), t.failed,
                        workers, t.digest});
    for (const auto& o : run.outcomes) rec.job_ms.push_back(o.wall_ms);
  });
}

void sweep_layers(u64 seed, usize workers, const std::string& work_dir,
                  Record& rec) {
  const std::vector<exec::Job> jobs = sweep_jobs(seed);
  // One engine pass with JSONL timing off; returns the journal's bytes.
  const auto engine_pass = [&](const std::string& tag, usize n) {
    const std::string jsonl = work_dir + "/sweep_" + tag + ".jsonl";
    const exec::ExperimentEngine engine(sweep_options(n, jsonl, false));
    std::vector<exec::Job> batch = jobs;
    const auto t0 = Clock::now();
    const std::vector<exec::JobOutcome> outcomes = engine.run(std::move(batch));
    rec.span("sweep_policy/exec.run." + tag, 0, t0, Clock::now(),
             outcomes.size());
    std::vector<double>& ms = rec.samples["exec.job_ms." + tag];
    for (const auto& o : outcomes) ms.push_back(o.wall_ms);
    std::string journal = read_file(jsonl);
    (void)std::remove(jsonl.c_str());
    return journal;
  };
  // The two halves of every job called directly, alternated with the
  // 1-worker engine over the same jobs so host noise hits both alike;
  // run.py takes each job's best time over the rounds. A direct job ends
  // after its Workload is freed, as the engine's does, and the direct
  // calls run on a thread of their own, as the engine's jobs do, so both
  // allocate from a worker thread's heap arena, not the main thread's.
  u64 windows = 0, reencodes = 0, pushed = 0, dropped = 0;
  std::string journal_1;
  const auto direct_pass = [&](int round) {
    for (const exec::Job& job : jobs) {
      Clock::time_point t1, t2;
      u64 generated = 0;
      SimResult r;
      const auto t0 = Clock::now();
      {
        const Workload w =
            build_workload(job.workload, job.scale, job.seed_offset);
        t1 = Clock::now();
        r = simulate(w, job.config);
        t2 = Clock::now();
        generated = w.trace.size();
      }
      const u64 parent = rec.span("sweep_policy/job", 0, t0, Clock::now(), 1);
      rec.span("sweep_policy/trace.gen", parent, t0, t1, generated);
      rec.span("sweep_policy/sim.replay", parent, t1, t2,
               r.trace_stats.accesses);
      if (round > 0) continue;
      const PolicyResult* p = r.find(kPolicyCnt);
      windows += p->cnt_stats.windows_evaluated;
      reencodes += p->cnt_stats.reencodes_applied;
      pushed += p->queue_stats.pushed;
      dropped += p->queue_stats.dropped_full;
    }
  };
  for (int round = 0; round < kSweepRounds; ++round) {
    std::thread direct(direct_pass, round);
    direct.join();
    journal_1 = engine_pass("serial", 1);
  }
  // N workers, timing off: the journal must match the 1-worker one byte
  // for byte.
  const std::string journal_n = engine_pass("parallel", workers);
  rec.golden["sweep_policy"] = sweep_golden(workers, work_dir);
  rec.counts["cnt.reencode_ratio"] = ratio(reencodes, windows);
  rec.counts["cnt.fifo_drop_ratio"] = ratio(dropped, pushed);
  rec.counts["exec.journal_bytes_per_job"] =
      ratio(journal_n.size(), jobs.size());
  rec.checks.emplace_back("jsonl_identity",
                          !journal_1.empty() && journal_1 == journal_n);
}

// ---------------------------------------------------------------------------
// hier_writeburst: ifetch + srv_writeburst through run_hierarchy.

struct HierInput {
  Trace stream;
  std::vector<MemorySegment> init;
};

HierInput hier_input(u64 seed) {
  const Workload data = build_workload("srv_writeburst", kHierScale, seed);
  gen::IFetchParams ip;
  ip.fetches = data.trace.size() * kCodePerData;
  ip.seed = mix_seed(ip.seed, seed);
  const Workload code = gen::ifetch_stream(ip);
  HierInput in{interleave(code.trace, data.trace, kCodePerData), code.init};
  in.init.insert(in.init.end(), data.init.begin(), data.init.end());
  return in;
}

HierarchyRunConfig hier_config(bool cnt_at_l1, bool cnt_at_l2) {
  HierarchyRunConfig cfg;
  cfg.cnt_at_l1i = cfg.cnt_at_l1d = cnt_at_l1;
  cfg.cnt_at_l2 = cnt_at_l2;
  // As in bench_fig_hierarchy's L1+L2 row: L2 lines see little reuse, so
  // L2 fills are encoded for the cheap write.
  cfg.l2_cnt.fill_policy = FillDirectionPolicy::kMinWriteEnergy;
  return cfg;
}

std::string hier_digest(const HierarchyRunResult& r) {
  Fnv1a64 h;
  for (const LevelResult& l : r.levels) {
    h.update(l.level).update(l.adaptive);
    for (usize c = 0; c < static_cast<usize>(EnergyCategory::kCount); ++c) {
      const auto cat = static_cast<EnergyCategory>(c);
      h.update(l.ledger.get(cat).in_joules()).update(l.ledger.count(cat));
    }
    const CacheStats& s = l.stats;
    for (const u64 v : {s.accesses, s.read_hits, s.read_misses, s.write_hits,
                        s.write_misses, s.write_arounds, s.fills, s.evictions,
                        s.writebacks}) {
      h.update(v);
    }
  }
  h.update(r.dram_energy.in_joules());
  return hex_u64(h.digest());
}

HierarchyRunResult hier_replay(const HierInput& in,
                               const HierarchyRunConfig& cfg) {
  VectorTraceSource source(in.stream);
  return run_hierarchy(cfg, source, in.init);
}

Golden hier_golden() {
  const HierarchyRunResult r =
      hier_replay(hier_input(kGoldenSeed), hier_config(true, true));
  return {hier_digest(r), std::nullopt};
}

void run_hier(u64 seed, double seconds, Record& rec) {
  // The golden pass runs before timing and doubles as its warm-up.
  rec.golden["hier_writeburst"] = hier_golden();
  HierInput in;
  const HierarchyRunConfig cfg = hier_config(true, true);
  const auto setup = [&] {
    in = {};  // free the previous input first: it is not part of the peak
    in = hier_input(seed);
  };
  const int runs = iterations(seconds, kHierReplaysPerSecond, kMinReplays);
  measure(rec, runs, kReplaysPerSetup, 1, setup, [&] {
    const auto t0 = Clock::now();
    const HierarchyRunResult r = hier_replay(in, cfg);
    const double wall = seconds_between(t0, Clock::now());
    rec.runs.push_back({wall, in.stream.size(), 1, 0, 1, hier_digest(r)});
    rec.job_ms.push_back(wall * 1e3);
  });
}

void hier_layers(u64 seed, Record& rec) {
  const HierInput in = hier_input(seed);
  struct Pass {
    const char* name;
    HierarchyRunConfig cfg;
  };
  const Pass passes[] = {
      {"hier_writeburst/cnt_all", hier_config(true, true)},
      {"hier_writeburst/cnt_l1_off", hier_config(false, true)},
      {"hier_writeburst/cnt_l2_off", hier_config(true, false)}};
  HierarchyRunResult full;
  for (int i = 0; i < kLadderRounds; ++i) {
    for (const Pass& p : passes) {
      const auto t0 = Clock::now();
      HierarchyRunResult r = hier_replay(in, p.cfg);
      rec.span(p.name, 0, t0, Clock::now(), in.stream.size());
      if (&p == &passes[0]) full = std::move(r);
    }
  }
  const LevelResult& l1d = full.level("L1D");
  const LevelResult& l2 = full.level("L2");
  rec.counts["cache.writebacks_per_kacc"] =
      1e3 * ratio(l1d.stats.writebacks, l1d.stats.accesses);
  rec.counts["cache.l2_miss_ratio"] =
      ratio(l2.stats.misses(), l2.stats.accesses);
  rec.golden["hier_writeburst"] = hier_golden();
}

// ---------------------------------------------------------------------------
// Tracing overhead: a workload's loop with and without span recording,
// alternated so host noise hits both halves alike. Samples are kept per
// workload; run.py compares each untraced iteration with the traced one
// after it.

void tracing_overhead(const std::string& workload, u64 seed, int pairs,
                      const std::string& work_dir, Record& rec) {
  std::function<void(Record*)> body;
  std::string path;
  std::optional<HierInput> hier;
  std::vector<exec::Job> jobs;
  std::optional<exec::ExperimentEngine> engine;
  if (workload == "stream_srv") {
    path = work_dir + "/stream_overhead.trs";
    (void)write_stream_trace(path, seed);
    body = [&](Record* r) { (void)stream_replay(path, r); };
  } else if (workload == "sweep_policy") {
    jobs = sweep_jobs(seed);
    engine.emplace(
        sweep_options(kSweepWorkers, work_dir + "/sweep.jsonl", true));
    body = [&](Record* r) { (void)sweep_once(*engine, jobs, r); };
  } else {
    hier = hier_input(seed);
    const HierarchyRunConfig cfg = hier_config(true, true);
    body = [&, cfg](Record* r) {
      const auto t0 = Clock::now();
      (void)hier_replay(*hier, cfg);
      if (r != nullptr) {
        r->span("hier_writeburst/sim.run_hierarchy", 0, t0, Clock::now(),
                hier->stream.size());
      }
    };
  }
  std::vector<double>& plain = rec.samples["tracing.untraced_s." + workload];
  std::vector<double>& traced = rec.samples["tracing.traced_s." + workload];
  for (int i = 0; i < pairs; ++i) {
    auto t0 = Clock::now();
    body(nullptr);
    plain.push_back(seconds_between(t0, Clock::now()));
    t0 = Clock::now();
    body(&rec);
    traced.push_back(seconds_between(t0, Clock::now()));
  }
  if (!path.empty()) (void)std::remove(path.c_str());
}

/// Untraced/traced pairs for the tracing overhead of a workload: half of
/// `seconds` at the workload's iteration rate, each pair being two
/// iterations.
int overhead_pairs(const std::string& workload, double seconds) {
  double per_second = kHierReplaysPerSecond;
  if (workload == "stream_srv") per_second = kStreamReplaysPerSecond;
  if (workload == "sweep_policy") per_second = kSweepsPerSecond;
  return iterations(seconds / 4, per_second, 3);
}

// ---------------------------------------------------------------------------

void write_record(std::ostream& os, const std::string& workload, u64 seed,
                  bool trace, usize parallel_workers,
                  const std::string& refused, const Record& rec) {
  JsonWriter j(os, 0);
  j.begin_object();
  j.kv("schema", "perfbench-raw-v1");
  j.kv("workload", workload);
  j.kv("seed", seed);
  j.kv("trace", trace);
  j.kv("golden_seed", kGoldenSeed);
  j.key("env").begin_object();
  j.kv("nproc", static_cast<u64>(std::thread::hardware_concurrency()));
  j.kv("workers", static_cast<u64>(kSweepWorkers));
  j.kv("parallel_workers", static_cast<u64>(parallel_workers));
  j.kv("build_type", PERFBENCH_BUILD_TYPE);
#if defined(__OPTIMIZE__)
  j.kv("optimized", true);
#else
  j.kv("optimized", false);
#endif
  j.kv("failpoints_enabled", fp::enabled());
  j.kv("job_timeout_armed", exec::job_timeout_from_env(0) != 0);
  j.end_object();
  j.kv("refused", refused);
  j.key("setup_s").begin_array();
  for (const double v : rec.setup_s) j.value(v);
  j.end_array();
  j.key("runs").begin_array();
  for (const TimedRun& r : rec.runs) {
    j.begin_object();
    j.kv("wall_s", r.wall_s);
    j.kv("accesses", r.accesses);
    j.kv("jobs", r.jobs);
    j.kv("failed", r.failed);
    j.kv("workers", r.workers);
    j.kv("digest", r.digest);
    j.end_object();
  }
  j.end_array();
  j.key("job_ms").begin_array();
  for (const double v : rec.job_ms) j.value(v);
  j.end_array();
  j.kv("peak_rss_bytes", rec.peak_rss);
  j.key("checks").begin_object();
  for (const auto& [name, ok] : rec.checks) j.kv(name, ok);
  j.end_object();
  j.key("golden").begin_object();
  for (const auto& [name, g] : rec.golden) {
    j.key(name).begin_object();
    j.kv("digest", g.digest);
    if (g.cnt_saving) j.kv("cnt_saving", *g.cnt_saving);
    j.end_object();
  }
  j.end_object();
  j.key("samples").begin_object();
  for (const auto& [name, values] : rec.samples) {
    j.key(name).begin_array();
    for (const double v : values) j.value(v);
    j.end_array();
  }
  j.end_object();
  j.key("counts").begin_object();
  for (const auto& [name, v] : rec.counts) j.kv(name, v);
  j.end_object();
  j.key("spans").begin_array();
  for (const Span& s : rec.spans) {
    j.begin_object();
    j.kv("id", s.id);
    j.kv("parent", s.parent);
    j.kv("name", s.name);
    j.kv("start_ns", s.start_ns);
    j.kv("end_ns", s.end_ns);
    j.kv("items", s.items);
    j.end_object();
  }
  j.end_array();
  j.end_object();
  os << '\n';
}

std::string arg_value(int argc, char** argv, const std::string& flag) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (argv[i] == flag) return argv[i + 1];
  }
  throw std::invalid_argument("missing " + flag);
}

/// Why this process must not measure, or "" when it may: perf numbers
/// taken with failpoints armed, the job watchdog armed, or without
/// optimization are not comparable (as scripts/check_regression.py
/// refuses such BENCH documents).
std::string refusal() {
#if !defined(__OPTIMIZE__)
  return "non-optimised build";
#endif
  if (fp::enabled()) return "failpoints armed (CNT_FAILPOINTS)";
  if (exec::job_timeout_from_env(0) != 0) {
    return "job watchdog armed (CNT_JOB_TIMEOUT_MS)";
  }
  return "";
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const std::string workload = arg_value(argc, argv, "--workload");
    const u64 seed = std::stoull(arg_value(argc, argv, "--seed"));
    const double seconds = std::stod(arg_value(argc, argv, "--seconds"));
    const bool trace = arg_value(argc, argv, "--trace") == "1";
    const std::string work_dir = arg_value(argc, argv, "--work-dir");
    const std::string out_path = arg_value(argc, argv, "--out");
    const std::vector<std::string> all = {"stream_srv", "sweep_policy",
                                          "hier_writeburst"};
    if (std::find(all.begin(), all.end(), workload) == all.end() &&
        !(trace && workload == "all")) {
      throw std::invalid_argument("unknown workload: " + workload);
    }
    // The traced run's N-worker sweep: fewer workers than CPUs, so the
    // driver's own thread and the host keep a core.
    const usize nproc = std::max(1u, std::thread::hardware_concurrency());
    const usize parallel_workers = std::clamp<usize>(nproc - 1, 1, 2);

    Record rec;
    const std::string refused = refusal();
    if (refused.empty() && !trace) {
      if (workload == "stream_srv") run_stream(seed, seconds, work_dir, rec);
      if (workload == "sweep_policy") {
        run_sweep(seed, seconds, work_dir, rec);
      }
      if (workload == "hier_writeburst") run_hier(seed, seconds, rec);
    } else if (refused.empty()) {
      stream_layers(seed, work_dir, rec);
      sweep_layers(seed, parallel_workers, work_dir, rec);
      hier_layers(seed, rec);
      // --workload all splits the overhead measurement over all three.
      const std::vector<std::string> named =
          workload == "all" ? all : std::vector<std::string>{workload};
      for (const std::string& w : named) {
        tracing_overhead(w, seed,
                         overhead_pairs(w, seconds / double(named.size())),
                         work_dir, rec);
      }
      rec.peak_rss = peak_rss_bytes();
    }
    std::ofstream out(out_path, std::ios::binary | std::ios::trunc);
    write_record(out, workload, seed, trace, parallel_workers, refused, rec);
    out.flush();
    if (!out) throw std::runtime_error("cannot write " + out_path);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_driver: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
