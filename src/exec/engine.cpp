#include "exec/engine.hpp"

#include <algorithm>
#include <chrono>
#include <iostream>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <utility>

#include "common/cancel.hpp"
#include "common/error.hpp"
#include "common/failpoint.hpp"
#include "common/hash.hpp"
#include "exec/interrupt.hpp"
#include "exec/journal.hpp"
#include "exec/options.hpp"
#include "exec/progress.hpp"
#include "exec/thread_pool.hpp"
#include "exec/watchdog.hpp"
#include "trace/workload_suite.hpp"

namespace cnt::exec {

SweepInterrupted::SweepInterrupted(usize completed, usize total,
                                   std::string journal_path)
    : std::runtime_error("sweep interrupted after " +
                         std::to_string(completed) + "/" +
                         std::to_string(total) + " jobs"),
      completed_(completed),
      total_(total),
      journal_path_(std::move(journal_path)) {}

namespace {

/// The engine.job failpoint, checked once at the start of every attempt.
/// Torture-harness hook (docs/crash_consistency.md): an armed check
/// injects a transient job failure (exercising the retry path) or kills
/// the process mid-sweep. Returns the failed outcome when it fires.
std::optional<JobOutcome> check_job_failpoint(const Job& job) noexcept {
  JobOutcome out;
  out.job = job;
  switch (fp::check("engine.job")) {
    case fp::Action::kErrorEnospc:
    case fp::Action::kErrorEio:
    case fp::Action::kShortWrite:
      out.error = "failpoint: injected transient job failure (engine.job)";
      out.errc = "io";
      return out;
    case fp::Action::kCancelled: {
      // A `hang` failpoint parked here until this attempt's token fired
      // (watchdog timeout or explicit cancel) -- the chaos wall's
      // torture case for the quarantine path.
      cancel::Token* token = cancel::current();
      const cancel::Reason reason =
          token != nullptr ? token->reason() : cancel::Reason::kCancel;
      const Error e = cancel::cancelled_error(reason, "engine.job");
      out.error = e.what();
      out.errc = errc_name(e.code());
      return out;
    }
    case fp::Action::kNone:
      break;
  }
  return std::nullopt;
}

/// The rest of an attempt once the failpoint has passed: build the
/// workload, simulate, capture any exception.
JobOutcome simulate_job(const Job& job) noexcept {
  JobOutcome out;
  out.job = job;
  const auto t0 = std::chrono::steady_clock::now();
  try {
    const Workload w = build_workload(job.workload, job.scale,
                                      job.seed_offset);
    out.result = simulate(w, job.config);
    out.ok = true;
  } catch (const std::exception& e) {
    out.error = e.what();
    const auto* taxonomy = dynamic_cast<const ErrorBase*>(&e);
    out.errc = taxonomy != nullptr
                   ? std::string(errc_name(taxonomy->info().code))
                   : "internal";
  } catch (...) {
    out.error = "unknown exception";
    out.errc = "internal";
  }
  const auto t1 = std::chrono::steady_clock::now();
  out.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  return out;
}

/// Run `fn` as one watched attempt: a fresh cancellation token installed
/// thread-locally (the replay loops, StreamTraceSource refill and the
/// failpoint `hang` park all observe it), armed on the watchdog when one
/// is running. Returns the token's reason once `fn` is done.
template <typename Fn>
cancel::Reason watched(Watchdog* watchdog, Fn&& fn) {
  const auto token = std::make_shared<cancel::Token>();
  const cancel::ScopedToken scope(*token);
  std::optional<Watchdog::Guard> guard;
  if (watchdog != nullptr) guard.emplace(watchdog->watch(token));
  std::forward<Fn>(fn)();
  return token->reason();
}

/// One watched attempt of `runner`. Marks the outcome timed_out when the
/// watchdog fired.
JobOutcome run_attempt(const Job& job, const JobRunner& runner,
                       Watchdog* watchdog) {
  JobOutcome out;
  const cancel::Reason reason = watched(watchdog, [&] { out = runner(job); });
  out.timed_out = !out.ok && reason == cancel::Reason::kTimeout;
  return out;
}

/// The retry loop of run_job_with_retry(), after a first attempt that
/// produced `out`.
JobOutcome retry_after(const Job& job, JobOutcome out, u32 max_retries,
                       u32 backoff_ms, const JobRunner& runner,
                       Watchdog* watchdog) {
  std::vector<std::string> attempt_errcs;
  bool interrupted = false;
  out.attempts = 1;
  for (u32 retry = 1; retry <= max_retries && !out.ok; ++retry) {
    // A timed-out attempt already burned a full --job-timeout-ms budget
    // and a hung job rarely unhangs: quarantine now, do not retry.
    if (out.timed_out) break;
    // A pending interrupt outranks the retry budget: return the failure
    // now so the engine can drain and flush.
    if (interrupt_requested()) {
      interrupted = true;
      break;
    }
    if (backoff_ms > 0) {
      const u64 delay = std::min<u64>(
          static_cast<u64>(backoff_ms) << (retry - 1), u64{5000});
      // Interruptible backoff: a SIGINT/SIGTERM mid-wait drains within
      // one wait slice instead of sleeping out the full exponential
      // delay (up to 5 s) with the signal pending.
      const cancel::Token pause;
      if (pause.wait_ms(delay, [] { return interrupt_requested(); })) {
        interrupted = true;
        break;
      }
    }
    // This attempt's failure is final only in aggregate: record it and
    // spend a retry. The last attempt's errc is appended below.
    attempt_errcs.push_back(out.errc.empty() ? "internal" : out.errc);
    const u32 attempts_so_far = out.attempts;
    out = run_attempt(job, runner, watchdog);
    out.attempts = attempts_so_far + 1;
  }
  if (!out.ok) {
    attempt_errcs.push_back(out.errc.empty() ? "internal" : out.errc);
    out.attempt_errcs = std::move(attempt_errcs);
    if (out.timed_out) {
      out.quarantined = true;
      out.quarantine_reason = "timeout";
    } else if (!interrupted) {
      // The retry budget is spent and nothing external cut the loop
      // short: the failure is final, quarantine it so the sweep
      // completes deterministically without this job.
      out.quarantined = true;
      out.quarantine_reason = "retries";
    }
  }
  return out;
}

/// One fused attempt over jobs that share a functional key: build the
/// workload once, replay it once through simulate_group(), and split the
/// results into per-job outcomes, each charged an equal share of the
/// attempt's wall time so the shares still sum to the time spent. Empty
/// when the attempt threw or was cancelled: the members then take the
/// per-job path. The replay may use `threads` threads (simulate_group).
std::vector<JobOutcome> run_group(const std::vector<Job>& jobs,
                                  const std::vector<usize>& members,
                                  Watchdog* watchdog, usize threads) {
  std::vector<JobOutcome> outs;
  (void)watched(watchdog, [&] {
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<SimResult> results;
    try {
      const Job& lead = jobs[members.front()];
      const Workload w =
          build_workload(lead.workload, lead.scale, lead.seed_offset);
      std::vector<SimConfig> cfgs;
      cfgs.reserve(members.size());
      for (const usize i : members) cfgs.push_back(jobs[i].config);
      results = simulate_group(w, cfgs, threads);
    } catch (...) {
      return;
    }
    const auto t1 = std::chrono::steady_clock::now();
    const double share =
        std::chrono::duration<double, std::milli>(t1 - t0).count() /
        static_cast<double>(members.size());
    outs.resize(members.size());
    for (usize k = 0; k < members.size(); ++k) {
      outs[k].job = jobs[members[k]];
      outs[k].ok = true;
      outs[k].wall_ms = share;
      outs[k].result = std::move(results[k]);
    }
  });
  return outs;
}

/// Split the jobs left to run into units of work, in order of each
/// unit's first member: one fused group per functional key, and a unit
/// of one for a job without a key (fault campaign armed) or whose
/// failpoint already fired.
std::vector<std::vector<usize>> plan_units(
    const std::vector<Job>& jobs, const std::vector<char>& replayed,
    const std::vector<std::optional<JobOutcome>>& gated) {
  std::vector<std::vector<usize>> units;
  std::unordered_map<u64, usize> unit_of_key;
  for (usize i = 0; i < jobs.size(); ++i) {
    if (replayed[i] != 0) continue;
    const std::optional<u64> key =
        gated[i].has_value() ? std::nullopt : functional_key(jobs[i]);
    if (!key.has_value()) {
      units.push_back({i});
      continue;
    }
    const auto [it, fresh] = unit_of_key.try_emplace(*key, units.size());
    if (fresh) units.emplace_back();
    units[it->second].push_back(i);
  }
  return units;
}

}  // namespace

JobOutcome run_job(const Job& job) noexcept {
  if (std::optional<JobOutcome> failed = check_job_failpoint(job)) {
    return std::move(*failed);
  }
  return simulate_job(job);
}

JobOutcome run_job_with_retry(const Job& job, u32 max_retries, u32 backoff_ms,
                              const JobRunner& runner, Watchdog* watchdog) {
  return retry_after(job, run_attempt(job, runner, watchdog), max_retries,
                     backoff_ms, runner, watchdog);
}

ExperimentEngine::ExperimentEngine(EngineOptions opts)
    : opts_(std::move(opts)),
      workers_(resolve_jobs(opts_.jobs)),
      retries_(resolve_retries(opts_.max_retries)),
      timeout_ms_(resolve_job_timeout(opts_.job_timeout_ms)) {}

std::vector<JobOutcome> ExperimentEngine::run(std::vector<Job> jobs) const {
  // The engine owns the id space: dense submission-order ids anchor both
  // the returned vector's order and the sink's reorder guarantee.
  for (usize i = 0; i < jobs.size(); ++i) jobs[i].id = static_cast<u64>(i);
  const u64 fp = sweep_fingerprint(jobs);

  // Load the prior journal (if resuming) BEFORE the sink truncates
  // <path>.partial.
  std::unordered_map<u64, const JournalRow*> replayable;
  JournalData journal;
  if (opts_.resume && !opts_.jsonl_path.empty()) {
    journal = load_journal(opts_.jsonl_path);
    if (journal.header_ok && journal.fingerprint != fp) {
      throw Error(Errc::kSchema,
                  "--resume: journal " + journal.source_path +
                      " records sweep " + hex_u64(journal.fingerprint) +
                      " but this sweep is " + hex_u64(fp))
          .at(journal.source_path)
          .hint("delete the stale journal or rerun without --resume");
    }
    // A torn tail is the normal crash signature and resume truncates it;
    // a row that fails its CRC *with intact rows after it* means the file
    // was damaged in place, and replaying around the hole would silently
    // drop results -- refuse instead.
    if (auto corrupt = journal_corruption_error(journal)) {
      throw std::move(*corrupt).context("--resume");
    }
    if (journal.header_ok) {
      for (const JournalRow& row : journal.rows) {
        // Only completed rows of a still-matching job are replayable;
        // failed rows get a fresh attempt.
        if (!row.ok || row.job_id >= jobs.size()) continue;
        if (row.key != job_key(jobs[row.job_id])) continue;
        replayable[row.job_id] = &row;
      }
    }
  }

  if (opts_.handle_signals) install_signal_handlers();
  const auto cancelled = [this]() -> bool {
    if (opts_.handle_signals && interrupt_requested()) return true;
    return opts_.cancel_check && opts_.cancel_check();
  };

  JsonlSink sink = opts_.jsonl_path.empty()
                       ? JsonlSink{}
                       : JsonlSink(opts_.jsonl_path, opts_.jsonl_timing);
  sink.write_header(fp, jobs.size());
  ProgressMeter meter(jobs.size(), opts_.progress);
  std::vector<JobOutcome> outcomes(jobs.size());
  std::vector<char> replayed(jobs.size(), 0);

  // Replay journaled rows first (byte-for-byte, per-row flushed) so a
  // second kill re-loses as little as possible; resume is idempotent
  // either way because row content is deterministic.
  for (usize i = 0; i < jobs.size(); ++i) {
    const auto it = replayable.find(i);
    if (it == replayable.end()) continue;
    try {
      outcomes[i] = outcome_from_row(*it->second, jobs[i]);
    } catch (const std::exception&) {
      continue;  // malformed row: fall through to re-simulation
    }
    sink.push_replayed(i, it->second->text);
    meter.job_resumed();
    replayed[i] = 1;
  }

  bool interrupted = false;
  // A journal write failure (disk full, device error) must not lose the
  // sweep: stop dispatching, drain, seal the partial, and rethrow the
  // I/O error with resume guidance (docs/crash_consistency.md).
  std::optional<Error> journal_failure;
  // One watchdog thread for the whole sweep when a per-attempt timeout
  // is armed; it works for the serial path too, being its own thread.
  std::optional<Watchdog> watchdog;
  if (timeout_ms_ > 0) watchdog.emplace(timeout_ms_);
  Watchdog* dog = watchdog.has_value() ? &*watchdog : nullptr;

  // Every job's first-attempt engine.job check, in submission order and
  // under that job's own watched token, before any group replays: `@N`
  // selects the N-th job to run whatever the grouping. A job whose check
  // fires leaves its group and continues alone from that failed attempt.
  std::vector<std::optional<JobOutcome>> gated(jobs.size());
  if (fp::enabled()) {
    for (usize i = 0; i < jobs.size(); ++i) {
      if (replayed[i] != 0) continue;
      const cancel::Reason reason = watched(
          dog, [&] { gated[i] = check_job_failpoint(jobs[i]); });
      if (gated[i].has_value()) {
        gated[i]->timed_out = reason == cancel::Reason::kTimeout;
      }
    }
  }
  const std::vector<std::vector<usize>> units =
      plan_units(jobs, replayed, gated);
  // The hardware left to each concurrent unit: a fused group spreads its
  // sinks over that many threads. With fewer units than workers, only
  // the units run at once, so each gets a larger share.
  const usize concurrent =
      std::max<usize>(1, std::min(workers_, units.size()));
  const usize group_threads =
      std::max<usize>(1, hardware_jobs() / concurrent);

  // Outcomes of one unit, in member order. A fused group that fails as a
  // whole hands every member to the per-job path, whose first attempt
  // resumes after the already-passed failpoint check; retries run whole.
  const auto run_unit = [&](const std::vector<usize>& unit) {
    std::vector<JobOutcome> outs;
    if (unit.size() > 1) {
      outs = run_group(jobs, unit, dog, group_threads);
      if (!outs.empty()) return outs;
    }
    for (const usize i : unit) {
      JobOutcome first = gated[i].has_value()
                             ? *gated[i]
                             : run_attempt(jobs[i], simulate_job, dog);
      outs.push_back(retry_after(jobs[i], std::move(first), retries_,
                                 opts_.retry_backoff_ms, run_job, dog));
    }
    return outs;
  };

  if (workers_ <= 1) {
    // Serial reference path, no pool: units run in the calling thread,
    // though a fused group's replay still runs its sinks on
    // group_threads. Outcomes commit (sink, meter) in submission order,
    // each after its own cancellation poll; a unit runs when its first
    // member comes up, and the outcomes of its later members wait for
    // their turn. An interrupt discards those waiting outcomes --
    // --resume recomputes them.
    std::vector<usize> unit_of(jobs.size(), 0);
    for (usize u = 0; u < units.size(); ++u) {
      for (const usize i : units[u]) unit_of[i] = u;
    }
    std::vector<char> computed(jobs.size(), 0);
    for (usize i = 0; i < jobs.size(); ++i) {
      if (replayed[i] != 0) continue;
      if (cancelled()) {
        interrupted = true;
        break;
      }
      if (computed[i] == 0) {
        const std::vector<usize>& unit = units[unit_of[i]];
        std::vector<JobOutcome> outs = run_unit(unit);
        for (usize k = 0; k < unit.size(); ++k) {
          outcomes[unit[k]] = std::move(outs[k]);
          computed[unit[k]] = 1;
        }
      }
      try {
        sink.push(outcomes[i]);
      } catch (Error& e) {
        journal_failure = std::move(e);
        break;
      }
      if (outcomes[i].quarantined) {
        meter.job_quarantined();
      } else {
        meter.job_done();
      }
    }
  } else {
    // One pool task per unit. A fused group's rows are strided through
    // the submission order; the sink's reorder buffer holds them until
    // the contiguous prefix forms.
    std::mutex done_mu;  // guards outcomes slot writes + sink + flags
    bool stop = false;   // cnt-lint: guarded-by(done_mu)
    ThreadPool pool(workers_);
    for (const std::vector<usize>& unit : units) {
      pool.submit([&] {
        {
          // Poll under the lock so cancel_check needs no thread safety
          // of its own and every worker agrees on the stop decision.
          std::lock_guard lock(done_mu);
          if (stop || cancelled()) {
            stop = true;
            return;
          }
        }
        std::vector<JobOutcome> outs = run_unit(unit);
        // In-flight units drain even after a stop request: their rows
        // still reach the journal before the interrupt propagates.
        std::lock_guard lock(done_mu);
        for (JobOutcome& out : outs) {
          const usize slot = static_cast<usize>(out.job.id);
          if (!journal_failure.has_value()) {
            try {
              sink.push(out);
              if (out.quarantined) {
                meter.job_quarantined();
              } else {
                meter.job_done();
              }
            } catch (Error& e) {
              journal_failure = std::move(e);
              stop = true;
            }
          }
          outcomes[slot] = std::move(out);
        }
      });
    }
    pool.wait();
    pool.shutdown();
    // Unit tasks catch everything, so pool-level errors mean an engine
    // bug.
    if (pool.error_count() != 0) {
      throw std::logic_error("ExperimentEngine: worker task threw");
    }
    // cnt-lint: guard-ok workers joined by shutdown(); no writer remains
    interrupted = stop && !journal_failure.has_value();
  }

  if (journal_failure.has_value()) {
    sink.close_interrupted();  // salvage buffered rows, keep the partial
    meter.finish();
    Error e = std::move(*journal_failure);
    std::string how = e.info().hint;
    if (!opts_.jsonl_path.empty()) {
      if (!how.empty()) how += "; ";
      how += "then rerun with --resume -- every journaled row is sealed in " +
             opts_.jsonl_path + ".partial";
    }
    throw std::move(e)
        .context("writing sweep journal (" + std::to_string(meter.done()) +
                 "/" + std::to_string(jobs.size()) + " jobs journaled)")
        .hint(std::move(how));
  }

  if (interrupted) {
    sink.close_interrupted();
    meter.finish();
    const std::string partial =
        opts_.jsonl_path.empty() ? "" : opts_.jsonl_path + ".partial";
    throw SweepInterrupted(meter.done(), jobs.size(), partial);
  }

  try {
    sink.finish();
  } catch (Error& e) {
    meter.finish();
    // The partial journal is complete and sealed; only the publish
    // failed. --resume replays it without re-simulating anything.
    throw std::move(e).context("publishing sweep journal");
  }
  meter.finish();
  if (opts_.progress) {
    std::cerr << meter.summary() << " [" << workers_ << " worker"
              << (workers_ == 1 ? "" : "s") << "]\n";
  }
  return outcomes;
}

usize quarantined_count(const std::vector<JobOutcome>& outcomes) noexcept {
  usize n = 0;
  for (const JobOutcome& o : outcomes) {
    if (o.quarantined) ++n;
  }
  return n;
}

int sweep_exit_code(const std::vector<JobOutcome>& outcomes) noexcept {
  if (quarantined_count(outcomes) > 0) return kExitQuarantine;
  for (const JobOutcome& o : outcomes) {
    if (!o.ok) return 1;
  }
  return 0;
}

std::vector<TagGroup> group_by_tag(const std::vector<JobOutcome>& outcomes) {
  std::vector<TagGroup> groups;
  for (const auto& o : outcomes) {
    TagGroup* g = nullptr;
    for (auto& existing : groups) {
      if (existing.tag == o.job.tag) {
        g = &existing;
        break;
      }
    }
    if (g == nullptr) {
      groups.push_back(TagGroup{o.job.tag, {}});
      g = &groups.back();
    }
    g->outcomes.push_back(&o);
  }
  return groups;
}

std::vector<SimResult> results_of(
    const std::vector<const JobOutcome*>& group) {
  std::vector<SimResult> results;
  results.reserve(group.size());
  for (const JobOutcome* o : group) {
    if (!o->ok) {
      throw Error(Errc::kInternal,
                  "job failed (" + o->job.workload +
                      (o->job.tag.empty() ? "" : ", " + o->job.tag) +
                      "): " + o->error)
          .hint("inspect the job's error above; aggregate reports need "
                "every job in the group to have succeeded");
    }
    results.push_back(o->result);
  }
  return results;
}

}  // namespace cnt::exec
