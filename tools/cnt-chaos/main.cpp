// cnt-chaos: seeded chaos wall for the hung-work defenses
// (docs/robustness.md).
//
// Where cnt-crash tortures the durable writers one kill point at a time,
// cnt-chaos composes *schedules* of misbehaviour -- delays, transient
// errors, torn journal writes, hangs, signal storms -- over a real sweep
// (with a fault campaign armed, so the protected-array path is the one
// under chaos; the fused-* cases run a fault-free sweep whose jobs replay
// in fused groups instead) and asserts the engine-level contract per seed:
//
//   no deadlock      every child finishes inside a hard wall-clock bound
//                    (a SIGKILL backstop turns a hang into a FAIL);
//   journal sane     the sweep journal is always loadable-or-refused --
//                    a --resume run either restores it byte-identically
//                    to the unchaosed reference or fails loudly;
//   quarantine exact a hang under the watchdog exits kExitQuarantine
//                    with exactly one sealed Q-row, and the resume run
//                    clears it.
//
// The failpoint trigger indices are chosen per (case, seed) from the hit
// counts of an instrumented reference run of the same sweep, so --seeds N
// sweeps N deterministic schedules per case.
//
//   cnt-chaos [--out DIR] [--seeds N] [--case NAME] [--keep] [--list]
//
// Exit 0 when every case holds, 1 on any violation, 2 on usage errors.
// Unix-only (fork/waitpid).
#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#if defined(__unix__)
#include <sys/wait.h>
#include <unistd.h>
#endif

#include "common/cancel.hpp"
#include "common/error.hpp"
#include "common/failpoint.hpp"
#include "exec/engine.hpp"
#include "sim/runner.hpp"
#include "trace/workload_suite.hpp"

using namespace cnt;
namespace fsys = std::filesystem;

namespace {

int usage() {
  std::cerr << "usage: cnt-chaos [--out DIR] [--seeds N] [--case NAME]"
               " [--keep] [--list]\n"
               "  --out DIR    working directory (default: cnt_chaos_out)\n"
               "  --seeds N    schedules probed per case (default 1)\n"
               "  --case NAME  restrict to one chaos case\n"
               "  --keep       keep per-case directories for inspection\n"
               "  --list       print the chaos case catalog and exit\n";
  return 2;
}

u64 fnv1a(std::string_view s) {
  u64 h = 0xcbf29ce484222325ULL;
  for (const char ch : s) {
    h ^= static_cast<u64>(ch) & 0xff;
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Seeded 1-based trigger index into `count` evaluations of a site.
u64 pick_index(std::string_view label, u64 seed, u64 count) {
  u64 h = fnv1a(label);
  h ^= seed * 0x9e3779b97f4a7c15ULL;
  return 1 + h % count;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Occurrences of the "quarantined" key in the journal -- the sink only
/// emits it on sealed Q-rows, so this is the quarantine report.
u64 count_quarantined(const std::string& journal_bytes) {
  static constexpr std::string_view kKey = "\"quarantined\"";
  u64 n = 0;
  for (usize at = journal_bytes.find(kKey); at != std::string::npos;
       at = journal_bytes.find(kKey, at + kKey.size())) {
    ++n;
  }
  return n;
}

// ---------------------------------------------------------------------------
// Child-side payload: a real three-job sweep with a deterministic fault
// campaign, journaled with timing off so bytes compare across runs.

std::vector<exec::Job> chaos_jobs() {
  std::vector<exec::Job> jobs;
  for (const char* w : {"zipf_kv", "ifetch", "hash_join"}) {
    exec::Job j;
    j.workload = w;
    j.scale = 0.05;
    j.config.with_cmos = j.config.with_static = j.config.with_ideal = false;
    // Chaos runs exercise the protected-array path, not the clean model:
    // a seeded stuck-cell campaign under SECDED rides every job.
    j.config.fault.protection = ProtectionScheme::kSecded;
    j.config.fault.stuck_per_mbit = 4.0;
    jobs.push_back(j);
  }
  return jobs;
}

/// A fault-free 2-workload x 3-window sweep: each workload is one fused
/// group of three jobs (docs/performance.md "Fused replay"), strided
/// through the submission order. Three windows, not two, so a group that
/// loses two members to failpoints still leaves a fused pair replaying.
std::vector<exec::Job> fused_jobs() {
  std::vector<exec::Job> jobs;
  for (const usize window : {usize{7}, usize{15}, usize{31}}) {
    for (const char* w : {"zipf_kv", "ifetch"}) {
      exec::Job j;
      j.workload = w;
      j.tag = "window=" + std::to_string(window);
      j.scale = 0.05;
      j.config.with_cmos = j.config.with_static = j.config.with_ideal = false;
      j.config.cnt.window = window;
      jobs.push_back(j);
    }
  }
  return jobs;
}

struct SweepParams {
  bool fused = false;  ///< run fused_jobs() instead of chaos_jobs()
  bool resume = false;
  u64 job_timeout_ms = 0;  ///< 0: watchdog disarmed
  u32 max_retries = 0;
  bool signal_storm = false;  ///< raise SIGINTs from a helper thread
};

int run_sweep(const std::string& dir, const SweepParams& p) {
  if (p.signal_storm) {
    // Escalating storm: with handle_signals the first SIGINT interrupts
    // gracefully and the second restores default disposition, so the
    // third (if the sweep is still alive) kills the process outright.
    std::thread([] {
      const cancel::Token pace;
      for (int i = 0; i < 3; ++i) {
        (void)pace.wait_ms(25);
        (void)std::raise(SIGINT);
      }
    }).detach();
  }
  exec::EngineOptions opts;
  opts.jobs = 1;
  opts.jsonl_path = dir + "/sweep.jsonl";
  opts.jsonl_timing = false;  // byte-identity across runs is the contract
  opts.resume = p.resume;
  opts.max_retries = p.max_retries;
  opts.retry_backoff_ms = 1;
  opts.job_timeout_ms = p.job_timeout_ms;
  opts.handle_signals = true;
  const exec::ExperimentEngine engine(opts);
  try {
    const std::vector<exec::JobOutcome> outcomes =
        engine.run(p.fused ? fused_jobs() : chaos_jobs());
    return exec::sweep_exit_code(outcomes);
  } catch (const exec::SweepInterrupted&) {
    return 130;
  }
}

// ---------------------------------------------------------------------------
// Parent-side process control with a hard wall-clock bound.

struct ChildStatus {
  bool killed_backstop = false;  ///< deadline blown; SIGKILLed by us
  int term_signal = 0;           ///< terminating signal when nonzero
  int exit_code = -1;            ///< wait status exit code otherwise
};

#if defined(__unix__)

/// Fork and run `payload` with CNT_FAILPOINTS=`spec` (empty = disarmed)
/// and CNT_FAILPOINT_REPORT=`report` (empty = no probing). The parent
/// polls with a deadline: a child still alive at `deadline_ms` is
/// SIGKILLed and reported as a deadlock -- the no-deadlock assertion.
ChildStatus run_child(const std::function<int()>& payload,
                      const std::string& spec, const std::string& report,
                      const std::string& err_path, u64 deadline_ms) {
  std::cout.flush();
  std::cerr.flush();
  const pid_t pid = ::fork();
  if (pid < 0) {
    std::cerr << "cnt-chaos: fork failed\n";
    std::exit(2);
  }
  if (pid == 0) {
    // Isolate the child from ambient engine knobs; only the explicit
    // per-case parameters decide behaviour.
    ::unsetenv("CNT_RETRIES");
    ::unsetenv("CNT_JOB_TIMEOUT_MS");
    ::unsetenv("CNT_JOBS");
    if (spec.empty()) {
      ::unsetenv("CNT_FAILPOINTS");
    } else {
      ::setenv("CNT_FAILPOINTS", spec.c_str(), 1);
    }
    if (report.empty()) {
      ::unsetenv("CNT_FAILPOINT_REPORT");
    } else {
      ::setenv("CNT_FAILPOINT_REPORT", report.c_str(), 1);
    }
    int code = 0;
    try {
      fp::configure_from_env();
      code = payload();
    } catch (const std::exception& e) {
      // Expected for injected I/O errors; record for --keep debugging.
      if (std::FILE* f = std::fopen(err_path.c_str(), "w")) {
        std::fprintf(f, "%s\n", format_error(e).c_str());
        (void)std::fclose(f);
      }
      code = 1;
    } catch (...) {
      code = 1;
    }
    fp::write_report();
    std::_Exit(code);  // no atexit/dtors: don't flush the parent's buffers
  }
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(deadline_ms);
  const cancel::Token pace;
  ChildStatus out;
  for (;;) {
    int status = 0;
    const pid_t r = ::waitpid(pid, &status, WNOHANG);
    if (r == pid) {
      if (WIFSIGNALED(status)) {
        out.term_signal = WTERMSIG(status);
      } else if (WIFEXITED(status)) {
        out.exit_code = WEXITSTATUS(status);
      }
      return out;
    }
    if (std::chrono::steady_clock::now() >= deadline) {
      (void)::kill(pid, SIGKILL);
      (void)::waitpid(pid, &status, 0);
      out.killed_backstop = true;
      return out;
    }
    (void)pace.wait_ms(5);
  }
}

#endif  // defined(__unix__)

std::map<std::string, u64> read_report(const std::string& path) {
  std::map<std::string, u64> counts;
  std::ifstream in(path);
  std::string site;
  u64 n = 0;
  while (in >> site >> n) counts[site] = n;
  return counts;
}

/// One seeded chaos schedule over the sweep. `spec` may reference the
/// {job} / {journal} placeholders, replaced by seeded trigger indices.
struct ChaosCase {
  std::string name;
  std::string spec;       ///< failpoint schedule template
  SweepParams params;     ///< chaos-run engine knobs
  bool clean_exit;        ///< chaos run itself must exit 0, journal == ref
  bool quarantine_one;    ///< chaos run exits 3 with exactly one Q-row
  bool needs_resume;      ///< follow with a clean --resume run
};

std::vector<ChaosCase> chaos_cases() {
  std::vector<ChaosCase> cases;
  // A delayed job changes nothing but wall clock.
  cases.push_back({"delay", "engine.job=delay:5@{job}", {},
                   /*clean_exit=*/true, false, false});
  // A transient job error is retried to a byte-identical completion.
  cases.push_back({"transient", "engine.job=error:EIO@{job}",
                   {.max_retries = 2},
                   /*clean_exit=*/true, false, false});
  // Composed schedule: a delay and a transient error in one run.
  cases.push_back({"compose",
                   "engine.job=delay:5@{job};engine.job=error:EIO@{job2}",
                   {.max_retries = 2},
                   /*clean_exit=*/true, false, false});
  // A torn journal write fails the sweep loudly; --resume restores it.
  cases.push_back({"short-write", "journal.write=short-write@{journal}", {},
                   /*clean_exit=*/false, false, /*needs_resume=*/true});
  // A hung job is cancelled by the watchdog and quarantined; the sweep
  // completes without it and --resume re-attempts only that job.
  cases.push_back({"hang", "engine.job=hang@{job}",
                   {.job_timeout_ms = 250},
                   /*clean_exit=*/false, /*quarantine_one=*/true,
                   /*needs_resume=*/true});
  // An escalating SIGINT storm: graceful interrupt, then default
  // disposition, possibly death mid-write; --resume restores.
  cases.push_back({"sigstorm", "",
                   {.signal_storm = true},
                   /*clean_exit=*/false, false, /*needs_resume=*/true});
  // Fused groups under the same chaos: one member hangs under the
  // watchdog, another fails once and retries, the rest replay fused.
  // Exactly one Q-row; --resume restores the unchaosed journal.
  cases.push_back({"fused-hang",
                   "engine.job=hang@{job};engine.job=error:EIO@{job2}",
                   {.fused = true, .job_timeout_ms = 250, .max_retries = 2},
                   /*clean_exit=*/false, /*quarantine_one=*/true,
                   /*needs_resume=*/true});
  return cases;
}

struct Options {
  std::string out = "cnt_chaos_out";
  u64 seeds = 1;
  std::string only;  ///< empty: all cases
  bool keep = false;
};

}  // namespace

int main(int argc, char** argv) {
#if !defined(__unix__)
  std::cerr << "cnt-chaos: requires fork/waitpid (unix only)\n";
  return 2;
#else
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* val = i + 1 < argc ? argv[i + 1] : nullptr;
    if (arg == "--list") {
      for (const auto& c : chaos_cases()) std::cout << c.name << "\n";
      return 0;
    }
    if (arg == "--keep") {
      opt.keep = true;
    } else if (arg == "--out" && val != nullptr) {
      opt.out = val;
      ++i;
    } else if (arg == "--seeds" && val != nullptr) {
      opt.seeds = std::strtoull(val, nullptr, 10);
      ++i;
    } else if (arg == "--case" && val != nullptr) {
      opt.only = val;
      ++i;
    } else {
      std::cerr << "unknown option: " << arg << "\n";
      return usage();
    }
  }
  if (opt.seeds == 0) opt.seeds = 1;

  std::error_code ec;
  fsys::create_directories(opt.out, ec);
  if (ec) {
    std::cerr << "cnt-chaos: cannot create " << opt.out << ": "
              << ec.message() << "\n";
    return 2;
  }

  // Hard per-child wall-clock bound -- the no-deadlock assertion. Far
  // above any healthy run (the sweep takes well under a second) so a
  // trip always means parked-forever work.
  constexpr u64 kDeadlineMs = 60'000;

  u64 cases_run = 0;
  u64 failures = 0;
  auto fail = [&](const std::string& label, const std::string& why) {
    ++failures;
    std::cout << "FAIL " << label << ": " << why << "\n";
  };

  // Reference runs, one per payload: clean journal bytes + per-site hit
  // counts that seed the trigger indices.
  struct Reference {
    std::string bytes;
    u64 job_hits = 0;
    u64 journal_hits = 0;
  };
  std::vector<std::string> ref_dirs;
  const auto reference = [&](bool fused) -> std::optional<Reference> {
    const std::string ref_dir = opt.out + (fused ? "/ref_fused" : "/ref");
    ref_dirs.push_back(ref_dir);
    fsys::remove_all(ref_dir, ec);
    fsys::create_directories(ref_dir);
    const std::string report_path = ref_dir + "/failpoint_report.txt";
    const ChildStatus st = run_child(
        [&] { return run_sweep(ref_dir, {.fused = fused}); }, "",
        report_path, ref_dir + "/err.txt", kDeadlineMs);
    if (st.killed_backstop || st.term_signal != 0 || st.exit_code != 0) {
      std::cerr << "cnt-chaos: reference sweep did not exit 0\n";
      return std::nullopt;
    }
    const std::map<std::string, u64> counts = read_report(report_path);
    Reference r;
    r.bytes = slurp(ref_dir + "/sweep.jsonl");
    r.job_hits = counts.count("engine.job") ? counts.at("engine.job") : 0;
    r.journal_hits =
        counts.count("journal.write") ? counts.at("journal.write") : 0;
    if (r.bytes.empty() || r.job_hits == 0 || r.journal_hits == 0) {
      std::cerr << "cnt-chaos: reference run left no journal or hit "
                   "counts\n";
      return std::nullopt;
    }
    return r;
  };
  const std::optional<Reference> plain_ref = reference(false);
  const std::optional<Reference> fused_ref = reference(true);
  if (!plain_ref || !fused_ref) return 2;

  for (const ChaosCase& cc : chaos_cases()) {
    if (!opt.only.empty() && cc.name != opt.only) continue;
    for (u64 seed = 0; seed < opt.seeds; ++seed) {
      ++cases_run;
      // Substitute seeded trigger indices into the schedule template.
      std::string spec = cc.spec;
      auto subst = [&](const std::string& key, u64 index) {
        const usize at = spec.find(key);
        if (at != std::string::npos) {
          spec.replace(at, key.size(), std::to_string(index));
        }
      };
      const Reference& ref = cc.params.fused ? *fused_ref : *plain_ref;
      const u64 job_hits = ref.job_hits;
      const std::string& ref_bytes = ref.bytes;
      const u64 kj = pick_index(cc.name + "|job", seed, job_hits);
      // A distinct second index so composed entries never collide.
      const u64 kj2 = 1 + kj % job_hits;
      subst("{job}", kj);
      subst("{job2}", kj2);
      subst("{journal}", pick_index(cc.name + "|journal", seed,
                                    ref.journal_hits));

      const std::string label =
          cc.name + "/seed" + std::to_string(seed) +
          (spec.empty() ? "" : " [" + spec + "]");
      const std::string dir = opt.out + "/case_" + cc.name + "_s" +
                              std::to_string(seed);
      fsys::remove_all(dir, ec);
      fsys::create_directories(dir);

      SweepParams params = cc.params;
      const ChildStatus st =
          run_child([&] { return run_sweep(dir, params); }, spec, "",
                    dir + "/err.txt", kDeadlineMs);
      bool ok = true;
      if (st.killed_backstop) {
        fail(label, "deadlock: child blew the wall-clock bound");
        ok = false;
      } else if (cc.clean_exit) {
        if (st.term_signal != 0 || st.exit_code != 0) {
          fail(label, "chaos schedule was not absorbed cleanly");
          ok = false;
        }
      } else if (cc.quarantine_one) {
        if (st.term_signal != 0 || st.exit_code != exec::kExitQuarantine) {
          fail(label, "hang did not exit kExitQuarantine");
          ok = false;
        } else {
          const u64 q = count_quarantined(slurp(dir + "/sweep.jsonl"));
          if (q != 1) {
            fail(label, "expected exactly 1 quarantined row, found " +
                            std::to_string(q));
            ok = false;
          }
        }
      } else if (cc.params.signal_storm) {
        // Graceful interrupt (130), death by the escalated storm, or a
        // photo-finish clean exit are all legal; a deadlock is not.
        if (st.term_signal != 0 && st.term_signal != SIGINT) {
          fail(label, "storm killed the child with an unexpected signal");
          ok = false;
        } else if (st.term_signal == 0 && st.exit_code != 0 &&
                   st.exit_code != 130) {
          fail(label, "storm produced an unexpected exit code");
          ok = false;
        }
      } else if (st.term_signal != 0 || st.exit_code == 0) {
        fail(label, "injected journal fault did not fail gracefully");
        ok = false;
      }

      // Recovery: a clean --resume run must complete and restore the
      // journal byte-identically -- loadable-or-refused, never readable
      // but wrong.
      if (ok && cc.needs_resume) {
        const ChildStatus rec = run_child(
            [&] {
              return run_sweep(dir, {.fused = cc.params.fused,
                                     .resume = true});
            },
            "", "", dir + "/err_resume.txt", kDeadlineMs);
        if (rec.killed_backstop || rec.term_signal != 0 ||
            rec.exit_code != 0) {
          fail(label, "--resume recovery run failed");
          ok = false;
        }
      }

      if (ok) {
        const std::string got = slurp(dir + "/sweep.jsonl");
        const bool must_match = cc.clean_exit || cc.needs_resume;
        if (must_match && got != ref_bytes) {
          fail(label, "journal differs from the unchaosed reference");
          ok = false;
        } else if (must_match && count_quarantined(got) != 0) {
          fail(label, "quarantined row survived recovery");
          ok = false;
        }
      }

      if (ok) std::cout << "ok   " << label << "\n";
      if (!opt.keep) fsys::remove_all(dir, ec);
    }
  }
  if (!opt.keep) {
    for (const std::string& ref_dir : ref_dirs) fsys::remove_all(ref_dir, ec);
  }

  std::cout << "cnt-chaos: " << (cases_run - failures) << "/" << cases_run
            << " cases hold\n";
  return failures == 0 ? 0 : 1;
#endif  // defined(__unix__)
}
