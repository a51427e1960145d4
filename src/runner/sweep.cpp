#include "runner/sweep.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <exception>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "runner/journal.hpp"
#include "runner/thread_pool.hpp"

namespace tcn::runner {
namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// splitmix64 finalizer: a cheap, well-mixed hash for the retry jitter.
std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

ErrorKind classify(core::RunErrorKind kind) noexcept {
  switch (kind) {
    case core::RunErrorKind::kTimeout:
      return ErrorKind::kTimeout;
    case core::RunErrorKind::kOomGuard:
      return ErrorKind::kOomGuard;
    case core::RunErrorKind::kInvariant:
      return ErrorKind::kInvariant;
    case core::RunErrorKind::kException:
      break;
  }
  return ErrorKind::kException;
}

}  // namespace

std::string_view error_kind_name(ErrorKind kind) noexcept {
  switch (kind) {
    case ErrorKind::kNone:
      return "";
    case ErrorKind::kException:
      return "exception";
    case ErrorKind::kTimeout:
      return "timeout";
    case ErrorKind::kInvariant:
      return "invariant-violation";
    case ErrorKind::kOomGuard:
      return "oom-guard";
    case ErrorKind::kCancelled:
      return "cancelled";
  }
  return "exception";
}

ErrorKind error_kind_from_name(std::string_view name) {
  if (name.empty()) return ErrorKind::kNone;
  if (name == "exception") return ErrorKind::kException;
  if (name == "timeout") return ErrorKind::kTimeout;
  if (name == "invariant-violation") return ErrorKind::kInvariant;
  if (name == "oom-guard") return ErrorKind::kOomGuard;
  if (name == "cancelled") return ErrorKind::kCancelled;
  throw std::invalid_argument("unknown error kind '" + std::string(name) +
                              "'");
}

std::string_view failure_policy_name(FailurePolicy p) noexcept {
  switch (p) {
    case FailurePolicy::kCancelAll:
      return "cancel_all";
    case FailurePolicy::kRecordAndContinue:
      return "record_and_continue";
    case FailurePolicy::kRetry:
      return "retry";
  }
  return "cancel_all";
}

FailurePolicy failure_policy_from_name(std::string_view name) {
  if (name == "cancel_all") return FailurePolicy::kCancelAll;
  if (name == "record_and_continue") return FailurePolicy::kRecordAndContinue;
  if (name == "retry") return FailurePolicy::kRetry;
  throw std::invalid_argument(
      "unknown failure policy '" + std::string(name) +
      "' (expected cancel_all, record_and_continue or retry)");
}

double retry_backoff_ms(const RetryPolicy& policy, std::size_t next_attempt,
                        std::size_t index, std::uint64_t seed) {
  if (next_attempt < 2) return 0.0;
  double delay = policy.backoff_base_ms *
                 std::pow(2.0, static_cast<double>(next_attempt - 2));
  if (delay > policy.backoff_max_ms) delay = policy.backoff_max_ms;
  if (policy.jitter <= 0.0) return delay;
  // Deterministic jitter keyed on (job, attempt, seed): reproducible per
  // run, decorrelated across jobs so a burst of failures does not retry in
  // lockstep.
  const std::uint64_t h =
      mix64(seed ^ mix64(index + 1) ^ mix64(0x5bd1e995ULL * next_attempt));
  const double unit =
      static_cast<double>(h >> 11) * (1.0 / 9007199254740992.0);  // [0, 1)
  const double factor = 1.0 - policy.jitter + 2.0 * policy.jitter * unit;
  return delay * factor;
}

std::size_t effective_workers(std::size_t requested, std::size_t num_jobs) {
  std::size_t n = requested;
  if (n == 0) {
    n = std::thread::hardware_concurrency();
    if (n == 0) n = 1;
  }
  if (num_jobs > 0 && n > num_jobs) n = num_jobs;
  return n == 0 ? 1 : n;
}

std::vector<Job> SweepSpec::expand() const {
  if (schemes.empty()) {
    throw std::invalid_argument("SweepSpec: no schemes");
  }
  if (loads.empty()) {
    throw std::invalid_argument("SweepSpec: no loads");
  }
  const std::vector<std::uint64_t> seed_list =
      seeds.empty() ? std::vector<std::uint64_t>{base.seed} : seeds;
  const std::vector<std::size_t> flow_list =
      flows.empty() ? std::vector<std::size_t>{base.num_flows} : flows;
  const std::vector<std::pair<std::string, fault::FaultPlan>> fault_list =
      faults.empty()
          ? std::vector<std::pair<std::string, fault::FaultPlan>>{
                {std::string(), base.faults}}
          : faults;
  const std::vector<std::pair<std::string, traffic::TrafficSpec>>
      traffic_list =
          traffics.empty()
              ? std::vector<std::pair<std::string, traffic::TrafficSpec>>{
                    {std::string(), base.traffic}}
              : traffics;

  std::vector<Job> jobs;
  jobs.reserve(loads.size() * schemes.size() * seed_list.size() *
               flow_list.size() * fault_list.size() * traffic_list.size());
  for (const double load : loads) {
    for (const auto& [label, scheme] : schemes) {
      for (const std::uint64_t seed : seed_list) {
        for (const std::size_t nflows : flow_list) {
          for (const auto& [fault_label, plan] : fault_list) {
            for (const auto& [traffic_label, traffic_spec] : traffic_list) {
              Job j;
              j.index = jobs.size();
              j.group = name;
              j.label = label;
              j.fault_label = fault_label;
              j.traffic_label = traffic_label;
              j.cfg = base;
              j.cfg.scheme = scheme;
              j.cfg.load = load;
              j.cfg.seed = seed;
              j.cfg.num_flows = nflows;
              j.cfg.faults = plan;
              j.cfg.traffic = traffic_spec;
              jobs.push_back(std::move(j));
            }
          }
        }
      }
    }
  }
  return jobs;
}

SweepResult run_jobs(std::vector<Job> jobs, const SweepOptions& opt) {
  const auto sweep_start = Clock::now();

  SweepResult res;
  res.runs.resize(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) jobs[i].index = i;

  // The digest is over the fully-expanded job list, computed before any job
  // is moved into a restored record.
  const std::uint64_t digest = jobs_digest(jobs);

  // Restore journaled results: the journal carries only RESULT fields; the
  // config comes from the job list the caller just re-expanded, which the
  // digest (plus per-entry label checks) proves is the same sweep.
  std::vector<char> restored(jobs.size(), 0);
  if (opt.resume != nullptr) {
    if (opt.resume->spec_hash != digest ||
        opt.resume->total_jobs != jobs.size()) {
      throw std::runtime_error(
          "resume journal '" + opt.resume->path +
          "' was written by a different sweep (spec hash or job count "
          "mismatch)");
    }
    for (const JournalEntry& e : opt.resume->entries) {
      if (e.index >= jobs.size()) {
        throw std::runtime_error("resume journal '" + opt.resume->path +
                                 "' references job " +
                                 std::to_string(e.index) + " of " +
                                 std::to_string(jobs.size()));
      }
      Job& job = jobs[e.index];
      if (e.record.job.group != job.group || e.record.job.label != job.label) {
        throw std::runtime_error(
            "resume journal '" + opt.resume->path + "' job " +
            std::to_string(e.index) + " is labelled '" + e.record.job.group +
            "/" + e.record.job.label + "', expected '" + job.group + "/" +
            job.label + "'");
      }
      RunRecord rec = e.record;
      rec.job = std::move(job);
      restored[e.index] = 1;
      res.runs[e.index] = std::move(rec);
    }
  }

  std::unique_ptr<JournalWriter> journal;
  if (!opt.journal_out.empty()) {
    const bool in_place =
        opt.resume != nullptr && opt.resume->path == opt.journal_out;
    if (in_place) {
      journal = std::make_unique<JournalWriter>(opt.journal_out,
                                                opt.resume->valid_bytes);
    } else {
      journal = std::make_unique<JournalWriter>(opt.journal_out,
                                                opt.journal_name, digest,
                                                jobs.size());
      // A fresh journal must be complete on its own: carry the restored
      // records over so it can seed the next resume too.
      for (std::size_t i = 0; i < res.runs.size(); ++i) {
        if (restored[i]) journal->append(res.runs[i]);
      }
    }
  }

  CancelToken cancel;
  std::mutex mu;  // guards counters, the journal and on_done serialization
  const bool cancel_all = opt.failure_policy == FailurePolicy::kCancelAll;
  const std::size_t max_attempts =
      opt.failure_policy == FailurePolicy::kRetry
          ? std::max<std::size_t>(std::size_t{1}, opt.retry.max_attempts)
          : 1;

  auto run_one = [&](Job& job) {
    RunRecord rec;
    const std::size_t slot = job.index;
    rec.job = std::move(job);
    if (cancel_all && cancel.cancelled()) {
      rec.skipped = true;
      rec.error = "cancelled";
      rec.error_kind = ErrorKind::kCancelled;
    } else {
      const auto t0 = Clock::now();
      for (std::size_t attempt = 1; attempt <= max_attempts; ++attempt) {
        rec.ok = false;
        rec.error.clear();
        rec.error_kind = ErrorKind::kNone;
        rec.postmortem.clear();
        rec.report = core::FctReport{};
        try {
          rec.report = core::run_fct_experiment(rec.job.cfg);
          rec.ok = true;
        } catch (const core::ExperimentError& e) {
          rec.error = e.what();
          rec.error_kind = classify(e.kind());
          rec.postmortem = e.postmortem();
        } catch (const std::exception& e) {
          rec.error = e.what();
          rec.error_kind = ErrorKind::kException;
        } catch (...) {
          rec.error = "unknown exception";
          rec.error_kind = ErrorKind::kException;
        }
        rec.attempts = attempt;
        if (rec.ok || attempt == max_attempts) break;
        if (opt.retry_sleep) {
          const double delay = retry_backoff_ms(opt.retry, attempt + 1, slot,
                                                rec.job.cfg.seed);
          std::this_thread::sleep_for(
              std::chrono::duration<double, std::milli>(delay));
        }
      }
      rec.wall_ms = ms_since(t0);
      if (rec.ok && rec.wall_ms > 0.0) {
        rec.events_per_sec =
            static_cast<double>(rec.report.events) / (rec.wall_ms / 1000.0);
      }
      if (!rec.ok && cancel_all) cancel.cancel();
    }
    {
      std::lock_guard<std::mutex> lock(mu);
      // Journal successful runs only: a failed or skipped job re-executes on
      // resume, which the deterministic simulation resolves the same way an
      // uninterrupted run would have.
      if (journal && rec.ok) journal->append(rec);
      if (opt.on_done) opt.on_done(rec);
      // Slot assignment is race-free by construction (unique index per
      // job); done under the lock anyway so on_done observes a consistent
      // runs vector.
      res.runs[slot] = std::move(rec);
    }
  };

  std::vector<Job*> pending;
  pending.reserve(jobs.size());
  for (auto& job : jobs) {
    if (!restored[job.index]) pending.push_back(&job);
  }

  res.jobs_used = effective_workers(
      opt.jobs, pending.empty() ? std::size_t{1} : pending.size());
  std::uint64_t pool_faults = 0;
  if (res.jobs_used <= 1) {
    for (Job* job : pending) run_one(*job);
  } else {
    ThreadPool pool(res.jobs_used);
    for (Job* job : pending) {
      pool.submit([&run_one, job] { run_one(*job); });
    }
    pool.wait_idle();
    pool.shutdown();
    pool_faults = pool.tasks_faulted();
  }

  // Roll the per-record outcomes up once, restored records included, so the
  // totals are identical whether a record was executed now or replayed from
  // the journal.
  for (const RunRecord& r : res.runs) {
    if (r.ok) {
      ++res.completed;
    } else if (r.skipped) {
      ++res.skipped;
    } else {
      ++res.failed;
      switch (r.error_kind) {
        case ErrorKind::kTimeout:
          ++res.failed_timeout;
          break;
        case ErrorKind::kInvariant:
          ++res.failed_invariant;
          break;
        case ErrorKind::kOomGuard:
          ++res.failed_oom_guard;
          break;
        default:
          ++res.failed_exception;
          break;
      }
    }
    if (r.restored) ++res.restored;
    if (r.attempts > 1) res.retries += r.attempts - 1;
  }
  res.pool_exceptions = pool_faults;

  res.wall_ms = ms_since(sweep_start);
  return res;
}

SweepResult run_sweep(const SweepSpec& spec, const SweepOptions& opt) {
  return run_jobs(spec.expand(), opt);
}

}  // namespace tcn::runner
