#include "runner/sweep.hpp"

#include <atomic>
#include <chrono>
#include <exception>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "runner/journal.hpp"

namespace tcn::runner {
namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
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
  return p == FailurePolicy::kRecordAndContinue ? "record_and_continue"
                                                : "cancel_all";
}

FailurePolicy failure_policy_from_name(std::string_view name) {
  if (name == "cancel_all") return FailurePolicy::kCancelAll;
  if (name == "record_and_continue") return FailurePolicy::kRecordAndContinue;
  throw std::invalid_argument(
      "unknown failure policy '" + std::string(name) +
      "' (expected cancel_all or record_and_continue)");
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
      throw std::invalid_argument(
          "resume journal '" + opt.resume->path +
          "' was written by a different sweep (spec hash or job count "
          "mismatch)");
    }
    for (const JournalEntry& e : opt.resume->entries) {
      if (e.index >= jobs.size()) {
        throw std::invalid_argument("resume journal '" + opt.resume->path +
                                    "' references job " +
                                    std::to_string(e.index) + " of " +
                                    std::to_string(jobs.size()));
      }
      Job& job = jobs[e.index];
      if (e.record.job.group != job.group || e.record.job.label != job.label) {
        throw std::invalid_argument(
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

  std::vector<Job*> pending;
  pending.reserve(jobs.size());
  for (auto& job : jobs) {
    if (!restored[job.index]) pending.push_back(&job);
  }
  res.jobs_used = effective_workers(
      opt.jobs, pending.empty() ? std::size_t{1} : pending.size());

  const bool cancel_all = opt.failure_policy == FailurePolicy::kCancelAll;
  std::atomic<std::size_t> next{0};    // the next pending job to hand out
  std::atomic<bool> cancelled{false};  // a run failed under cancel_all
  std::mutex mu;  // guards the journal, on_done, res.runs and `error`
  std::exception_ptr error;  // the first exception a worker met

  auto run_one = [&](Job& job) {
    RunRecord rec;
    rec.job = std::move(job);
    if (cancel_all && cancelled) {
      rec.skipped = true;
      rec.error = "cancelled";
      rec.error_kind = ErrorKind::kCancelled;
      return rec;
    }
    const auto t0 = Clock::now();
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
    rec.attempts = 1;
    rec.wall_ms = ms_since(t0);
    if (rec.ok && rec.wall_ms > 0.0) {
      rec.events_per_sec =
          static_cast<double>(rec.report.events) / (rec.wall_ms / 1000.0);
    }
    if (!rec.ok && cancel_all) cancelled = true;
    return rec;
  };

  // Every worker, the calling thread included, runs this loop. A run's own
  // failure is a record; an exception here (a journal append or on_done)
  // ends the hand-out and is rethrown once every worker has joined.
  auto work = [&] {
    try {
      for (std::size_t i = next++; i < pending.size(); i = next++) {
        RunRecord rec = run_one(*pending[i]);
        std::lock_guard<std::mutex> lock(mu);
        if (error) return;
        // Journal successful runs only: a failed or skipped job re-executes
        // on resume, which the deterministic simulation resolves the same
        // way an uninterrupted run would have.
        if (journal && rec.ok) journal->append(rec);
        if (opt.on_done) opt.on_done(rec);
        res.runs[rec.job.index] = std::move(rec);
      }
    } catch (...) {
      std::lock_guard<std::mutex> lock(mu);
      if (!error) error = std::current_exception();
      next = pending.size();
    }
  };
  {
    std::vector<std::jthread> threads;  // joined when this scope ends
    threads.reserve(res.jobs_used - 1);
    for (std::size_t t = 1; t < res.jobs_used; ++t) threads.emplace_back(work);
    work();
  }
  if (error) std::rethrow_exception(error);

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
  }

  res.wall_ms = ms_since(sweep_start);
  return res;
}

SweepResult run_sweep(const SweepSpec& spec, const SweepOptions& opt) {
  return run_jobs(spec.expand(), opt);
}

}  // namespace tcn::runner
