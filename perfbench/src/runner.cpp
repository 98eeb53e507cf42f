#include "runner.hpp"

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <memory>
#include <utility>

#include "fabric/transport.hpp"
#include "fabric/worker.hpp"
#include "heap.hpp"
#include "report/checkpoint.hpp"
#include "report/jsonl_sink.hpp"

namespace perfbench {

using acute::testbed::Campaign;
using acute::testbed::CampaignReport;
using acute::testbed::CampaignSpec;
using acute::testbed::StageSeconds;

namespace {

CpuSeconds cpu_seconds() {
  auto seconds = [](int who) {
    rusage usage{};
    ::getrusage(who, &usage);
    return double(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
           double(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) / 1e6;
  };
  return {seconds(RUSAGE_SELF), seconds(RUSAGE_CHILDREN)};
}

double seconds_between(std::int64_t from_ns, std::int64_t to_ns) {
  return double(to_ns - from_ns) / 1e9;
}

/// Set-up of one invocation: call to first shard start, or the whole
/// invocation when no shard started.
double setup_seconds(std::int64_t start_ns, std::int64_t first_shard_ns,
                     std::int64_t end_ns) {
  return seconds_between(start_ns, first_shard_ns != 0 ? first_shard_ns
                                                       : end_ns);
}

void add_stage(StageSeconds& total, const StageSeconds& part) {
  total.build += part.build;
  total.simulate += part.simulate;
  total.sink += part.sink;
  total.merge += part.merge;
  total.restore += part.restore;
}

/// Most shards finished but not yet foldable at any instant of one
/// invocation: the frontier folds in ascending scenario order, so a
/// finished shard is held until every lower-indexed shard of the
/// invocation has finished.
std::size_t held_peak(std::vector<ShardSpan> spans) {
  std::vector<std::size_t> order;
  order.reserve(spans.size());
  for (const ShardSpan& span : spans) order.push_back(span.scenario_index);
  std::sort(order.begin(), order.end());
  std::sort(spans.begin(), spans.end(),
            [](const ShardSpan& a, const ShardSpan& b) {
              return a.end_ns < b.end_ns;
            });
  std::vector<bool> done(order.size(), false);
  std::size_t cursor = 0;
  std::size_t finished = 0;
  std::size_t peak = 0;
  for (const ShardSpan& span : spans) {
    const auto rank = static_cast<std::size_t>(
        std::lower_bound(order.begin(), order.end(), span.scenario_index) -
        order.begin());
    done[rank] = true;
    ++finished;
    while (cursor < done.size() && done[cursor]) ++cursor;
    peak = std::max(peak, finished - cursor);
  }
  return peak;
}

/// Adopts one invocation's spans into the iteration, under a call span.
void adopt_spans(Iteration& it, std::string name, std::int64_t start_ns,
                 std::int64_t end_ns, std::vector<ShardSpan> spans) {
  const std::size_t parent = it.calls.size();
  it.calls.push_back(CallSpan{std::move(name), start_ns, end_ns});
  it.held_peak = std::max(it.held_peak, held_peak(spans));
  for (ShardSpan& span : spans) {
    span.parent = parent;
    it.shards.push_back(span);
  }
}

std::size_t file_size(const std::string& path) {
  std::error_code error;
  const auto size = std::filesystem::file_size(path, error);
  return error ? 0 : static_cast<std::size_t>(size);
}

std::size_t count_lines(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::size_t lines = 0;
  char buffer[1 << 16];
  while (in.read(buffer, sizeof buffer) || in.gcount() > 0) {
    lines += static_cast<std::size_t>(
        std::count(buffer, buffer + in.gcount(), '\n'));
  }
  return lines;
}

std::string error_text(const std::exception_ptr& error) {
  try {
    std::rethrow_exception(error);
  } catch (const std::exception& e) {
    return e.what();
  } catch (...) {
    return "unknown exception";
  }
}

}  // namespace

Runner::Runner(Workload workload, CampaignSpec spec, std::string tmpdir,
               std::string reference)
    : workload_(workload),
      spec_(std::move(spec)),
      shard_count_(Campaign(spec_).scenario_count()),
      tmpdir_(std::move(tmpdir)),
      reference_(std::move(reference)) {}

Iteration Runner::run(bool traced) {
  Iteration it;
  it.traced = traced;
  it.attempted = shard_count_;
  const std::int64_t heap_base = heap::live_bytes();
  heap::reset_peak();
  const std::uint64_t allocations = heap::allocations();
  const CpuSeconds cpu = cpu_seconds();

  Outcome outcome;
  switch (workload_) {
    case Workload::fleet_mixed:
    case Workload::sweep_tiny:
      outcome = in_process(it);
      break;
    case Workload::sweep_durable:
      outcome = durable(it);
      break;
    case Workload::sweep_fabric:
      outcome = fabric(it);
      break;
  }

  // Read the counters before the checks, which allocate and read files.
  it.peak_heap_bytes = double(heap::peak_bytes() - heap_base);
  it.allocations = heap::allocations() - allocations;
  const CpuSeconds after = cpu_seconds();
  it.cpu = {after.self - cpu.self, after.children - cpu.children};
  check(it, outcome);
  return it;
}

Runner::Outcome Runner::in_process(Iteration& it) {
  Outcome outcome;
  ShardProbe probe(shard_count_, it.traced);
  CampaignSpec spec = spec_;
  spec.sinks = probe.factory();
  it.lanes = kInProcessWorkers;
  const std::int64_t start = now_ns();
  try {
    Campaign campaign(std::move(spec));
    outcome.report = campaign.run(kInProcessWorkers);
  } catch (...) {
    outcome.errors.push_back("campaign threw: " +
                             error_text(std::current_exception()));
  }
  const std::int64_t end = now_ns();
  it.wall_s = seconds_between(start, end);
  it.setup_s = setup_seconds(start, probe.first_start_ns(), end);
  it.stage = outcome.report.stage;
  it.probes = outcome.report.total_probes();
  it.events = outcome.report.total_events();
  it.frames = outcome.report.total_frames();
  if (it.traced) {
    adopt_spans(it, "testbed.Campaign::run", start, end,
                probe.finished_spans());
  }
  return outcome;
}

Runner::Outcome Runner::durable(Iteration& it) {
  Outcome outcome;
  const std::string checkpoint = tmpdir_ + "/durable.ckpt2";
  const std::string export_path = tmpdir_ + "/durable.jsonl";
  std::filesystem::remove(checkpoint);
  std::filesystem::remove(export_path);
  it.lanes = kInProcessWorkers;

  // Phase one is the killed first invocation: max_shards stops it after
  // half the grid. Phase two resumes from its checkpoint and appends to
  // its export.
  for (int phase = 1; phase <= 2 && outcome.errors.empty(); ++phase) {
    ShardProbe probe(shard_count_, it.traced);
    CampaignSpec spec = spec_;
    spec.checkpoint_path = checkpoint;
    spec.max_shards = phase == 1 ? shard_count_ / 2 : 0;
    const std::int64_t start = now_ns();
    try {
      auto writer = std::make_shared<acute::report::JsonlWriter>(
          export_path, /*append=*/phase == 2);
      spec.sinks = probe.factory(acute::report::jsonl_sink_factory(writer));
      Campaign campaign(std::move(spec));
      outcome.report = campaign.run(kInProcessWorkers);
    } catch (...) {
      outcome.errors.push_back("phase " + std::to_string(phase) +
                               " threw: " +
                               error_text(std::current_exception()));
    }
    const std::int64_t end = now_ns();
    it.wall_s += seconds_between(start, end);
    it.setup_s += setup_seconds(start, probe.first_start_ns(), end);
    add_stage(it.stage, outcome.report.stage);
    if (it.traced) {
      adopt_spans(it,
                  phase == 1 ? "testbed.Campaign::run (killed)"
                             : "testbed.Campaign::run (resume)",
                  start, end, probe.finished_spans());
      if (phase == 1) {
        // Kept for report.compact_s (outside the timed invocations).
        compaction_input_ = tmpdir_ + "/durable-phase1.ckpt2";
        std::filesystem::copy_file(
            checkpoint, compaction_input_,
            std::filesystem::copy_options::overwrite_existing);
      }
    }
  }
  // The resumed report folds the restored shards too, so its totals cover
  // both invocations' work.
  it.probes = outcome.report.total_probes();
  it.events = outcome.report.total_events();
  it.frames = outcome.report.total_frames();
  it.jsonl_bytes = file_size(export_path);
  return outcome;
}

Runner::Outcome Runner::fabric(Iteration& it) {
  Outcome outcome;
  const std::string checkpoint = tmpdir_ + "/fabric.ckpt2";
  std::filesystem::remove(checkpoint);
  CampaignSpec spec = spec_;
  spec.checkpoint_path = checkpoint;
  FabricProbe probe(kFabricWorkers, shard_count_, it.traced);
  it.lanes = kFabricWorkers;

  const std::int64_t start = now_ns();
  std::fflush(nullptr);
  std::vector<std::unique_ptr<acute::fabric::Transport>> coordinator_ends;
  std::vector<pid_t> children;
  for (std::size_t w = 0; w < kFabricWorkers; ++w) {
    auto [coordinator_end, worker_end] = acute::fabric::transport_pair();
    const pid_t pid = ::fork();
    if (pid < 0) {
      outcome.errors.push_back("fork failed");
      break;
    }
    if (pid == 0) {
      // The child keeps only its own end, so a sibling's death reaches
      // the coordinator as EOF.
      coordinator_ends.clear();
      coordinator_end.reset();
      int status = 0;
      try {
        std::unique_ptr<acute::fabric::Transport> transport =
            probe.wrap(std::move(worker_end), w);
        acute::fabric::Worker worker(spec_);
        (void)worker.run(*transport);
      } catch (const std::exception& error) {
        std::fprintf(stderr, "perfbench fabric worker %zu: %s\n", w,
                     error.what());
        status = 2;
      }
      std::_Exit(status);
    }
    worker_end.reset();
    coordinator_ends.push_back(std::move(coordinator_end));
    children.push_back(pid);
  }

  acute::fabric::Coordinator coordinator(spec);
  if (outcome.errors.empty()) {
    try {
      outcome.report = coordinator.run(std::move(coordinator_ends));
    } catch (...) {
      outcome.errors.push_back("coordinator threw: " +
                               error_text(std::current_exception()));
    }
  }
  coordinator_ends.clear();  // a failed run must not leave workers waiting
  for (const pid_t pid : children) {
    int status = 0;
    while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      outcome.errors.push_back("worker process " + std::to_string(pid) +
                               " failed");
    }
  }
  const std::int64_t end = now_ns();

  it.wall_s = seconds_between(start, end);
  it.setup_s = setup_seconds(start, probe.first_shard_ns(), end);
  it.fabric = coordinator.stats();
  it.stage = outcome.report.stage;
  it.probes = outcome.report.total_probes();
  it.events = outcome.report.total_events();
  it.frames = outcome.report.total_frames();
  if (it.fabric.workers_died > 0) {
    outcome.errors.push_back(std::to_string(it.fabric.workers_died) +
                             " fabric workers died");
  }
  if (it.traced) {
    adopt_spans(it, "fabric.Coordinator::run", start, end, probe.spans());
    compaction_input_ = tmpdir_ + "/fabric-final.ckpt2";
    std::filesystem::copy_file(
        checkpoint, compaction_input_,
        std::filesystem::copy_options::overwrite_existing);
  }
  return outcome;
}

void Runner::check(Iteration& it, const Outcome& outcome) const {
  std::vector<std::string> errors = outcome.errors;
  if (errors.empty()) {
    if (dump_report(outcome.report) != reference_) {
      errors.push_back("merged result differs from the reference");
    }
    if (outcome.report.completed_shards() != shard_count_) {
      errors.push_back("not every shard completed");
    }
  }
  if (errors.empty() && workload_ == Workload::sweep_durable) {
    // The compacted checkpoint: exactly one record per shard.
    std::vector<bool> seen(shard_count_, false);
    std::size_t records = 0;
    bool duplicate = false;
    acute::report::for_each_checkpoint(
        tmpdir_ + "/durable.ckpt2",
        [&](acute::report::ShardCheckpoint&& record) {
          const std::size_t index = record.summary.info.scenario_index;
          ++records;
          if (index >= seen.size() || seen[index]) {
            duplicate = true;
            return;
          }
          seen[index] = true;
        });
    if (duplicate || records != shard_count_) {
      errors.push_back("checkpoint does not hold exactly one record per "
                       "shard (" + std::to_string(records) + " records)");
    }
    // The export: one JSONL line per probe event, passive samples included.
    std::size_t events = outcome.report.total_probes();
    for (const acute::report::WorkloadDigest& digest :
         outcome.report.workload_digests()) {
      events += digest.passive_sniffer_samples + digest.passive_app_samples;
    }
    it.jsonl_lines = count_lines(tmpdir_ + "/durable.jsonl");
    if (it.jsonl_lines != events) {
      errors.push_back("JSONL export holds " + std::to_string(it.jsonl_lines) +
                       " lines for " + std::to_string(events) + " events");
    }
  }
  if (!errors.empty()) {
    it.correct = false;
    it.failure = errors.front();
  }
}

}  // namespace perfbench
