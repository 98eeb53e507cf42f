// One execution of a workload ("iteration"), measured from outside the
// library and checked against the reference dump.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "fabric/coordinator.hpp"
#include "testbed/campaign.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

/// CPU seconds (user + system) of this process and of its reaped children.
struct CpuSeconds {
  double self = 0;
  double children = 0;
};

struct Iteration {
  bool traced = false;
  /// False when the merged result or a durability check disagreed, a shard
  /// threw or a worker died; `failure` says which.
  bool correct = true;
  std::string failure;
  /// Shards this iteration attempted (every invocation counted once per
  /// shard it ran).
  std::size_t attempted = 0;

  /// Wall seconds of the campaign invocations (set-up included).
  double wall_s = 0;
  /// Wall seconds from each invocation's call to its first shard start,
  /// summed over the invocations.
  double setup_s = 0;
  /// Probes simulated (lost ones included), events fired and frames on air
  /// across every invocation.
  std::size_t probes = 0;
  std::uint64_t events = 0;
  std::uint64_t frames = 0;

  /// Highest live heap above the iteration's starting point, and operator
  /// new calls during the iteration (benchmark process: for sweep-fabric,
  /// the coordinator).
  double peak_heap_bytes = 0;
  std::uint64_t allocations = 0;
  /// CPU seconds spent during the invocations.
  CpuSeconds cpu;

  /// CampaignReport::stage, summed over the invocations.
  acute::testbed::StageSeconds stage;
  /// sweep-fabric only.
  acute::fabric::CoordinatorStats fabric;
  /// sweep-durable only: the JSONL export's size.
  std::size_t jsonl_bytes = 0;
  std::size_t jsonl_lines = 0;

  /// Traced iterations: the invocation spans and one span per shard, and
  /// the most shards finished but not yet foldable at any instant.
  std::vector<CallSpan> calls;
  std::vector<ShardSpan> shards;
  std::size_t held_peak = 0;
  /// Worker lanes (threads or processes) the shards ran on.
  std::size_t lanes = 0;
};

class Runner {
 public:
  /// `tmpdir` receives the checkpoint and JSONL files. `reference` is the
  /// dump every iteration's merged result must equal.
  Runner(Workload workload, acute::testbed::CampaignSpec spec,
         std::string tmpdir, std::string reference);

  /// Runs the workload once and checks its result.
  [[nodiscard]] Iteration run(bool traced);

  [[nodiscard]] const acute::testbed::CampaignSpec& spec() const {
    return spec_;
  }
  [[nodiscard]] std::size_t shard_count() const { return shard_count_; }

  /// A checkpoint file this workload's resume path would compact: the
  /// phase-one file of sweep-durable, the coordinator's file of
  /// sweep-fabric, saved by the last traced iteration. Empty otherwise.
  [[nodiscard]] const std::string& compaction_input() const {
    return compaction_input_;
  }

 private:
  /// What an execution leaves for the checks that follow it.
  struct Outcome {
    acute::testbed::CampaignReport report;
    std::vector<std::string> errors;
  };

  Outcome in_process(Iteration& it);
  Outcome durable(Iteration& it);
  Outcome fabric(Iteration& it);
  void check(Iteration& it, const Outcome& outcome) const;

  Workload workload_;
  acute::testbed::CampaignSpec spec_;
  std::size_t shard_count_;
  std::string tmpdir_;
  std::string reference_;
  std::string compaction_input_;
};

}  // namespace perfbench
