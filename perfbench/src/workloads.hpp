// The benchmark's workloads: what each one runs, and how its merged result
// is checked.
//
// Every workload is built by exactly one spec builder below, and every
// builder goes through production_spec(), the single place that sets the
// campaign's mode fields (lazy ScenarioGrid, frontier merge,
// keep_samples=false). The benchmark generates each grid from its --seed;
// the library only ever sees the generated CampaignSpec.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

#include "testbed/campaign.hpp"

namespace perfbench {

enum class Workload { fleet_mixed, sweep_tiny, sweep_durable, sweep_fabric };

/// "fleet-mixed", "sweep-tiny", "sweep-durable", "sweep-fabric".
[[nodiscard]] const char* workload_name(Workload workload);
[[nodiscard]] std::optional<Workload> parse_workload(const std::string& name);

/// Workload size. `full` is the benchmark of record; `shrunk` is the
/// seconds-long variant the self-test runs end to end.
struct Scale {
  /// Shards of the sweep grid (rounded up to a multiple of 100).
  std::size_t sweep_shards = 20'000;
  /// fleet-mixed: probes per phone and the largest phone count.
  int fleet_probes = 50;
  bool fleet_four_phones = true;

  [[nodiscard]] static Scale full() { return {}; }
  [[nodiscard]] static Scale shrunk() { return {1'000, 5, false}; }
};

/// Threads of the in-process workloads; worker processes of sweep-fabric.
inline constexpr std::size_t kInProcessWorkers = 4;
inline constexpr std::size_t kFabricWorkers = 3;

/// The campaign `workload` runs for `seed` (no checkpoint path or sinks:
/// the runner adds those per invocation).
[[nodiscard]] acute::testbed::CampaignSpec workload_spec(Workload workload,
                                                         std::uint64_t seed,
                                                         const Scale& scale);

/// Canonical merged-result dump: shard counts, exact totals and every
/// workload digest with IEEE-754 bit patterns. Equal dumps ⇔ bit-identical
/// merges (the same format as acute_fabric --digest-out).
[[nodiscard]] std::string dump_report(
    const acute::testbed::CampaignReport& report);

/// The reference dump for `spec`: the same campaign run through the other
/// merge path — materialized scenario vector, buffered post-join merge,
/// three threads, no checkpoint, no sinks — in a forked child process, so
/// neither its memory nor its threads touch the measured process. Throws
/// when the child fails.
[[nodiscard]] std::string reference_dump(
    const acute::testbed::CampaignSpec& spec);

}  // namespace perfbench
