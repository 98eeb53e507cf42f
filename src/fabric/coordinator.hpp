// The fabric coordinator: owner of the shard space, the leases, the merge
// and the checkpoint — everything except shard execution itself.
//
// One coordinator serves any number of fabric::Worker peers. Each worker
// proves it holds the same campaign (hello: protocol, spec_hash, seed,
// shard count — any mismatch is rejected loudly), then pulls leases of
// contiguous scenario-index ranges. Completed shards stream back as ckpt2
// record lines; the coordinator parses each once, validates it with
// Campaign::check_record (index range, Rng(S).fork(i) seed,
// CampaignSpec::shard_hash) and against the sender's lease, appends the
// line verbatim to its own checkpoint file, and folds the first completion
// per index through testbed::MergeFrontier in ascending scenario order —
// so the merged digests are bit-identical to a single-process
// Campaign::run for any worker count, lease batch size and kill/re-lease
// schedule. Resume is
// not the coordinator's own code: it starts from testbed::plan_resume, the
// routine Campaign::run starts from, and leases the plan's pending shards.
//
// Failure matrix (docs/fabric.md):
//   worker death (EOF / torn frame)  → revoke its leases, log, re-lease
//   heartbeat expiry (stalled)       → expire the lease, re-lease with
//                                      backoff; the stalled worker's late
//                                      completions become duplicates
//   duplicate completion             → first merge wins (bytes identical by
//                                      determinism); the checkpoint keeps
//                                      every append and compaction applies
//                                      the shared last-wins rule
//   hash mismatch at hello           → reject frame + close, never leased
//   frame before hello / 2nd hello   → protocol violation: buried like a
//                                      torn frame, nothing folded
//   frame naming a lease the peer    → protocol violation: buried; a peer
//   does not hold, shard_done out of   can neither extend nor close another
//   its lease's range                  worker's lease, nor append for it
//   coordinator death                → its checkpoint file holds every
//                                      completed shard; the next run
//                                      restores, compacts and leases only
//                                      the remainder
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <ostream>
#include <vector>

#include "fabric/lease.hpp"
#include "fabric/transport.hpp"
#include "testbed/campaign.hpp"

namespace acute::fabric {

struct CoordinatorConfig {
  /// Lease sizing and expiry policy (see LeaseConfig).
  LeaseConfig lease;
  /// Loud-event log (worker joins/deaths, rejects, re-leases); nullptr
  /// silences it. The CI smoke job greps this output.
  std::ostream* log = nullptr;
};

/// Observability counters for benches, tests and the CLI summary.
struct CoordinatorStats {
  std::size_t workers_joined = 0;
  std::size_t workers_died = 0;    ///< EOF or torn frame with leases held
  std::size_t workers_rejected = 0;
  std::size_t leases_granted = 0;  ///< one lease_grant round-trip each
  std::size_t leases_expired = 0;  ///< heartbeat deadline passed
  std::size_t shards_merged = 0;   ///< first completions folded
  std::size_t duplicate_shards = 0;
};

class Coordinator {
 public:
  /// `spec` is the campaign being distributed. checkpoint_path, max_shards
  /// and seed behave exactly as in Campaign::run; keep_samples/retain_shards
  /// are ignored (the coordinator always merges frontier-style — it never
  /// sees raw samples, only digests).
  Coordinator(testbed::CampaignSpec spec, CoordinatorConfig config = {});

  /// Serves the campaign to completion: `workers` are already-connected
  /// transports (pipe mode / forked children); `listener`, when non-null,
  /// accepts additional worker processes as they arrive. Returns the merged
  /// report: CampaignReport::totals filled, `shards` empty.
  /// Contract violation when every worker is gone, none can arrive and
  /// shards are still pending.
  [[nodiscard]] testbed::CampaignReport run(
      std::vector<std::unique_ptr<Transport>> workers,
      UnixListener* listener = nullptr);

  [[nodiscard]] const CoordinatorStats& stats() const { return stats_; }

 private:
  struct Conn;

  testbed::Campaign campaign_;
  CoordinatorConfig config_;
  CoordinatorStats stats_;
};

}  // namespace acute::fabric
