// The merge frontier and the resume plan: the in-order fold that gives
// campaigns O(workers) report memory — and the fabric coordinator
// bit-identical merges — plus the one checkpoint-resume routine both
// Campaign::run and fabric::Coordinator::run start from.
//
// An in-order fold over scenario indices, same shape as the JSONL sink's
// reorder window. A cursor sweeps 0..N-1; each index is folded into the
// campaign-level FoldedTotals the moment every lower index has folded, then
// its digests are freed. Shards that complete ahead of the cursor wait in a
// held map — bounded in practice by the producer's ascending claim/lease
// order to O(producers × batch), the same skew bound as the JSONL window —
// so peak digest retention is O(producers), not O(shards).
//
// Order proof: the cursor visits indices strictly ascending and folds
// exactly the shards a retained run keeps completed (fresh submissions,
// checkpoint-restored records, nothing for skipped/abandoned ones), so the
// fold sequence is identical to Campaign::run's post-join reference loop
// over CampaignReport::shards — bit-identical digests and double sums for
// any producer count and across kill/resume. That holds whether the
// producers are Campaign::run's worker threads or fabric worker *processes*
// streaming ckpt2 records to a coordinator: the frontier never sees the
// difference.
//
// submit()/abandon() never block: the caller either advances the cursor
// itself (folding under the mutex) or parks its result and returns, so the
// frontier cannot deadlock against the JSONL reorder window (both are
// drained in the same ascending order by whoever holds the release point).
#pragma once

#include <cstddef>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "report/checkpoint.hpp"
#include "testbed/campaign.hpp"

namespace acute::testbed {

/// Rebuilds the ShardResult view a completed shard would have produced with
/// keep_samples=false from its checkpoint record (digests deserialize
/// bit-identically; raw sample vectors are not checkpointed). Consumes the
/// record's digests.
[[nodiscard]] ShardResult shard_result_from_checkpoint(
    report::ShardCheckpoint&& record);

/// See the file comment. Thread-safe; a reference to the FoldedTotals the
/// fold writes into must outlive the frontier.
class MergeFrontier {
 public:
  /// How the cursor treats each scenario index.
  enum class Slot : unsigned char {
    skipped,   ///< will not complete this run (max_shards cap / abandoned)
    restored,  ///< fed from the compacted checkpoint, in file order
    fresh,     ///< a pending shard; a producer will submit() or abandon() it
  };

  /// `feed` returns the next restored shard from the (ascending, unique)
  /// compacted checkpoint; called exactly once per `restored` slot, in
  /// ascending index order, under the frontier lock.
  MergeFrontier(std::vector<Slot> slots,
                std::function<ShardResult(std::size_t)> feed,
                CampaignReport::FoldedTotals& totals);

  /// Folds a freshly-completed shard, or parks it until the cursor arrives.
  void submit(std::size_t index, ShardResult&& result);

  /// Releases a failed shard's slot so the fold cannot stall on it (the
  /// failure itself is the caller's to rethrow/re-lease).
  void abandon(std::size_t index);

  /// Drains any skipped/restored tail after the producers stop; every fresh
  /// slot must have been submitted or abandoned by then.
  void finalize();

  /// Peak number of out-of-order shards parked at once (memory telemetry).
  [[nodiscard]] std::size_t high_water() const { return high_water_; }

  /// Wall seconds the fold steps consumed (StageSeconds::merge). Read after
  /// finalize() — the fold runs under the frontier lock on whichever
  /// producer advances the cursor, so the sum is cross-producer like
  /// build/sink.
  [[nodiscard]] double fold_seconds() const { return fold_seconds_; }

 private:
  void advance_locked();
  void fold(ShardResult&& result);

  std::mutex mu_;
  std::vector<Slot> slots_;
  std::function<ShardResult(std::size_t)> feed_;
  CampaignReport::FoldedTotals& totals_;
  std::map<std::size_t, ShardResult> held_;
  std::size_t cursor_ = 0;
  std::size_t high_water_ = 0;
  double fold_seconds_ = 0;
};

/// Everything a campaign run knows before its first shard executes; see
/// plan_resume().
struct ResumePlan {
  /// Every scenario index classified for the fold (MergeFrontier's slots).
  std::vector<MergeFrontier::Slot> slots;
  /// The fresh indices, ascending: the run's claim (or lease) order.
  std::vector<std::size_t> pending;
  /// Restored-record feed over the compacted checkpoint: call once per
  /// restored slot, in ascending index order (MergeFrontier's feed).
  std::function<ShardResult(std::size_t)> restored;
  /// Appender for newly completed shards; null without a checkpoint_path.
  std::shared_ptr<report::CheckpointWriter> checkpoint;
  std::size_t restored_count = 0;
  double restore_seconds = 0;
};

/// The one checkpoint-resume routine. With CampaignSpec::checkpoint_path
/// set it streams the file through Campaign::check_record (a stale or
/// foreign record is a contract violation), compacts it to one ascending
/// line per shard (the shared last-wins rule), opens the feed over the
/// compacted lines and then the appender. Every index not restored becomes
/// fresh, up to CampaignSpec::max_shards of them; the rest are skipped.
[[nodiscard]] ResumePlan plan_resume(const Campaign& campaign);

}  // namespace acute::testbed
