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
// What it folds is the shard record (report::ShardCheckpoint) itself: the
// one a worker thread's run_shard builds, a fabric worker ships as its
// shard_done line, and the checkpoint feeds back on resume.
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
// Combining fold: submit()/abandon() hold the frontier mutex only to park a
// result or mark a slot. One producer at a time holds the fold token and
// folds every ready index: it takes each item from the cursor under the
// mutex and folds it outside it, while every other producer returns to
// simulating at once. The token is claimed, and given up, under the same
// mutex hold that parks a result or finds the cursor waiting, so a result
// is always seen either by the current holder or by its own submitter —
// none can be stranded. The fold sequence is still the one ascending
// cursor walk, so the bits do not depend on which thread folds.
// Back-pressure: once the held map reaches a fixed bound, a submitter
// parks its result and then waits — until the map drops below the bound
// or the holder gives the token up — instead of leaving. That paces
// producers to the fold when they outrun it, keeping held shards
// O(producers + skew). A single producer, like the fabric coordinator,
// always finds the token free and never waits. Nothing here waits on a
// JSONL reorder window, so the frontier cannot deadlock against it.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "report/checkpoint.hpp"
#include "testbed/campaign.hpp"

namespace acute::testbed {

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
  /// ascending index order, by the fold-token holder (never concurrently).
  MergeFrontier(std::vector<Slot> slots,
                std::function<report::ShardCheckpoint(std::size_t)> feed,
                CampaignReport::FoldedTotals& totals);

  /// Parks a freshly-completed shard's record and, if the fold token is
  /// free, takes it and folds every ready index. A fold step that throws (a
  /// missing restored record, say) propagates from the call that ran it;
  /// the frontier is then failed: later submit()/abandon() calls drop their
  /// input and finalize() rethrows.
  void submit(std::size_t index, report::ShardCheckpoint&& record);

  /// Releases a failed shard's slot so the fold cannot stall on it (the
  /// failure itself is the caller's to rethrow/re-lease). Folds like
  /// submit(), and can throw like it.
  void abandon(std::size_t index);

  /// Waits for the fold token's holder to finish, then drains any
  /// skipped/restored tail after the producers stop; every fresh slot must
  /// have been submitted or abandoned by then. Rethrows a fold step's
  /// earlier failure.
  void finalize();

  /// Peak number of shards parked at once (memory telemetry).
  [[nodiscard]] std::size_t high_water() const;

  /// Held-map size at which submit() waits for the fold to catch up.
  [[nodiscard]] static std::size_t held_bound();

  /// Wall seconds the fold steps consumed (StageSeconds::merge). Read after
  /// finalize(). Folds run on whichever producer holds the fold token,
  /// concurrently with the other producers' simulation, so this is fold
  /// CPU time, not time on the critical path.
  [[nodiscard]] double fold_seconds() const { return fold_seconds_; }

 private:
  using Held = std::map<std::size_t, report::ShardCheckpoint>;

  void fold_if_idle(std::unique_lock<std::mutex>& lock);
  void wait_for_folder(std::unique_lock<std::mutex>& lock, bool for_room);
  [[nodiscard]] bool ready_locked() const;
  void fold(report::ShardCheckpoint&& record);

  // mu_ guards every member below except the fold state.
  mutable std::mutex mu_;
  // Signalled when the folder gives up its role or, while submitters wait
  // for room, when the held map drops below the bound.
  std::condition_variable folder_progress_;
  std::vector<Slot> slots_;
  Held held_;
  std::size_t cursor_ = 0;
  std::size_t high_water_ = 0;
  std::size_t waiting_ = 0;
  bool folding_ = false;  // the fold token: one producer folds at a time
  std::exception_ptr failure_;
  // Fold state: touched only by the thread that holds the fold token.
  std::function<report::ShardCheckpoint(std::size_t)> feed_;
  CampaignReport::FoldedTotals& totals_;
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
  std::function<report::ShardCheckpoint(std::size_t)> restored;
  /// Appender for newly completed shards; null without a checkpoint_path.
  std::unique_ptr<report::CheckpointWriter> checkpoint;
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
