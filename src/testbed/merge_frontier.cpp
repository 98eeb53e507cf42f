#include "testbed/merge_frontier.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "sim/contracts.hpp"

namespace acute::testbed {

using sim::expects;

namespace {

// Held-map size at which submit() stops leaving the fold to the token
// holder and waits for it to catch up. At 4 workers on the scaling grid
// the held map stays below it; it paces producers that outrun the fold
// (e.g. far more workers than cores), keeping memory O(workers + skew).
constexpr std::size_t kHeldBound = 256;

}  // namespace

MergeFrontier::MergeFrontier(
    std::vector<Slot> slots,
    std::function<report::ShardCheckpoint(std::size_t)> feed,
    CampaignReport::FoldedTotals& totals)
    : slots_(std::move(slots)), feed_(std::move(feed)), totals_(totals) {
  // Fold any leading restored/skipped run right away, before any producer
  // exists.
  std::unique_lock<std::mutex> lock(mu_);
  fold_if_idle(lock);
}

void MergeFrontier::submit(std::size_t index,
                           report::ShardCheckpoint&& record) {
  std::unique_lock<std::mutex> lock(mu_);
  if (failure_ != nullptr) return;  // finalize() reports the failure
  expects(index < slots_.size() && slots_[index] == Slot::fresh &&
              index >= cursor_ && !held_.contains(index),
          "MergeFrontier::submit on a non-pending slot");
  held_.emplace(index, std::move(record));
  high_water_ = std::max(high_water_, held_.size());
  if (held_.size() >= kHeldBound) wait_for_folder(lock, /*for_room=*/true);
  fold_if_idle(lock);
}

void MergeFrontier::abandon(std::size_t index) {
  std::unique_lock<std::mutex> lock(mu_);
  if (failure_ != nullptr) return;
  expects(index < slots_.size() && slots_[index] == Slot::fresh &&
              index >= cursor_ && !held_.contains(index),
          "MergeFrontier::abandon on a non-pending slot");
  slots_[index] = Slot::skipped;
  fold_if_idle(lock);
}

void MergeFrontier::finalize() {
  std::unique_lock<std::mutex> lock(mu_);
  wait_for_folder(lock, /*for_room=*/false);
  fold_if_idle(lock);
  if (failure_ != nullptr) std::rethrow_exception(failure_);
  expects(cursor_ == slots_.size() && held_.empty(),
          "MergeFrontier::finalize with unfolded shards");
}

std::size_t MergeFrontier::high_water() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return high_water_;
}

std::size_t MergeFrontier::held_bound() { return kHeldBound; }

// Blocks until the token holder gives the token up (or the fold failed);
// with `for_room`, also until the held map has dropped below the bound.
void MergeFrontier::wait_for_folder(std::unique_lock<std::mutex>& lock,
                                    bool for_room) {
  ++waiting_;
  folder_progress_.wait(lock, [&] {
    return !folding_ || failure_ != nullptr ||
           (for_room && held_.size() < kHeldBound);
  });
  --waiting_;
}

bool MergeFrontier::ready_locked() const {
  if (failure_ != nullptr || cursor_ == slots_.size()) return false;
  return slots_[cursor_] != Slot::fresh || held_.contains(cursor_);
}

// Takes the fold token unless another producer holds it, then folds every
// ready index, dropping mu_ around each fold step. The token is given up in
// the same mu_ hold that finds the cursor waiting on an unsubmitted shard,
// so a later submit() finds it free. A throwing fold step fails the
// frontier and releases the token.
void MergeFrontier::fold_if_idle(std::unique_lock<std::mutex>& lock) {
  if (folding_) return;
  folding_ = true;
  while (ready_locked()) {
    const std::size_t index = cursor_++;
    if (slots_[index] == Slot::skipped) continue;
    Held::node_type parked;
    if (slots_[index] == Slot::fresh) parked = held_.extract(index);
    if (waiting_ > 0 && held_.size() + 1 == kHeldBound) {
      folder_progress_.notify_all();  // room again for paced submitters
    }
    lock.unlock();
    try {
      if (parked) {
        fold(std::move(parked.mapped()));
        parked = {};
      } else {
        fold(feed_(index));  // restored: the feed reads outside mu_
      }
    } catch (...) {
      lock.lock();
      failure_ = std::current_exception();
      folding_ = false;
      folder_progress_.notify_all();
      throw;
    }
    lock.lock();
  }
  folding_ = false;
  if (waiting_ > 0) folder_progress_.notify_all();
}

// The one fold step: counters in ascending scenario order (so double sums
// match the buffered accessors bit for bit), then the consuming digest
// merge that frees the shard's buffers.
void MergeFrontier::fold(report::ShardCheckpoint&& record) {
  const auto start = std::chrono::steady_clock::now();
  const report::ShardSummary& summary = record.summary;
  ++totals_.completed;
  totals_.probes += summary.probes_sent;
  totals_.lost += summary.probes_lost;
  totals_.frames += summary.frames_on_air;
  totals_.events += summary.events_fired;
  totals_.sim_seconds += summary.sim_seconds;
  totals_.workloads.fold_shard(std::move(record.digests));
  fold_seconds_ += std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count();
}

ResumePlan plan_resume(const Campaign& campaign) {
  const CampaignSpec& spec = campaign.spec();
  const std::size_t shard_count = campaign.scenario_count();
  ResumePlan plan;
  plan.slots.assign(shard_count, MergeFrontier::Slot::skipped);
  std::shared_ptr<report::CheckpointReader> reader;
  if (!spec.checkpoint_path.empty()) {
    const auto start = std::chrono::steady_clock::now();
    report::for_each_checkpoint(
        spec.checkpoint_path, [&](report::ShardCheckpoint&& record) {
          campaign.check_record(record);
          MergeFrontier::Slot& slot =
              plan.slots[record.summary.info.scenario_index];
          if (slot != MergeFrontier::Slot::restored) {
            slot = MergeFrontier::Slot::restored;
            ++plan.restored_count;
          }
        });
    // Rewrite the file to exactly one record per completed shard (drops
    // torn fragments and duplicate re-runs), so a many-times-resumed
    // sweep's checkpoint stays O(completed shards); the feed then reads it
    // front to back, which is ascending-unique — file order == fold order.
    if (plan.restored_count > 0) {
      report::compact_checkpoint(spec.checkpoint_path);
    }
    reader = std::make_shared<report::CheckpointReader>(spec.checkpoint_path);
    plan.checkpoint =
        std::make_unique<report::CheckpointWriter>(spec.checkpoint_path);
    plan.restore_seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
  }
  plan.restored = [reader](std::size_t expected_index) {
    report::ShardCheckpoint record;
    expects(reader != nullptr && reader->next(record),
            "campaign resume: compacted checkpoint exhausted before all "
            "restored shards were folded");
    expects(record.summary.info.scenario_index == expected_index,
            "campaign resume: compacted checkpoint out of order");
    return record;
  };

  // The kill / incremental-sweep knob caps how many pending shards this
  // invocation executes; the cut is the scenario-order prefix, so resumes
  // walk the campaign front to back.
  const std::size_t cap = spec.max_shards > 0 ? spec.max_shards : shard_count;
  plan.pending.reserve(std::min(cap, shard_count));
  for (std::size_t i = 0; i < shard_count && plan.pending.size() < cap; ++i) {
    if (plan.slots[i] == MergeFrontier::Slot::restored) continue;
    plan.slots[i] = MergeFrontier::Slot::fresh;
    plan.pending.push_back(i);
  }
  return plan;
}

}  // namespace acute::testbed
