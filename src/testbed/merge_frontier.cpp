#include "testbed/merge_frontier.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "sim/contracts.hpp"

namespace acute::testbed {

using sim::expects;

ShardResult shard_result_from_checkpoint(report::ShardCheckpoint&& record) {
  ShardResult restored;
  restored.completed = true;
  restored.scenario_index = record.summary.info.scenario_index;
  restored.shard_seed = record.summary.info.shard_seed;
  restored.phone_count = record.summary.info.phone_count;
  restored.probes_sent = record.summary.probes_sent;
  restored.probes_lost = record.summary.probes_lost;
  restored.frames_on_air = record.summary.frames_on_air;
  restored.events_fired = record.summary.events_fired;
  restored.sim_seconds = record.summary.sim_seconds;
  restored.digests = std::move(record.digests);
  return restored;
}

MergeFrontier::MergeFrontier(std::vector<Slot> slots,
                             std::function<ShardResult(std::size_t)> feed,
                             CampaignReport::FoldedTotals& totals)
    : slots_(std::move(slots)), feed_(std::move(feed)), totals_(totals) {
  // Fold any leading restored/skipped run right away: the cursor must
  // always rest on a fresh slot (or the end), or a resumed tick's fresh
  // results would all park behind a restored prefix no submit can match.
  const std::lock_guard<std::mutex> lock(mu_);
  advance_locked();
}

void MergeFrontier::submit(std::size_t index, ShardResult&& result) {
  const std::lock_guard<std::mutex> lock(mu_);
  expects(index < slots_.size() && slots_[index] == Slot::fresh,
          "MergeFrontier::submit on a non-pending slot");
  held_.emplace(index, std::move(result));
  high_water_ = std::max(high_water_, held_.size());
  advance_locked();
}

void MergeFrontier::abandon(std::size_t index) {
  const std::lock_guard<std::mutex> lock(mu_);
  expects(index < slots_.size() && slots_[index] == Slot::fresh,
          "MergeFrontier::abandon on a non-pending slot");
  slots_[index] = Slot::skipped;
  advance_locked();
}

void MergeFrontier::finalize() {
  const std::lock_guard<std::mutex> lock(mu_);
  advance_locked();
  expects(cursor_ == slots_.size() && held_.empty(),
          "MergeFrontier::finalize with unfolded shards");
}

void MergeFrontier::advance_locked() {
  while (cursor_ < slots_.size()) {
    switch (slots_[cursor_]) {
      case Slot::skipped:
        ++cursor_;
        break;
      case Slot::restored:
        fold(feed_(cursor_));
        ++cursor_;
        break;
      case Slot::fresh: {
        const auto it = held_.find(cursor_);
        if (it == held_.end()) return;  // a producer still owns this index
        fold(std::move(it->second));
        held_.erase(it);
        ++cursor_;
        break;
      }
    }
  }
}

// The one fold step: counters in ascending scenario order (so double sums
// match the buffered accessors bit for bit), then the consuming digest
// merge that frees the shard's buffers.
void MergeFrontier::fold(ShardResult&& result) {
  const auto start = std::chrono::steady_clock::now();
  ++totals_.completed;
  totals_.probes += result.probes_sent;
  totals_.lost += result.probes_lost;
  totals_.frames += result.frames_on_air;
  totals_.events += result.events_fired;
  totals_.sim_seconds += result.sim_seconds;
  totals_.workloads.fold_shard(std::move(result.digests));
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
        std::make_shared<report::CheckpointWriter>(spec.checkpoint_path);
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
    return shard_result_from_checkpoint(std::move(record));
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
