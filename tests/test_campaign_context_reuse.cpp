// The shard-context pool's hard constraint, pinned bit for bit: a shard
// executed on a REUSED ShardContext (warm simulator, rebuilt testbed,
// reinitialized tools, reset sink scratch) must produce byte-identical
// results to one executed on a fresh context — digests (compared through
// their exact IEEE-754 serialization), JSONL export bytes and checkpoint
// records — for any worker count and across kill/resume ticks. The grid
// deliberately changes shape between consecutive shards (phone count,
// radio, cross traffic, tool kind, passive vantages, netem axes) so every
// reset transition of the pool is exercised, not just the same-shape fast
// path.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "report/jsonl_sink.hpp"
#include "stats/digest_io.hpp"
#include "testbed/campaign.hpp"

namespace acute::testbed {
namespace {

using sim::Duration;

struct TempFile {
  explicit TempFile(const std::string& name)
      : path("context_reuse_test_" + name) {
    std::remove(path.c_str());
  }
  ~TempFile() { std::remove(path.c_str()); }
  std::string path;
};

std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Exact serialization of a digest vector, passive accumulators included:
/// write_digest emits the IEEE-754 bit patterns of every centroid, so equal
/// strings mean equal bits.
std::string digest_bytes(const std::vector<report::WorkloadDigest>& digests) {
  std::ostringstream out;
  for (const report::WorkloadDigest& digest : digests) {
    out << static_cast<int>(digest.tool) << ' ' << digest.probes << ' '
        << digest.lost << ' ' << digest.passive_sniffer_samples << ' '
        << digest.passive_app_samples << '\n';
    stats::write_digest(out, digest.reported_rtt_ms);
    stats::write_digest(out, digest.du_ms);
    stats::write_digest(out, digest.dk_ms);
    stats::write_digest(out, digest.dv_ms);
    stats::write_digest(out, digest.dn_ms);
    stats::write_digest(out, digest.passive_sniffer_rtt_ms);
    stats::write_digest(out, digest.passive_app_rtt_ms);
  }
  return out.str();
}

WorkloadSpec workload(tools::ToolKind tool,
                      passive::PassiveVantage vantage =
                          passive::PassiveVantage::none) {
  WorkloadSpec spec;
  spec.tool = tool;
  spec.passive = vantage;
  return spec;
}

/// A grid whose consecutive shards change shape: the innermost axis flips
/// the tool kind (httping with both passive vantages attached), then loss,
/// then cross traffic, then RTT, then the radio, then the phone count — so
/// a context that just ran a 1-phone WiFi ping shard is next reset into
/// (eventually) a 3-phone cellular AcuteMon shard under iPerf load.
CampaignSpec shape_shifting_spec() {
  ScenarioGrid grid;
  grid.phone_counts = {1, 3};
  grid.radios = {phone::RadioKind::wifi, phone::RadioKind::cellular};
  grid.emulated_rtts = {Duration::millis(10), Duration::millis(30)};
  grid.cross_traffic = {false, true};
  grid.loss_rates = {0.0, 0.05};
  grid.workloads = {
      workload(tools::ToolKind::icmp_ping), workload(tools::ToolKind::acutemon),
      workload(tools::ToolKind::httping, passive::PassiveVantage::both),
      workload(tools::ToolKind::java_ping)};
  CampaignSpec spec;
  spec.seed = 7;
  spec.scenarios = grid.expand();  // 128 shards
  spec.probes_per_phone = 2;
  spec.probe_interval = Duration::millis(50);
  spec.probe_timeout = Duration::millis(400);
  spec.settle = Duration::millis(50);
  spec.keep_samples = false;
  return spec;
}

/// Shard indices tool-major: every shard of the first workload, then the
/// second's, and so on (the workload is the grid's innermost axis). Each
/// step keeps the tool kind while phone count, radio, RTT, cross traffic
/// or loss shift, so a context reinitializes its tools instead of
/// replacing them. The natural order, where the tool kind flips every
/// shard, runs in the single-worker sweeps below.
std::vector<std::size_t> tool_major_order(std::size_t shard_count) {
  const std::size_t tool_count = 4;  // shape_shifting_spec's workloads
  std::vector<std::size_t> order;
  for (std::size_t tool = 0; tool < tool_count; ++tool) {
    for (std::size_t i = tool; i < shard_count; i += tool_count) {
      order.push_back(i);
    }
  }
  return order;
}

TEST(CampaignContextReuse, ReusedShardsMatchFreshBitForBit) {
  Campaign campaign(shape_shifting_spec());
  ShardContext context;
  for (const std::size_t i : tool_major_order(campaign.scenario_count())) {
    const ShardResult fresh = campaign.run_shard(i);
    const ShardResult reused = campaign.run_shard(i, context);
    ASSERT_TRUE(fresh.completed);
    ASSERT_TRUE(reused.completed);
    EXPECT_EQ(fresh.scenario_index, reused.scenario_index);
    EXPECT_EQ(fresh.shard_seed, reused.shard_seed);
    EXPECT_EQ(fresh.phone_count, reused.phone_count);
    EXPECT_EQ(fresh.probes_sent, reused.probes_sent);
    EXPECT_EQ(fresh.probes_lost, reused.probes_lost);
    EXPECT_EQ(fresh.frames_on_air, reused.frames_on_air);
    EXPECT_EQ(fresh.events_fired, reused.events_fired);
    EXPECT_EQ(fresh.sim_seconds, reused.sim_seconds);
    EXPECT_EQ(digest_bytes(fresh.digests), digest_bytes(reused.digests))
        << "shard " << i << " digests differ between fresh and reused";
  }
  EXPECT_EQ(context.shards_run(), campaign.scenario_count());
  EXPECT_EQ(context.reuses(), campaign.scenario_count() - 1);
}

TEST(CampaignContextReuse, RawSampleVectorsMatchFresh) {
  CampaignSpec spec = shape_shifting_spec();
  spec.keep_samples = true;
  Campaign campaign(spec);
  ShardContext context;
  for (const std::size_t i : tool_major_order(campaign.scenario_count())) {
    const ShardResult fresh = campaign.run_shard(i);
    const ShardResult reused = campaign.run_shard(i, context);
    EXPECT_EQ(fresh.reported_rtt_ms, reused.reported_rtt_ms);
    EXPECT_EQ(fresh.du_ms, reused.du_ms);
    EXPECT_EQ(fresh.dk_ms, reused.dk_ms);
    EXPECT_EQ(fresh.dv_ms, reused.dv_ms);
    EXPECT_EQ(fresh.dn_ms, reused.dn_ms);
    EXPECT_EQ(fresh.passive_sniffer_rtt_ms, reused.passive_sniffer_rtt_ms);
    EXPECT_EQ(fresh.passive_app_rtt_ms, reused.passive_app_rtt_ms);
  }
}

/// The campaign pool reuses one context per worker; the merged report and
/// the JSONL export must be the same bytes at 1 worker (one context runs
/// every shape transition) and 8 workers (each context sees a subsequence).
TEST(CampaignContextReuse, JsonlAndDigestsIdenticalAcrossWorkerCounts) {
  std::string reference_digests;
  std::string reference_jsonl;
  for (const std::size_t workers : {std::size_t{1}, std::size_t{8}}) {
    TempFile jsonl("workers_" + std::to_string(workers) + ".jsonl");
    CampaignSpec spec = shape_shifting_spec();
    {
      auto writer = std::make_shared<report::JsonlWriter>(jsonl.path);
      spec.sinks = report::jsonl_sink_factory(writer);
      Campaign campaign(spec);
      const CampaignReport report = campaign.run(workers);
      EXPECT_EQ(report.completed_shards(), campaign.scenario_count());
      const std::string digests = digest_bytes(report.workload_digests());
      if (reference_digests.empty()) {
        reference_digests = digests;
      } else {
        EXPECT_EQ(digests, reference_digests)
            << workers << "-worker digests differ from the 1-worker run";
      }
    }
    const std::string bytes = file_bytes(jsonl.path);
    ASSERT_FALSE(bytes.empty());
    if (reference_jsonl.empty()) {
      reference_jsonl = bytes;
    } else {
      EXPECT_EQ(bytes, reference_jsonl)
          << workers << "-worker JSONL differs from the 1-worker run";
    }
  }
}

/// Kill/resume across checkpointed ticks, reused contexts throughout: the
/// final merged digests and the compacted checkpoint file must be byte
/// identical to an uninterrupted single-worker run's.
TEST(CampaignContextReuse, CheckpointTicksMatchUninterruptedRun) {
  // Reference: one uninterrupted 1-worker sweep.
  TempFile reference_ckpt("reference.ckpt");
  CampaignSpec reference_spec = shape_shifting_spec();
  reference_spec.checkpoint_path = reference_ckpt.path;
  const CampaignReport reference = Campaign(reference_spec).run(1);
  const std::string reference_digests =
      digest_bytes(reference.workload_digests());

  // Ticked: 8-worker increments of at most 48 shards, a fresh Campaign per
  // tick — nothing but the checkpoint file carries state across ticks.
  TempFile ticked_ckpt("ticked.ckpt");
  CampaignReport ticked;
  for (int tick = 0; tick < 4; ++tick) {
    CampaignSpec tick_spec = shape_shifting_spec();
    tick_spec.checkpoint_path = ticked_ckpt.path;
    tick_spec.max_shards = 48;
    ticked = Campaign(tick_spec).run(8);
    if (ticked.completed_shards() == ticked.shard_count()) break;
  }
  EXPECT_EQ(ticked.completed_shards(), reference.completed_shards());
  EXPECT_EQ(digest_bytes(ticked.workload_digests()), reference_digests);
  EXPECT_EQ(ticked.total_probes(), reference.total_probes());
  EXPECT_EQ(ticked.total_lost(), reference.total_lost());

  // Raw files may order lines by completion; compact both through one more
  // resume (load rewrites the file in ascending scenario order) and the
  // bytes must then match exactly.
  for (const std::string* path : {&reference_ckpt.path, &ticked_ckpt.path}) {
    CampaignSpec compact_spec = shape_shifting_spec();
    compact_spec.checkpoint_path = *path;
    const CampaignReport compacted = Campaign(compact_spec).run(1);
    EXPECT_EQ(compacted.completed_shards(), compacted.shard_count());
    EXPECT_EQ(digest_bytes(compacted.workload_digests()), reference_digests);
  }
  const std::string reference_bytes = file_bytes(reference_ckpt.path);
  ASSERT_FALSE(reference_bytes.empty());
  EXPECT_EQ(file_bytes(ticked_ckpt.path), reference_bytes)
      << "compacted checkpoints differ between ticked 8-worker and "
         "uninterrupted 1-worker sweeps";
}

/// Frontier mode (the 10^5+-shard configuration): folded accumulators are
/// byte-identical across worker counts with contexts reused per worker.
TEST(CampaignContextReuse, FrontierFoldIdenticalAcrossWorkerCounts) {
  CampaignSpec spec = shape_shifting_spec();
  spec.retain_shards = false;
  std::string reference;
  for (const std::size_t workers : {std::size_t{1}, std::size_t{8}}) {
    const CampaignReport report = Campaign(spec).run(workers);
    EXPECT_EQ(report.completed_shards(), report.shard_count());
    const std::string digests = digest_bytes(report.workload_digests());
    if (reference.empty()) {
      reference = digests;
    } else {
      EXPECT_EQ(digests, reference);
    }
  }
}

}  // namespace
}  // namespace acute::testbed
