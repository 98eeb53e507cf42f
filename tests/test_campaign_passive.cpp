// The passive campaign axis, pinned bit for bit: a grid mixing active-only
// and passive-vantage workloads must merge byte-identically for any worker
// count, on fresh and reused shard contexts, and across kill/resume ticks
// in frontier mode — and the passive observers must be pure observers (a
// workload with a passive vantage produces the exact same ACTIVE samples
// as the same workload without it).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "report/jsonl_sink.hpp"
#include "sim/contracts.hpp"
#include "stats/digest_io.hpp"
#include "testbed/campaign.hpp"

namespace acute::testbed {
namespace {

using passive::PassiveVantage;
using sim::Duration;
using tools::ToolKind;

struct TempFile {
  explicit TempFile(const std::string& name)
      : path("campaign_passive_test_" + name) {
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
/// write_digest emits IEEE-754 bit patterns, so equal strings = equal bits.
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

WorkloadSpec workload(ToolKind tool, PassiveVantage vantage) {
  WorkloadSpec spec;
  spec.tool = tool;
  spec.passive = vantage;
  return spec;
}

/// The acceptance grid: active-only, sniffer-only, exec-env-only and
/// both-vantage workloads mixed with multi-phone scenarios (two phones on
/// one channel share one sniffer and collide on equal per-phone flow ids,
/// so the estimator's (node, flow) keying is exercised, not just assumed).
CampaignSpec passive_mix_spec() {
  ScenarioGrid grid;
  grid.phone_counts = {1, 2};
  grid.emulated_rtts = {Duration::millis(10)};
  grid.workloads = {workload(ToolKind::icmp_ping, PassiveVantage::none),
                    workload(ToolKind::java_ping, PassiveVantage::sniffer),
                    workload(ToolKind::httping, PassiveVantage::both),
                    workload(ToolKind::acutemon, PassiveVantage::exec_env)};
  CampaignSpec spec;
  spec.seed = 2016;
  spec.scenarios = grid.expand();  // 8 shards
  spec.probes_per_phone = 4;
  spec.probe_interval = Duration::millis(60);
  spec.probe_timeout = Duration::millis(900);
  spec.settle = Duration::millis(60);
  return spec;
}

TEST(CampaignPassive, PassiveSamplesFlowIntoDigestsAndBuffers) {
  Campaign campaign(passive_mix_spec());
  // Shard 1: one phone, java_ping + sniffer vantage.
  const ShardResult sniffer_shard = campaign.run_shard(1);
  ASSERT_EQ(sniffer_shard.digests.size(), 1u);
  EXPECT_EQ(sniffer_shard.digests[0].tool, ToolKind::java_ping);
  EXPECT_EQ(sniffer_shard.digests[0].passive_sniffer_samples, 4u);
  EXPECT_EQ(sniffer_shard.digests[0].passive_app_samples, 0u);
  EXPECT_EQ(sniffer_shard.passive_sniffer_rtt_ms.size(), 4u);
  EXPECT_TRUE(sniffer_shard.passive_app_rtt_ms.empty());
  // Passive samples never count as probes.
  EXPECT_EQ(sniffer_shard.probes_sent, 4u);

  // Shard 2: one phone, httping + both vantages (httping = N+1 exchanges).
  const ShardResult both_shard = campaign.run_shard(2);
  ASSERT_EQ(both_shard.digests.size(), 1u);
  EXPECT_EQ(both_shard.digests[0].passive_sniffer_samples, 5u);
  EXPECT_EQ(both_shard.digests[0].passive_app_samples, 5u);
  EXPECT_EQ(both_shard.probes_sent, 4u);

  // Shard 0: active-only control — every passive surface stays empty.
  const ShardResult control = campaign.run_shard(0);
  ASSERT_EQ(control.digests.size(), 1u);
  EXPECT_EQ(control.digests[0].passive_sniffer_samples, 0u);
  EXPECT_EQ(control.digests[0].passive_app_samples, 0u);
  EXPECT_TRUE(control.passive_sniffer_rtt_ms.empty());
  EXPECT_TRUE(control.passive_app_rtt_ms.empty());
}

TEST(CampaignPassive, ObserversDoNotPerturbTheActiveMeasurement) {
  // The same scenario with and without passive vantage points must report
  // the exact same active samples: attaching an observer is not allowed to
  // shift a single event in the simulation.
  CampaignSpec with = passive_mix_spec();
  CampaignSpec without = passive_mix_spec();
  for (ScenarioSpec& scenario : without.scenarios) {
    for (PhoneSpec& phone : scenario.phones) {
      phone.workload.passive = PassiveVantage::none;
    }
  }
  for (std::size_t i = 0; i < with.scenarios.size(); ++i) {
    const ShardResult observed = Campaign(with).run_shard(i);
    const ShardResult plain = Campaign(without).run_shard(i);
    EXPECT_EQ(observed.reported_rtt_ms, plain.reported_rtt_ms) << "shard " << i;
    EXPECT_EQ(observed.du_ms, plain.du_ms) << "shard " << i;
    EXPECT_EQ(observed.dn_ms, plain.dn_ms) << "shard " << i;
    EXPECT_EQ(observed.probes_sent, plain.probes_sent);
    EXPECT_EQ(observed.probes_lost, plain.probes_lost);
    EXPECT_EQ(observed.frames_on_air, plain.frames_on_air);
    EXPECT_EQ(observed.sim_seconds, plain.sim_seconds);
  }
}

TEST(CampaignPassive, FreshAndReusedContextsMatchBitForBit) {
  Campaign campaign(passive_mix_spec());
  ShardContext context;
  for (std::size_t i = 0; i < campaign.scenario_count(); ++i) {
    const ShardResult fresh = campaign.run_shard(i);
    const ShardResult reused = campaign.run_shard(i, context);
    EXPECT_EQ(fresh.probes_sent, reused.probes_sent);
    EXPECT_EQ(fresh.reported_rtt_ms, reused.reported_rtt_ms);
    EXPECT_EQ(fresh.passive_sniffer_rtt_ms, reused.passive_sniffer_rtt_ms)
        << "shard " << i;
    EXPECT_EQ(fresh.passive_app_rtt_ms, reused.passive_app_rtt_ms)
        << "shard " << i;
    EXPECT_EQ(digest_bytes(fresh.digests), digest_bytes(reused.digests))
        << "shard " << i;
  }
  EXPECT_EQ(context.reuses(), campaign.scenario_count() - 1);
}

TEST(CampaignPassive, JsonlAndDigestsIdenticalAcrossWorkerCounts) {
  std::string reference_digests;
  std::string reference_jsonl;
  for (const std::size_t workers : {std::size_t{1}, std::size_t{8}}) {
    TempFile jsonl("workers_" + std::to_string(workers) + ".jsonl");
    CampaignSpec spec = passive_mix_spec();
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
    // Passive events are exported with their vantage spelled out.
    EXPECT_NE(bytes.find("\"vantage\":\"passive-sniffer\""), std::string::npos);
    EXPECT_NE(bytes.find("\"vantage\":\"passive-app\""), std::string::npos);
    EXPECT_NE(bytes.find("\"vantage\":\"active\""), std::string::npos);
    if (reference_jsonl.empty()) {
      reference_jsonl = bytes;
    } else {
      EXPECT_EQ(bytes, reference_jsonl)
          << workers << "-worker JSONL differs from the 1-worker run";
    }
  }
}

TEST(CampaignPassive, FrontierKillResumeTicksMatchUninterruptedRun) {
  // Reference: uninterrupted 1-worker frontier sweep.
  TempFile reference_ckpt("reference.ckpt");
  CampaignSpec reference_spec = passive_mix_spec();
  reference_spec.keep_samples = false;
  reference_spec.retain_shards = false;
  reference_spec.checkpoint_path = reference_ckpt.path;
  const CampaignReport reference = Campaign(reference_spec).run(1);
  const std::string reference_digests =
      digest_bytes(reference.workload_digests());

  // Ticked: 8-worker increments of at most 3 shards, a fresh Campaign per
  // tick — only the checkpoint file carries state across the kills.
  TempFile ticked_ckpt("ticked.ckpt");
  CampaignReport ticked;
  for (int tick = 0; tick < 8; ++tick) {
    CampaignSpec tick_spec = passive_mix_spec();
    tick_spec.keep_samples = false;
    tick_spec.retain_shards = false;
    tick_spec.checkpoint_path = ticked_ckpt.path;
    tick_spec.max_shards = 3;
    ticked = Campaign(tick_spec).run(8);
    if (ticked.completed_shards() == ticked.shard_count()) break;
  }
  EXPECT_EQ(ticked.completed_shards(), reference.completed_shards());
  EXPECT_EQ(digest_bytes(ticked.workload_digests()), reference_digests);
  EXPECT_EQ(ticked.total_probes(), reference.total_probes());

  // Compact both files through one more resume: byte-identical checkpoints.
  for (const std::string* path : {&reference_ckpt.path, &ticked_ckpt.path}) {
    CampaignSpec compact_spec = passive_mix_spec();
    compact_spec.keep_samples = false;
    compact_spec.retain_shards = false;
    compact_spec.checkpoint_path = *path;
    const CampaignReport compacted = Campaign(compact_spec).run(1);
    EXPECT_EQ(compacted.completed_shards(), compacted.shard_count());
    EXPECT_EQ(digest_bytes(compacted.workload_digests()), reference_digests);
  }
  const std::string reference_bytes = file_bytes(reference_ckpt.path);
  ASSERT_FALSE(reference_bytes.empty());
  EXPECT_EQ(file_bytes(ticked_ckpt.path), reference_bytes);
}

TEST(CampaignPassive, PassiveAxisIsPartOfTheSpecHash) {
  // A checkpoint written with passive vantage points cannot be resumed by a
  // spec whose passive axis was edited away: the spec hash must differ.
  TempFile ckpt("hash.ckpt");
  CampaignSpec spec = passive_mix_spec();
  spec.checkpoint_path = ckpt.path;
  (void)Campaign(spec).run(2);

  CampaignSpec edited = passive_mix_spec();
  for (ScenarioSpec& scenario : edited.scenarios) {
    for (PhoneSpec& phone : scenario.phones) {
      phone.workload.passive = PassiveVantage::none;
    }
  }
  edited.checkpoint_path = ckpt.path;
  EXPECT_THROW((void)Campaign(edited).run(1), sim::ContractViolation);
}

}  // namespace
}  // namespace acute::testbed
