// Cross-commit bit-identity pin for the fleet shape.
//
// The acute_fabric goldens (golden_digests.cmake) pin only the
// single-phone WiFi icmp-ping grid. This test pins everything else a
// campaign can build: one and two phones, Nexus 5 and Nexus 4 profiles,
// WiFi and cellular radios, cross traffic off and on, and all four tools
// (httping with both passive vantages attached). Its dump holds every
// shard's counters and the merged per-workload digests as IEEE-754 bit
// patterns, and must match tests/data/golden_fleet.txt byte for byte, so
// any change to a layer's timing, rng draws or event order fails here.
//
// Every run writes its dump to golden_fleet.actual.txt in the working
// directory. Regenerate the golden only for an intended change of the
// simulated bits, by copying that file over tests/data/golden_fleet.txt.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "stats/digest_io.hpp"
#include "testbed/campaign.hpp"

namespace acute::testbed {
namespace {

using passive::PassiveVantage;
using sim::Duration;
using tools::ToolKind;

WorkloadSpec workload(ToolKind tool, PassiveVantage vantage) {
  WorkloadSpec spec;
  spec.tool = tool;
  spec.passive = vantage;
  return spec;
}

/// 64 shards: phones {1,2} x {nexus5, nexus4} x {wifi, cellular} x cross
/// traffic {off, on} x the four tools, a few probes each.
CampaignSpec fleet_spec() {
  ScenarioGrid grid;
  grid.phone_counts = {1, 2};
  grid.profiles = {phone::PhoneProfile::nexus5(),
                   phone::PhoneProfile::nexus4()};
  grid.radios = {phone::RadioKind::wifi, phone::RadioKind::cellular};
  grid.emulated_rtts = {Duration::millis(20)};
  grid.cross_traffic = {false, true};
  grid.workloads = {workload(ToolKind::icmp_ping, PassiveVantage::none),
                    workload(ToolKind::acutemon, PassiveVantage::none),
                    workload(ToolKind::httping, PassiveVantage::both),
                    workload(ToolKind::java_ping, PassiveVantage::none)};
  CampaignSpec spec;
  spec.seed = 1604;
  spec.scenarios = grid.expand();
  spec.probes_per_phone = 5;
  spec.probe_interval = Duration::millis(100);
  spec.probe_timeout = Duration::seconds(3);
  spec.settle = Duration::millis(200);
  spec.keep_samples = false;
  return spec;
}

void write_hex(std::ostream& out, double value) {
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(stats::double_bits(value)));
  out << hex;
}

std::string fleet_dump(const CampaignReport& report) {
  std::ostringstream out;
  out << "# golden_fleet: test_campaign_golden_fleet's dump. Per shard: "
         "probes lost frames events sim_seconds; then the merged digests as "
         "IEEE-754 hex. Regenerate only for an intended change of the "
         "simulated bits, by copying golden_fleet.actual.txt over this "
         "file.\n";
  for (const ShardResult& shard : report.shards) {
    out << "shard " << shard.scenario_index << ' ' << shard.probes_sent << ' '
        << shard.probes_lost << ' ' << shard.frames_on_air << ' '
        << shard.events_fired << ' ';
    write_hex(out, shard.sim_seconds);
    out << '\n';
  }
  out << "totals " << report.total_probes() << ' ' << report.total_lost()
      << ' ' << report.total_frames() << ' ' << report.total_events() << ' ';
  write_hex(out, report.total_sim_seconds());
  out << '\n';
  for (const report::WorkloadDigest& digest : report.workload_digests()) {
    out << "workload " << tools::grid_name(digest.tool) << ' '
        << digest.probes << ' ' << digest.lost << ' '
        << digest.passive_sniffer_samples << ' '
        << digest.passive_app_samples << '\n';
    for (const stats::MergingDigest* field :
         {&digest.reported_rtt_ms, &digest.du_ms, &digest.dk_ms,
          &digest.dv_ms, &digest.dn_ms, &digest.passive_sniffer_rtt_ms,
          &digest.passive_app_rtt_ms}) {
      stats::write_digest(out, *field);
      out << '\n';
    }
  }
  return out.str();
}

std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(CampaignGoldenFleet, MergedFleetMatchesCommittedGolden) {
  const CampaignReport report = Campaign(fleet_spec()).run(2);
  ASSERT_EQ(report.completed_shards(), report.shard_count());
  const std::string dump = fleet_dump(report);
  {
    std::ofstream actual("golden_fleet.actual.txt", std::ios::trunc);
    actual << dump;
  }
  const std::string golden =
      file_bytes(std::string(ACUTE_TEST_DATA_DIR) + "/golden_fleet.txt");
  ASSERT_FALSE(golden.empty()) << "tests/data/golden_fleet.txt is missing";
  EXPECT_TRUE(dump == golden)
      << "fleet dump differs from tests/data/golden_fleet.txt (see "
         "golden_fleet.actual.txt): the simulated bits changed";
}

}  // namespace
}  // namespace acute::testbed
