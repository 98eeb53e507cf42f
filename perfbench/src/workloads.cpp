#include "workloads.hpp"

#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <sstream>
#include <stdexcept>
#include <utility>
#include <vector>

#include "stats/digest_io.hpp"

namespace perfbench {

using acute::sim::Duration;
using acute::testbed::CampaignReport;
using acute::testbed::CampaignSpec;
using acute::testbed::ScenarioGrid;
using acute::testbed::WorkloadSpec;
using acute::tools::ToolKind;

namespace {

/// splitmix64: the benchmark's own input generator, independent of the
/// library's Rng so that a change to the simulator's streams never changes
/// what the benchmark feeds it.
std::uint64_t splitmix(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// The mode fields every workload shares — the production campaign path.
CampaignSpec production_spec(ScenarioGrid grid, std::uint64_t campaign_seed) {
  CampaignSpec spec;
  spec.seed = campaign_seed;
  spec.grid = std::move(grid);
  spec.keep_samples = false;
  spec.retain_shards = false;
  return spec;
}

/// {1,2,4} phones × nexus5/nexus4 × wifi/cellular × 8 RTTs × cross traffic
/// on/off × 4 tools, 50 probes per phone. The eight RTTs are drawn from the
/// seed, one per 10 ms band from 5 ms up, so every seed carries the same
/// amount of work.
CampaignSpec fleet_mixed_spec(std::uint64_t seed, const Scale& scale) {
  std::uint64_t state = seed;
  ScenarioGrid grid;
  grid.phone_counts = {1, 2};
  if (scale.fleet_four_phones) grid.phone_counts.push_back(4);
  grid.profiles = {acute::phone::PhoneProfile::nexus5(),
                   acute::phone::PhoneProfile::nexus4()};
  grid.radios = {acute::phone::RadioKind::wifi,
                 acute::phone::RadioKind::cellular};
  grid.emulated_rtts.clear();
  for (int band = 0; band < 8; ++band) {
    const auto jitter_us = static_cast<std::int64_t>(splitmix(state) % 10'000);
    grid.emulated_rtts.push_back(Duration::micros(5'000 + 10'000 * band +
                                                  jitter_us));
  }
  grid.cross_traffic = {false, true};
  WorkloadSpec httping{ToolKind::httping};
  httping.passive = acute::passive::PassiveVantage::both;
  grid.workloads = {WorkloadSpec{ToolKind::acutemon},
                    WorkloadSpec{ToolKind::icmp_ping}, httping,
                    WorkloadSpec{ToolKind::java_ping}};
  CampaignSpec spec = production_spec(std::move(grid), splitmix(state));
  spec.probes_per_phone = scale.fleet_probes;
  return spec;
}

/// The scaling-grid shape: one phone, one probe per shard; 50 RTT steps ×
/// reorder on/off × sweep_shards/100 loss steps spanning 0–30 %. The seed
/// picks the campaign seed, so it moves which probes netem drops.
CampaignSpec sweep_spec(std::uint64_t seed, const Scale& scale) {
  std::uint64_t state = seed;
  ScenarioGrid grid;
  grid.emulated_rtts.clear();
  for (int i = 0; i < 50; ++i) {
    grid.emulated_rtts.push_back(Duration::millis(2 + i));
  }
  grid.reorder = {false, true};
  const std::size_t loss_steps = (scale.sweep_shards + 99) / 100;
  grid.loss_rates.clear();
  for (std::size_t i = 0; i < loss_steps; ++i) {
    grid.loss_rates.push_back(double(i) * (0.3 / double(loss_steps)));
  }
  CampaignSpec spec = production_spec(std::move(grid), splitmix(state));
  spec.probes_per_phone = 1;
  spec.probe_interval = Duration::millis(50);
  spec.probe_timeout = Duration::millis(400);
  spec.settle = Duration::millis(50);
  return spec;
}

void write_hex_bits(std::ostream& out, double value) {
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(
                    acute::stats::double_bits(value)));
  out << hex;
}

}  // namespace

const char* workload_name(Workload workload) {
  switch (workload) {
    case Workload::fleet_mixed:
      return "fleet-mixed";
    case Workload::sweep_tiny:
      return "sweep-tiny";
    case Workload::sweep_durable:
      return "sweep-durable";
    case Workload::sweep_fabric:
      return "sweep-fabric";
  }
  return "?";
}

std::optional<Workload> parse_workload(const std::string& name) {
  for (Workload workload :
       {Workload::fleet_mixed, Workload::sweep_tiny, Workload::sweep_durable,
        Workload::sweep_fabric}) {
    if (name == workload_name(workload)) return workload;
  }
  return std::nullopt;
}

CampaignSpec workload_spec(Workload workload, std::uint64_t seed,
                           const Scale& scale) {
  // sweep-tiny, sweep-durable and sweep-fabric run the same grid with the
  // same seed, so their merged results must be the same bits.
  if (workload == Workload::fleet_mixed) return fleet_mixed_spec(seed, scale);
  return sweep_spec(seed, scale);
}

std::string dump_report(const CampaignReport& report) {
  std::ostringstream out;
  out << "shards " << report.completed_shards() << ' ' << report.shard_count()
      << '\n';
  out << "totals " << report.total_probes() << ' ' << report.total_lost()
      << ' ' << report.total_frames() << ' ' << report.total_events() << ' ';
  write_hex_bits(out, report.total_sim_seconds());
  out << '\n';
  for (const acute::report::WorkloadDigest& digest :
       report.workload_digests()) {
    out << "workload " << acute::tools::grid_name(digest.tool) << ' '
        << digest.probes << ' ' << digest.lost;
    for (const acute::stats::MergingDigest* part :
         {&digest.reported_rtt_ms, &digest.du_ms, &digest.dk_ms,
          &digest.dv_ms, &digest.dn_ms}) {
      out << ' ';
      acute::stats::write_digest(out, *part);
    }
    out << ' ' << digest.passive_sniffer_samples << ' '
        << digest.passive_app_samples;
    for (const acute::stats::MergingDigest* part :
         {&digest.passive_sniffer_rtt_ms, &digest.passive_app_rtt_ms}) {
      out << ' ';
      acute::stats::write_digest(out, *part);
    }
    out << '\n';
  }
  return out.str();
}

std::string reference_dump(const CampaignSpec& spec) {
  int fds[2];
  if (::pipe(fds) != 0) throw std::runtime_error("reference: pipe failed");
  std::fflush(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("reference: fork failed");
  if (pid == 0) {
    ::close(fds[0]);
    int status = 0;
    try {
      CampaignSpec reference = spec;
      reference.scenarios = reference.grid->expand();
      reference.grid.reset();
      reference.retain_shards = true;
      reference.checkpoint_path.clear();
      reference.sinks = nullptr;
      reference.max_shards = 0;
      acute::testbed::Campaign campaign(std::move(reference));
      const std::string dump = dump_report(campaign.run(3));
      std::size_t written = 0;
      while (written < dump.size()) {
        const ssize_t n =
            ::write(fds[1], dump.data() + written, dump.size() - written);
        if (n < 0 && errno == EINTR) continue;
        if (n <= 0) {
          status = 3;
          break;
        }
        written += static_cast<std::size_t>(n);
      }
    } catch (const std::exception& error) {
      std::fprintf(stderr, "perfbench reference: %s\n", error.what());
      status = 2;
    }
    ::close(fds[1]);
    std::_Exit(status);
  }
  ::close(fds[1]);
  std::string dump;
  char buffer[4096];
  while (true) {
    const ssize_t n = ::read(fds[0], buffer, sizeof buffer);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    dump.append(buffer, static_cast<std::size_t>(n));
  }
  ::close(fds[0]);
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 || dump.empty()) {
    throw std::runtime_error("reference: child campaign failed");
  }
  return dump;
}

}  // namespace perfbench
