// The multiple-sniffer WiFi testbed of Fig. 2, generalised to a
// scenario-driven builder.
//
//   [phone 0..N-1]~~~\                   /---[measurement server + netem]
//   [load gen]~~~~~~~~ (802.11 channel) [AP]---[switch]
//   [sniffers observe the channel]           \---[load server (UDP sink)]
//
// A ScenarioSpec describes everything the builder needs: the set of phones
// (each with its own PhoneProfile, i.e. heterogeneous handsets contending on
// one channel), the emulated path RTT, the PHY mode, the cross-traffic load
// and the sniffer array. The paper's Fig. 2 single-phone topology is the
// default spec, so `Testbed{}` reproduces the original testbed bit for
// bit: the measurement server's netem qdisc emulates the path RTT; the
// wireless load generator pushes ten 2.5 Mbit/s UDP flows at the load
// server to congest the WLAN; three sniffers capture every frame for the
// t_n vantage point.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cellular/rrc.hpp"
#include "core/layer_sample.hpp"
#include "net/link.hpp"
#include "net/server.hpp"
#include "net/switch.hpp"
#include "net/traffic_gen.hpp"
#include "passive/observer.hpp"
#include "phone/profile.hpp"
#include "phone/smartphone.hpp"
#include "sim/random.hpp"
#include "sim/resettable.hpp"
#include "sim/simulator.hpp"
#include "tools/factory.hpp"
#include "tools/tool.hpp"
#include "wifi/access_point.hpp"
#include "wifi/channel.hpp"
#include "wifi/sniffer.hpp"
#include "wifi/station.hpp"

namespace acute::testbed {

/// A plain wireless host (the load generator: a desktop WNIC with power
/// save disabled, unlike the phones under test).
class WirelessHost {
 public:
  /// Joins `channel` as station `id`, associated with the AP `ap_id`.
  WirelessHost(sim::Simulator& sim, wifi::Channel& channel, sim::Rng rng,
               net::NodeId id, net::NodeId ap_id);

  /// The one setup path (sim/resettable.hpp); the host stays on the
  /// channel it was built on.
  void reset(sim::Rng rng, net::NodeId id, net::NodeId ap_id);

  /// Sends a packet toward the AP after a small host-stack delay.
  void transmit(net::Packet&& packet);

  /// The host's 802.11 station (power save disabled).
  [[nodiscard]] wifi::Station& station() { return *station_; }
  /// The host's node id on the fabric.
  [[nodiscard]] net::NodeId id() const { return id_; }

 private:
  sim::Simulator* sim_;
  wifi::Channel* channel_;
  sim::Rng rng_;
  net::NodeId id_ = 0;
  std::optional<wifi::Station> station_;
};

/// Per-phone measurement workload: which tool the campaign engine runs on
/// this phone and, optionally, schedule overrides. The defaults — stock
/// ICMP ping, no overrides — make a spec without an explicit workload
/// behave exactly like the pre-workload campaign engine.
struct WorkloadSpec {
  /// Which of the paper's four tools probes from this phone.
  tools::ToolKind tool = tools::ToolKind::icmp_ping;
  /// Probes to send; <= 0 means "use CampaignSpec::probes_per_phone".
  int probe_count = 0;
  /// Inter-probe interval/gap; zero means "use CampaignSpec::probe_interval"
  /// (AcuteMon ignores it: its measurement thread is always back-to-back).
  sim::Duration interval{};
  /// Per-probe timeout; zero means "use CampaignSpec::probe_timeout".
  sim::Duration timeout{};
  /// Passive RTT vantage points the campaign attaches alongside the tool:
  /// a pping-style TCP-timestamp estimator on sniffer 0 and/or a MopEye-style
  /// per-app monitor on this phone's exec-env layer. Passive samples stream
  /// as Vantage::passive_* ProbeEvents after the phone's active probes; none
  /// of them injects traffic or perturbs the active schedule.
  passive::PassiveVantage passive = passive::PassiveVantage::none;

  friend bool operator==(const WorkloadSpec&, const WorkloadSpec&) = default;
};

/// One phone under test in a scenario.
struct PhoneSpec {
  phone::PhoneProfile profile = phone::PhoneProfile::nexus5();
  /// Rng-stream / diagnostics label. Empty picks "phone" for phone 0 (the
  /// paper's device under test) and "phone-<i>" beyond — phone 0's streams
  /// are therefore identical to the pre-scenario testbed's.
  std::string label;
  /// Which radio this phone's stack bottoms out in. WiFi phones contend on
  /// the scenario's 802.11 channel; cellular phones reach the same wired
  /// fabric through the RRC-gated radio and the cellular gateway.
  phone::RadioKind radio = phone::RadioKind::wifi;
  /// RRC parameters (cellular phones only).
  cellular::RrcConfig rrc = cellular::RrcConfig::umts_3g();
  /// The measurement workload Campaign::run_shard drives on this phone
  /// (ignored by the plain Testbed builder, which starts no tools itself).
  WorkloadSpec workload;
};

/// The cellular core-network gateway: the wired peer of a scenario's
/// cellular phones. Uplink packets leave a phone's RrcRadioLayer egress and
/// enter the wired fabric here (TTL handling included, so TTL=1 system
/// chatter dies at this first hop exactly as it does at the WiFi AP);
/// downlink packets matching a registered phone are injected at the bottom
/// of that phone's pipeline.
class CellularGateway : public net::Node {
 public:
  CellularGateway(sim::Simulator& sim, net::NodeId id) : sim_(&sim) {
    reset(id);
  }

  /// The one setup path (sim/resettable.hpp); the phone registry storage
  /// stays warm.
  void reset(net::NodeId id) {
    id_ = id;
    link_ = nullptr;
    phones_.clear();
    uplink_ = 0;
    downlink_ = 0;
    ttl_drops_ = 0;
  }

  /// Connects the core-network link. Must be called before traffic.
  void attach_link(net::Link& link);
  /// Registers a cellular phone and wires its radio egress to this gateway.
  void attach_phone(phone::Smartphone& phone);

  void receive(net::Packet&& packet, net::Link* ingress) override;
  [[nodiscard]] net::NodeId id() const override { return id_; }

  /// Packets forwarded phone -> wired fabric / fabric -> phone so far.
  [[nodiscard]] std::uint64_t uplink_packets() const { return uplink_; }
  [[nodiscard]] std::uint64_t downlink_packets() const { return downlink_; }
  /// TTL=1 system chatter absorbed at this first hop.
  [[nodiscard]] std::uint64_t ttl_drops() const { return ttl_drops_; }

 private:
  void uplink(net::Packet&& packet);

  sim::Simulator* sim_;
  net::NodeId id_ = 0;
  net::Link* link_ = nullptr;
  // A scenario registers a handful of cellular phones; a flat vector keeps
  // lookups cheap and (re)attachment allocation-free in steady state.
  std::vector<std::pair<net::NodeId, phone::Smartphone*>> phones_;
  std::uint64_t uplink_ = 0;
  std::uint64_t downlink_ = 0;
  std::uint64_t ttl_drops_ = 0;
};

/// Full scenario description: N heterogeneous phones contending on one
/// channel plus the wired fabric and load infrastructure of Fig. 2. A
/// default-constructed ScenarioSpec is the paper's Fig. 2 topology: one
/// Nexus 5 (phone 0), three sniffers, no emulated delay, an uncongested
/// PHY. Single-phone call sites set the handset through
/// `phones.front().profile`.
struct ScenarioSpec {
  /// The handsets under test, all contending on one channel (>= 1).
  std::vector<PhoneSpec> phones{PhoneSpec{}};
  /// Root rng seed (campaigns overwrite it with the derived shard seed).
  std::uint64_t seed = 42;
  /// tc-netem delay on the measurement server (one-way, on its egress).
  sim::Duration emulated_rtt = sim::Duration{};
  /// Netem delay jitter on the same egress.
  sim::Duration netem_jitter = sim::Duration::millis(1.5);
  /// Mixed-mode PHY (§4.3); enable whenever cross traffic runs.
  bool congested_phy = false;
  /// iPerf cross-traffic shape: N parallel UDP flows of this rate each.
  std::size_t cross_connections = 10;
  double cross_flow_mbps = 2.5;
  /// When true the AP answers TTL=1 packets with ICMP time-exceeded.
  bool send_ttl_exceeded = false;
  /// Sniffer radiotap timestamp noise (microsecond scale).
  sim::Duration sniffer_noise = sim::Duration::micros(2);
  /// Sniffers observing the channel for the t_n vantage point.
  std::size_t sniffer_count = 3;
  /// Core-network RTT for cellular phones (gateway <-> switch propagation
  /// covers both directions; RRC state latencies come on top).
  sim::Duration cellular_core_rtt = sim::Duration::millis(50);
  /// Independent loss probability on the measurement server's netem egress
  /// (tc netem "loss <p>%"), in [0, 1).
  double netem_loss = 0.0;
  /// When true the netem egress may release packets out of order under
  /// jitter (plain netem forbids reordering; this is the "reorder" option).
  bool netem_reorder = false;

  /// Heterogeneous per-phone workloads within ONE scenario: assigns
  /// mix[i % mix.size()] to phone i (round-robin), so e.g. a 4-phone
  /// scenario with the 4-tool mix runs the whole Fig. 8 zoo on one channel,
  /// contending against itself. Requires a non-empty mix and at least one
  /// phone; returns *this for chaining.
  ScenarioSpec& assign_workloads(const std::vector<WorkloadSpec>& mix);

  /// Number of phones with the given radio kind.
  [[nodiscard]] std::size_t count_radio(phone::RadioKind kind) const;
};

class Testbed {
 public:
  // Flat addresses of the Fig. 2 devices. Additional phones beyond the
  // first are numbered from kExtraPhoneBaseId upward.
  static constexpr net::NodeId kPhoneId = 1;
  static constexpr net::NodeId kApId = 2;
  static constexpr net::NodeId kSwitchId = 3;
  static constexpr net::NodeId kServerId = 4;
  static constexpr net::NodeId kLoadGenId = 5;
  static constexpr net::NodeId kLoadSinkId = 6;
  static constexpr net::NodeId kExtraPhoneBaseId = 7;
  /// Cellular gateway address (top of the id space, clear of phone ids).
  static constexpr net::NodeId kCellGatewayId = 0xffff'0000;

  /// Node id of the `index`-th phone of a scenario.
  [[nodiscard]] static constexpr net::NodeId phone_id(std::size_t index) {
    return index == 0 ? kPhoneId
                      : kExtraPhoneBaseId +
                            static_cast<net::NodeId>(index - 1);
  }

  /// Builds the scenario described by `spec` (requires >= 1 phone); the
  /// default is the Fig. 2 topology.
  explicit Testbed(ScenarioSpec spec = {});
  /// Builds the scenario on an externally-owned simulator (the shard-context
  /// pool shares one warm simulator across many testbed rebuilds). The
  /// simulator must be freshly constructed or reset().
  Testbed(ScenarioSpec spec, sim::Simulator& sim);

  /// Tears the previous scenario down logically (simulator reset, all
  /// pending events cancelled) and builds `spec` in place, reusing every
  /// node, link and stack object whose shape still fits. The result is
  /// indistinguishable from a fresh Testbed{spec} (sim/resettable.hpp):
  /// the same rng streams, the same event schedule, the same node graph —
  /// but with near-zero heap allocations when the scenario shape repeats.
  /// Takes the spec by const reference so the internal copy reuses the
  /// previous scenario's buffer capacity.
  void rebuild(const ScenarioSpec& spec);

  /// The scenario's simulator (all devices schedule on it).
  [[nodiscard]] sim::Simulator& simulator() { return *sim_; }
  /// The (first) phone under test.
  [[nodiscard]] phone::Smartphone& phone() { return *phones_.front(); }
  /// The `index`-th phone of the scenario.
  [[nodiscard]] phone::Smartphone& phone(std::size_t index) {
    return *phones_.at(index);
  }
  /// Number of phones in the scenario.
  [[nodiscard]] std::size_t phone_count() const { return phones_.size(); }
  /// The measurement server (echoes probes through its netem qdisc).
  [[nodiscard]] net::EchoServer& server() { return *server_; }
  /// The Fig. 2 access point.
  [[nodiscard]] wifi::AccessPoint& ap() { return *ap_; }
  /// The shared 802.11 channel every wireless device contends on.
  [[nodiscard]] wifi::Channel& channel() { return *channel_; }
  /// The UDP sink the iPerf cross traffic targets.
  [[nodiscard]] net::UdpSink& load_sink() { return *load_sink_; }
  /// The `index`-th channel sniffer.
  [[nodiscard]] wifi::Sniffer& sniffer(std::size_t index) {
    return *sniffers_.at(index);
  }
  /// Number of sniffers observing the channel.
  [[nodiscard]] std::size_t sniffer_count() const { return sniffers_.size(); }
  /// The scenario this testbed was built from.
  [[nodiscard]] const ScenarioSpec& spec() const { return spec_; }
  /// The cellular gateway (contract violation when the scenario has no
  /// cellular phone).
  [[nodiscard]] CellularGateway& cellular_gateway();

  /// Reconfigures the emulated path RTT (tc on the server).
  void set_emulated_rtt(sim::Duration rtt);

  /// Starts / stops the iPerf cross traffic (§4.3).
  void start_cross_traffic();
  void stop_cross_traffic();
  /// True between start_cross_traffic() and stop_cross_traffic().
  [[nodiscard]] bool cross_traffic_running() const;
  /// Goodput at the load server since cross traffic started, Mbit/s.
  [[nodiscard]] double cross_traffic_throughput_mbps() const;

  /// Runs the simulation forward so beacons, watchdogs and power-save
  /// machinery reach steady state before an experiment.
  void settle(sim::Duration span = sim::Duration::millis(600));

  /// Drives the simulation until `tool` finishes (or `max_sim_time` of
  /// simulated time elapses — a deadlock guard, not a normal exit).
  void run_until_finished(tools::MeasurementTool& tool,
                          sim::Duration max_sim_time =
                              sim::Duration::seconds(3600));
  /// As above for several concurrently-running tools (multi-phone runs).
  void run_until_all_finished(
      const std::vector<tools::MeasurementTool*>& tools,
      sim::Duration max_sim_time = sim::Duration::seconds(3600));

  /// Folds a tool run into per-probe multi-layer samples. Probes that timed
  /// out or lack stamps are skipped. The reported (tool-level) RTT is used
  /// as du, as in the paper's user-level vantage point.
  [[nodiscard]] std::vector<core::LayerSample> layer_samples(
      const tools::ToolRun& run) const;

 private:
  /// First build and every rebuild: places the whole node graph from spec_
  /// (sim::place: constructed on first use, reset afterwards) in one fixed
  /// order, so the event schedule (and therefore every simulation output)
  /// is bit-identical between a fresh Testbed and a reused one.
  void build_graph();
  /// Builds or reconfigures the iPerf generator for the current spec. The
  /// generator is lazy: scenarios that never start cross traffic (most
  /// campaign shards) never pay for its ten flows.
  void ensure_iperf();

  // owned_sim_ before sim_ before spec_: constructor member-init order.
  std::unique_ptr<sim::Simulator> owned_sim_;
  sim::Simulator* sim_;
  ScenarioSpec spec_;
  sim::Rng rng_;
  std::unique_ptr<wifi::Channel> channel_;
  std::unique_ptr<wifi::AccessPoint> ap_;
  std::unique_ptr<net::Switch> switch_;
  std::unique_ptr<net::EchoServer> server_;
  std::unique_ptr<net::UdpSink> load_sink_;
  std::unique_ptr<net::Link> ap_switch_link_;
  std::unique_ptr<net::Link> switch_server_link_;
  std::unique_ptr<net::Link> switch_sink_link_;
  std::unique_ptr<WirelessHost> load_gen_;
  std::unique_ptr<CellularGateway> gateway_;
  std::unique_ptr<net::Link> gateway_link_;
  std::unique_ptr<net::IperfLoadGenerator> iperf_;
  std::vector<std::unique_ptr<phone::Smartphone>> phones_;
  std::vector<std::unique_ptr<wifi::Sniffer>> sniffers_;
  // Label-uniqueness scratch, reused across rebuilds (SSO labels => no
  // steady-state allocations where the old std::set allocated a node per
  // phone per shard).
  std::vector<std::string> used_labels_;
  bool iperf_ready_ = false;
  bool cross_running_ = false;
};

}  // namespace acute::testbed
