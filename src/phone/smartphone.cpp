#include "phone/smartphone.hpp"

#include <initializer_list>
#include <utility>

#include "sim/contracts.hpp"

namespace acute::phone {

using net::Packet;
using sim::Duration;
using sim::expects;

namespace {
wifi::Station::Config station_config(const PhoneProfile& profile,
                                     net::NodeId id, net::NodeId ap_id) {
  wifi::Station::Config config;
  config.id = id;
  config.ap = ap_id;
  config.psm_timeout = profile.psm_timeout;
  config.psm_tick = profile.psm_tick;
  config.associated_listen_interval = profile.associated_listen_interval;
  config.actual_listen_interval = 0;  // Table 4: every handset uses 0
  config.beacon_miss_probability = profile.beacon_miss_probability;
  return config;
}
}  // namespace

const char* to_string(RadioKind kind) {
  switch (kind) {
    case RadioKind::wifi:
      return "wifi";
    case RadioKind::cellular:
      return "cellular";
  }
  return "?";
}

Smartphone::Smartphone(sim::Simulator& sim, wifi::Channel& channel,
                       sim::Rng rng, PhoneProfile profile, net::NodeId id,
                       net::NodeId ap_id)
    : sim_(&sim), radio_kind_(RadioKind::wifi), channel_(&channel) {
  reset(std::move(rng), std::move(profile), id, ap_id);
}

Smartphone::Smartphone(sim::Simulator& sim, sim::Rng rng, PhoneProfile profile,
                       net::NodeId id, net::NodeId gateway_id,
                       const cellular::RrcConfig& rrc_config)
    : sim_(&sim), radio_kind_(RadioKind::cellular) {
  reset(std::move(rng), std::move(profile), id, gateway_id, rrc_config);
}

void Smartphone::reset(sim::Rng rng, PhoneProfile profile, net::NodeId id,
                       net::NodeId ap_id) {
  expects(radio_kind_ == RadioKind::wifi,
          "Smartphone::reset(wifi) on a cellular phone");
  reset_identity(rng, std::move(profile), id, ap_id);
  sim::place(station_, std::tie(*sim_, *channel_), rng.fork("station"),
             station_config(profile_, id, ap_id));
  sim::place(bus_, std::tie(*sim_), rng.fork("bus"), profile_);
  sim::place(driver_, std::tie(*sim_), rng.fork("driver"), profile_, *bus_);
  reset_stack(rng, {driver_.get(), bus_.get(), station_.get()});
}

void Smartphone::reset(sim::Rng rng, PhoneProfile profile, net::NodeId id,
                       net::NodeId gateway_id,
                       const cellular::RrcConfig& rrc_config) {
  expects(radio_kind_ == RadioKind::cellular,
          "Smartphone::reset(cellular) on a WiFi phone");
  reset_identity(rng, std::move(profile), id, gateway_id);
  sim::place(rrc_, std::tie(*sim_), rng.fork("rrc"), rrc_config);
  sim::place(rrc_radio_, std::tie(*sim_), *rrc_);
  reset_stack(rng, {rrc_radio_.get()});
}

void Smartphone::reset_identity(const sim::Rng& rng, PhoneProfile profile,
                                net::NodeId id, net::NodeId gateway_id) {
  profile_ = std::move(profile);
  id_ = id;
  ap_id_ = gateway_id;
  rng_ = rng.fork("smartphone");
  system_traffic_enabled_ = true;
  system_packets_ = 0;
}

void Smartphone::reset_stack(
    const sim::Rng& rng, std::initializer_list<stack::StackLayer*> bottom) {
  // One fixed placement order (radio side, kernel, exec-env, pipeline,
  // chatter), so each construction-time event (doze timer, bus watchdog,
  // system chatter) claims the same sequence number on every build.
  sim::place(kernel_, std::tie(*sim_), rng.fork("kernel"), profile_);
  sim::place(exec_, std::tie(*sim_), rng.fork("env"), profile_);
  sim::place(pipeline_, std::tie(*sim_));
  pipeline_->append(*exec_);
  pipeline_->append(*kernel_);
  for (stack::StackLayer* layer : bottom) pipeline_->append(*layer);
  if (profile_.system_traffic_mean_interval > Duration{}) {
    schedule_system_traffic();
  }
}

wifi::Station& Smartphone::station() {
  expects(station_ != nullptr, "Smartphone::station on a cellular phone");
  return *station_;
}

SdioBus& Smartphone::bus() {
  expects(bus_ != nullptr, "Smartphone::bus on a cellular phone");
  return *bus_;
}

WnicDriver& Smartphone::driver() {
  expects(driver_ != nullptr, "Smartphone::driver on a cellular phone");
  return *driver_;
}

cellular::RrcMachine& Smartphone::rrc() {
  expects(rrc_ != nullptr, "Smartphone::rrc on a WiFi phone");
  return *rrc_;
}

cellular::RrcRadioLayer& Smartphone::cellular_radio() {
  expects(rrc_radio_ != nullptr,
          "Smartphone::cellular_radio on a WiFi phone");
  return *rrc_radio_;
}

void Smartphone::schedule_system_traffic() {
  // Sync services and keep-alives chatter at Poisson intervals. The
  // packets die at the gateway (TTL = 1) but wake the bus and the radio on
  // the way out — the source of Table 3's occasional already-awake probes.
  const Duration next = Duration::seconds(rng_.exponential(
      profile_.system_traffic_mean_interval.to_seconds()));
  sim_->schedule_in(next, [this] {
    if (system_traffic_enabled_) {
      Packet chatter =
          Packet::make(net::PacketType::udp_data, net::Protocol::udp, id_,
                       ap_id_, profile_.system_traffic_bytes);
      chatter.ttl = 1;
      chatter.flow_id = 0;  // no app bound; any response is dropped
      ++system_packets_;
      send(std::move(chatter), ExecMode::dalvik);
    }
    schedule_system_traffic();
  });
}

void Smartphone::send(Packet&& packet, ExecMode mode) {
  packet.src = id_;
  exec_->send(std::move(packet), mode);
}

}  // namespace acute::phone
