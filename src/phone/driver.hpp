// WNIC driver model, mirroring the bcmdhd stages the paper instruments
// (Figures 4 and 5):
//
//   TX: dhd_start_xmit -> dhd_sched_dpc -> [dpc thread] dhdsdio_bussleep /
//       dhdsdio_clkctl -> dhdsdio_txpkt -> bus write -> radio
//   RX: dhdsdio_isr -> [dpc] bussleep/clkctl -> dhdsdio_readframes ->
//       dhd_rxf_enqueue -> [rxf thread] netif_rx_ni -> kernel
//
// dvsend spans start_xmit -> txpkt; dvrecv spans isr -> rxf_enqueue — both
// therefore capture the SDIO wake latency, exactly as the paper's modified
// driver measures them (Table 3). The driver keeps a log of both, playing
// the role of that kernel instrumentation.
//
// As a StackLayer the driver sits between the kernel and the SDIO/SMD bus.
// It still calls the bus's arbitration services (acquire / transfer_time)
// directly — that is the dhdsdio_bussleep/clkctl reality — while the packet
// itself flows through the pipeline: downward the frame is passed to the bus
// layer at dhdsdio_txpkt time; upward the bus forwards received frames into
// deliver(), which models the isr -> rxf -> netif_rx_ni climb.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "net/packet.hpp"
#include "phone/profile.hpp"
#include "phone/sdio_bus.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "stack/stack_layer.hpp"

namespace acute::phone {

class WnicDriver : public stack::StackLayer {
 public:
  WnicDriver(sim::Simulator& sim, sim::Rng rng, const PhoneProfile& profile,
             SdioBus& bus);

  /// The one setup path (sim/resettable.hpp); log storage stays warm.
  void reset(sim::Rng rng, const PhoneProfile& profile, SdioBus& bus) {
    rng_ = std::move(rng);
    profile_ = &profile;
    bus_ = &bus;
    dvsend_ms_.clear();
    dvrecv_ms_.clear();
    tx_packets_ = 0;
    rx_packets_ = 0;
  }

  // StackLayer.
  [[nodiscard]] const char* layer_name() const override { return "driver"; }
  /// Downward path: the kernel hands a packet to dhd_start_xmit.
  void transmit(net::Packet&& packet) override;
  /// Upward path: a frame arrives from the bus (chip interrupt).
  void deliver(net::Packet&& packet) override;

  /// The "modified driver" logs of §3.2.1.
  [[nodiscard]] const std::vector<double>& dvsend_log_ms() const {
    return dvsend_ms_;
  }
  [[nodiscard]] const std::vector<double>& dvrecv_log_ms() const {
    return dvrecv_ms_;
  }
  void clear_logs();

  [[nodiscard]] std::uint64_t tx_packets() const { return tx_packets_; }
  [[nodiscard]] std::uint64_t rx_packets() const { return rx_packets_; }
  [[nodiscard]] SdioBus& bus() { return *bus_; }

 private:
  sim::Simulator* sim_;
  sim::Rng rng_;
  const PhoneProfile* profile_ = nullptr;
  SdioBus* bus_ = nullptr;
  std::vector<double> dvsend_ms_;
  std::vector<double> dvrecv_ms_;
  std::uint64_t tx_packets_ = 0;
  std::uint64_t rx_packets_ = 0;
};

}  // namespace acute::phone
