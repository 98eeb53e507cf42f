// The stock ICMP ping binary, run over adb shell (§3.1).
//
// Periodic schedule (probes leave every `interval` regardless of responses),
// native execution, and the handset's output-quantization quirks: 0.1 ms
// resolution below 100 ms, whole milliseconds above on handsets whose ping
// truncates (the Nexus 4 — the cause of the negative user-kernel overheads
// in Fig. 3).
#pragma once

#include "tools/tool.hpp"

namespace acute::tools {

class IcmpPing final : public MeasurementTool {
 public:
  IcmpPing(phone::Smartphone& phone, Config config) : MeasurementTool(phone) {
    reinitialize(config);
  }

  [[nodiscard]] std::string name() const override { return "ping"; }

 protected:
  void send_probe(int index) override;
  std::optional<double> on_probe_response(int index,
                                          const net::Packet& response,
                                          double raw_rtt_ms) override;
};

/// Quantizes an RTT the way the handset's ping output does.
[[nodiscard]] double quantize_ping_output(double rtt_ms,
                                          double resolution_ms,
                                          bool integer_above_100);

}  // namespace acute::tools
