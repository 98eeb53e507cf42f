// "Java ping": MobiPerf's second measurement method (§4.3) — a TCP
// connection probe issued from Java (InetAddress-style), re-implemented by
// the paper's authors in their own test app because MobiPerf cannot
// configure the probe count.
//
// Runs inside the Dalvik VM, so it pays the DVM send/receive overheads and
// occasional GC pauses, and reports with System.currentTimeMillis()'s whole-
// millisecond resolution.
#pragma once

#include "tools/tool.hpp"

namespace acute::tools {

class JavaPing final : public MeasurementTool {
 public:
  JavaPing(phone::Smartphone& phone, Config config)
      : MeasurementTool(phone, /*sequential_only=*/true) {
    reinitialize(config);
  }

  [[nodiscard]] std::string name() const override { return "Java ping"; }

 protected:
  [[nodiscard]] phone::ExecMode exec_mode() const override {
    return phone::ExecMode::dalvik;
  }
  void send_probe(int index) override;
  std::optional<double> on_probe_response(int index,
                                          const net::Packet& response,
                                          double raw_rtt_ms) override;
};

}  // namespace acute::tools
