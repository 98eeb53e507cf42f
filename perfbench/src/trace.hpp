// What the benchmark observes from outside the library: shard starts and
// spans, collected through public seams only.
//
//   * ShardProbe is plugged in through CampaignSpec::sinks. Untraced, its
//     factory only notes the first shard start (the end of set-up) and
//     returns no sink, so no per-shard allocation or per-probe call is
//     added. Traced, it adds a timing ResultSink that records one span per
//     shard (shard_started → shard_finished, worker lane, scenario index,
//     net::Packet copies made on the worker thread in between).
//   * FabricProbe does the same for forked fabric::Worker processes, which
//     run no sinks: it wraps each worker's Transport and reads the frame
//     type of every outgoing frame. A heartbeat precedes every shard and a
//     shard_done follows it. The records live in a shared anonymous
//     mapping the parent reads after the children exit.
//   * The runner keeps every span in memory; write_chrome_trace writes
//     them as Chrome trace-event JSON (Perfetto, chrome://tracing) when the
//     run ends.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "fabric/transport.hpp"
#include "report/sink.hpp"

namespace perfbench {

/// Monotonic nanoseconds (steady_clock; comparable across processes).
[[nodiscard]] std::int64_t now_ns();

/// One shard's execution as seen at its boundaries.
struct ShardSpan {
  std::size_t scenario_index = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  /// Worker lane: a small per-thread id (in-process) or worker number
  /// (fabric).
  std::uint32_t lane = 0;
  /// net::Packet copies made between start and end on the worker thread.
  std::uint64_t packet_copies = 0;
  /// Index of the enclosing invocation's CallSpan (set by the caller).
  std::size_t parent = 0;
};

/// Per-invocation shard observer for CampaignSpec::sinks.
class ShardProbe {
 public:
  ShardProbe(std::size_t shard_count, bool traced);
  ShardProbe(const ShardProbe&) = delete;
  ShardProbe& operator=(const ShardProbe&) = delete;

  /// The factory to install; `inner` (e.g. the JSONL exporter) still runs.
  /// The probe must outlive the campaign run.
  [[nodiscard]] acute::report::SinkFactory factory(
      acute::report::SinkFactory inner = nullptr);

  /// steady-clock ns of the first shard start; 0 if none started.
  [[nodiscard]] std::int64_t first_start_ns() const {
    return first_start_ns_.load(std::memory_order_relaxed);
  }
  /// Finished shards' spans (traced only), in scenario-index order.
  [[nodiscard]] std::vector<ShardSpan> finished_spans() const;

  /// Called by the timing sink on its worker thread.
  void record(const ShardSpan& span) { slots_[span.scenario_index] = span; }

 private:
  void note_start();

  bool traced_;
  std::atomic<std::int64_t> first_start_ns_{0};
  /// One slot per scenario index: each shard writes only its own slot, so
  /// recording needs no lock.
  std::vector<ShardSpan> slots_;
};

/// Shared-memory observer of forked fabric workers.
class FabricProbe {
 public:
  /// Maps the shared region; call before forking.
  FabricProbe(std::size_t workers, std::size_t shard_count, bool traced);
  ~FabricProbe();
  FabricProbe(const FabricProbe&) = delete;
  FabricProbe& operator=(const FabricProbe&) = delete;

  /// In worker `worker`'s child process: the transport to hand to
  /// fabric::Worker::run.
  [[nodiscard]] std::unique_ptr<acute::fabric::Transport> wrap(
      std::unique_ptr<acute::fabric::Transport> inner, std::size_t worker);

  /// In the parent, after the children exited: earliest first-heartbeat
  /// time over all workers (0 if no worker ran a shard).
  [[nodiscard]] std::int64_t first_shard_ns() const;
  /// Every recorded shard span (traced only).
  [[nodiscard]] std::vector<ShardSpan> spans() const;

 private:
  struct Region;
  std::size_t workers_;
  std::size_t capacity_;
  bool traced_;
  std::size_t bytes_;
  Region* region_;
};

/// A span recorded around a benchmark-side call into a library layer, or
/// an invocation of the campaign as a whole.
struct CallSpan {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Writes `calls` (benchmark thread) and `shards` (one track per lane) as a
/// Chrome trace-event JSON file. Times are relative to `origin_ns`.
void write_chrome_trace(const std::string& path, std::int64_t origin_ns,
                        const std::vector<CallSpan>& calls,
                        const std::vector<ShardSpan>& shards);

}  // namespace perfbench
