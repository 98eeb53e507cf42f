// JsonlExportSink: bounded-memory streaming export of per-probe records.
//
// One JSON object per line, the format crowdsourcing backends (MopEye-style
// collectors) ingest. A shard's records are buffered as text while the
// shard runs (O(probes-per-shard) bytes, not O(campaign)), then appended to
// the shared file as one atomic block when the shard finishes — so lines of
// different shards never interleave.
//
// Record schema (keys always in this order; layer keys only when the probe
// was fully stamped):
//   {"scenario":N,"seed":N,"phone":N,"probe":N,"tool":"icmp-ping",
//    "timed_out":false,"rtt_ms":X,"du_ms":X,"dk_ms":X,"dv_ms":X,"dn_ms":X}
//
// Block append order is *scenario order*, for any worker count: shards
// carry a dense run sequence (ShardInfo::run_sequence) and the writer holds
// out-of-order blocks in a bounded reorder window, releasing them
// gap-free. The export file is therefore byte-deterministic across worker
// counts — not merely set-deterministic — at a memory cost of at most
// `window` held shard blocks. The flip side of ordered release: a hard
// kill can lose up to `window` finished-but-unreleased blocks whose shards
// the checkpoint already recorded, so on resume those shards' records are
// absent from the export (the checkpoint, not the JSONL file, is the
// source of truth; a graceful max_shards tick flushes everything).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "report/line_writer.hpp"
#include "report/sink.hpp"

namespace acute::report {

/// The shared, thread-safe file backend JsonlExportSinks of concurrent
/// shards append to. Construct once per campaign, hand to the SinkFactory
/// by shared_ptr.
class JsonlWriter {
 public:
  /// Opens `path` — truncating by default, appending with append=true (the
  /// resume case: a checkpointed sweep restarted with the same export path
  /// must extend the killed run's records, not destroy them; see
  /// examples/checkpoint_resume.cpp). `window` bounds the reorder buffer:
  /// at most that many out-of-order shard blocks are held in memory before
  /// submitters block. Contract violation when unwritable.
  explicit JsonlWriter(std::string path, bool append = false,
                       std::size_t window = 64);
  ~JsonlWriter();

  /// Hands over one shard's complete block for in-order release. Sequences
  /// are the invocation-dense ShardInfo::run_sequence values: each appears
  /// exactly once, and blocks are written to the file in ascending sequence
  /// order regardless of arrival order. Blocks from the `window` sequences
  /// past the release point are buffered; a submitter further ahead blocks
  /// until the window drains (the release point's owner never blocks, so
  /// the pipeline cannot deadlock). A sequence below the release point is a
  /// contract violation: a writer reused by a new invocation must call
  /// reset_sequence() before that invocation's first submit.
  void submit_block(std::size_t sequence, std::string block);

  /// Releases `sequence` with no bytes: the shard died before finishing, so
  /// later shards' blocks must not wait on it forever. Never blocks.
  void abandon(std::size_t sequence);

  /// Starts a new invocation epoch: release restarts at sequence zero.
  /// The only way to restart: call it between Campaign::run invocations
  /// that share this writer (the in-process incremental-tick pattern).
  /// Requires the window to be empty (it is once the previous run()
  /// returned).
  void reset_sequence();

  [[nodiscard]] const std::string& path() const { return writer_.path(); }

 private:
  /// Writes every held block consecutive with next_release_; caller holds
  /// mutex_.
  void drain_held();

  LineWriter writer_;
  std::mutex mutex_;
  std::condition_variable window_open_;
  /// Out-of-order blocks keyed by sequence (ascending iteration = release
  /// order). Abandoned sequences are held as empty blocks.
  std::map<std::size_t, std::string> held_;
  std::size_t next_release_ = 0;
  std::size_t window_;
};

/// Per-shard sink: formats probe events into the schema above. If the shard
/// dies before shard_finished (a worker exception), the sink's destructor
/// abandons its sequence so the writer's reorder window keeps draining.
class JsonlExportSink : public ResultSink {
 public:
  explicit JsonlExportSink(std::shared_ptr<JsonlWriter> writer);
  ~JsonlExportSink() override;

  void shard_started(const ShardInfo& info) override;
  void probe_completed(const ProbeEvent& event) override;
  void shard_finished(const ShardSummary& summary) override;

 private:
  std::shared_ptr<JsonlWriter> writer_;
  ShardInfo info_;
  std::string block_;
  bool started_ = false;
  bool finished_ = false;
};

/// Convenience SinkFactory: one JsonlExportSink per shard, all appending to
/// `writer`. Drop-in value for CampaignSpec::sinks.
[[nodiscard]] SinkFactory jsonl_sink_factory(
    std::shared_ptr<JsonlWriter> writer);

}  // namespace acute::report
