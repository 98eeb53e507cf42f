#include "report/jsonl_sink.hpp"

#include <cstdio>
#include <utility>

#include "sim/contracts.hpp"

namespace acute::report {

using sim::expects;

JsonlWriter::JsonlWriter(std::string path, bool append, std::size_t window)
    : writer_(std::move(path), append), window_(window) {
  expects(window_ > 0, "JsonlWriter reorder window must hold at least one "
                       "block");
}

JsonlWriter::~JsonlWriter() {
  // Safety net: a campaign that never finished (exception after partial
  // submits) may leave blocks stranded behind a gap. Flush them in
  // ascending sequence order rather than drop bytes on the floor — the
  // file stays set-complete even when the ordering contract is void.
  for (auto& [sequence, block] : held_) {
    if (!block.empty()) writer_.append_block(block);
  }
}

void JsonlWriter::drain_held() {
  auto it = held_.begin();
  while (it != held_.end() && it->first == next_release_) {
    if (!it->second.empty()) writer_.append_block(it->second);
    it = held_.erase(it);
    ++next_release_;
  }
}

void JsonlWriter::submit_block(std::size_t sequence, std::string block) {
  std::unique_lock<std::mutex> lock(mutex_);
  // Guessing a restart from a low sequence is unsound: under worker skew a
  // new invocation's sequence 2 can arrive before its 0 and be written in
  // the old epoch. A new invocation must say so through reset_sequence().
  expects(sequence >= next_release_,
          "JsonlWriter: sequence already released; a writer reused by a new "
          "invocation must call reset_sequence() first");
  for (;;) {
    if (sequence == next_release_) {
      if (!block.empty()) writer_.append_block(block);
      ++next_release_;
      drain_held();
      window_open_.notify_all();
      return;
    }
    if (held_.size() < window_) {
      expects(held_.find(sequence) == held_.end(),
              "JsonlWriter: duplicate sequence submitted");
      held_.emplace(sequence, std::move(block));
      return;
    }
    window_open_.wait(lock);
  }
}

void JsonlWriter::reset_sequence() {
  const std::lock_guard<std::mutex> lock(mutex_);
  expects(held_.empty(),
          "JsonlWriter::reset_sequence with blocks still in flight");
  next_release_ = 0;
}

void JsonlWriter::abandon(std::size_t sequence) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (sequence < next_release_) return;  // stale epoch — nothing waits on it
  if (sequence == next_release_) {
    ++next_release_;
    drain_held();
    window_open_.notify_all();
    return;
  }
  // Held as an empty block so release skips it without bytes. Deliberately
  // no window check: abandon runs during stack unwinding and must never
  // block.
  held_.emplace(sequence, std::string{});
}

JsonlExportSink::JsonlExportSink(std::shared_ptr<JsonlWriter> writer)
    : writer_(std::move(writer)) {
  expects(writer_ != nullptr, "JsonlExportSink requires a writer");
}

JsonlExportSink::~JsonlExportSink() {
  if (started_ && !finished_) writer_->abandon(info_.run_sequence);
}

void JsonlExportSink::shard_started(const ShardInfo& info) {
  info_ = info;
  started_ = true;
  block_.clear();
}

void JsonlExportSink::probe_completed(const ProbeEvent& event) {
  char line[512];
  int written = std::snprintf(
      line, sizeof line,
      "{\"scenario\":%zu,\"seed\":%llu,\"phone\":%zu,\"probe\":%d,"
      "\"tool\":\"%s\",\"vantage\":\"%s\",\"timed_out\":%s,\"rtt_ms\":%.12g",
      event.scenario_index, static_cast<unsigned long long>(info_.shard_seed),
      event.phone_index, event.probe_index, tools::grid_name(event.tool),
      to_string(event.vantage), event.timed_out ? "true" : "false",
      event.reported_rtt_ms);
  block_.append(line, static_cast<std::size_t>(written));
  if (event.layers.has_value()) {
    written = std::snprintf(
        line, sizeof line,
        ",\"du_ms\":%.12g,\"dk_ms\":%.12g,\"dv_ms\":%.12g,\"dn_ms\":%.12g",
        event.layers->du_ms, event.layers->dk_ms, event.layers->dv_ms,
        event.layers->dn_ms);
    block_.append(line, static_cast<std::size_t>(written));
  }
  block_.append("}\n");
}

void JsonlExportSink::shard_finished(const ShardSummary& /*summary*/) {
  finished_ = true;
  writer_->submit_block(info_.run_sequence, std::move(block_));
  block_ = std::string();
}

SinkFactory jsonl_sink_factory(std::shared_ptr<JsonlWriter> writer) {
  expects(writer != nullptr, "jsonl_sink_factory requires a writer");
  return [writer = std::move(writer)](const ShardInfo&) {
    std::vector<std::unique_ptr<ResultSink>> sinks;
    sinks.push_back(std::make_unique<JsonlExportSink>(writer));
    return sinks;
  };
}

}  // namespace acute::report
