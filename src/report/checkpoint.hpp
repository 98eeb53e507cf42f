// Campaign checkpoint/resume: persist completed shards, skip them on rerun.
//
// A killed 10^5-scenario sweep must restart from the last completed shard,
// and the resumed campaign's merged digests must be **bit-identical** to an
// uninterrupted run for any worker count. Three pieces make that hold:
//
//   * A ShardCheckpoint is the one record of a finished shard: Campaign's
//     run_shard builds it from DigestSink's fold, appends it here right
//     after the sink chain's shard_finished, and the merge frontier folds
//     the very same record — so the persisted bits are the report's bits.
//   * Records serialize doubles as IEEE-754 bit patterns (stats/digest_io),
//     so a restored digest merges exactly like the one that was dropped.
//   * load_checkpoint() ignores records without the trailing "end" sentinel
//     — a writer killed mid-append loses at most that one shard, which
//     simply reruns. A *complete* record (sentinel present) that fails to
//     parse — an unknown magic/version, an unknown tool or vantage kind —
//     is a loud contract violation instead: silently re-running it would
//     silently double-merge whatever the unknown record already folded.
//
// File format, one record per line (space-separated tokens; integers
// decimal, spec hash and doubles 16-hex-digit):
//   ckpt2 <scenario_index> <shard_seed> <spec_hash> <phones> <sent> <lost>
//   <frames> <events> <sim_seconds> <ndigests> [<tool> <probes> <lost>
//   <rtt-digest> <du-digest> <dk-digest> <dv-digest> <dn-digest>
//   <passive-sniffer-samples> <passive-app-samples>
//   <passive-sniffer-digest> <passive-app-digest>]... end
// (ckpt1, the pre-passive format, is an unknown kind: resuming a campaign
// against a ckpt1 file fails loudly rather than guessing at its digests.)
#pragma once

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "report/digest_sink.hpp"
#include "report/event.hpp"
#include "report/line_writer.hpp"

namespace acute::report {

/// One completed shard: exact counters + per-workload digests (ascending
/// ToolKind). What a shard returns, the checkpoint appends, a fabric worker
/// ships and the merge frontier folds. Raw sample vectors are NOT part of
/// it — resume restores the streaming surface, not keep_samples buffers.
struct ShardCheckpoint {
  ShardSummary summary;
  /// Fingerprint of the spec that produced this shard (Campaign hashes its
  /// probe schedule + the scenario's shape); resume rejects records whose
  /// hash does not match the current spec, so an edited campaign cannot
  /// silently absorb stale shards.
  std::uint64_t spec_hash = 0;
  std::vector<WorkloadDigest> digests;
};

/// Shared, thread-safe appender. Construct after load_checkpoint() — opening
/// is append-mode (healing a previous kill's torn final line), so existing
/// records survive.
class CheckpointWriter {
 public:
  /// Contract violation when `path` is unwritable.
  explicit CheckpointWriter(std::string path)
      : writer_(std::move(path), /*append=*/true) {}

  /// Appends one record atomically and flushes.
  void append(const ShardCheckpoint& checkpoint);

  /// Appends one already-rendered record line verbatim — the fabric
  /// coordinator's path for a line a worker rendered and the coordinator
  /// has parsed and checked. Contract violation unless `line` ends in its
  /// one '\n' (a glued-on next record would tear both).
  void append_line(std::string_view line);

  [[nodiscard]] const std::string& path() const { return writer_.path(); }

 private:
  LineWriter writer_;
};

/// Streaming cursor over the records at `path`, in file order. Holds one
/// record's worth of state: the campaign restore folds a compacted file
/// (ascending-unique scenario order) through this instead of materializing
/// an O(shards) vector. A missing file is an immediately-exhausted cursor.
/// Records appended by a concurrent writer after construction land beyond
/// the cursor's initial extent and are simply read if reached — callers
/// that must not see them (resume) stop after a known record count.
class CheckpointReader {
 public:
  explicit CheckpointReader(const std::string& path);

  /// Parses the next complete record into `out`; false once the file is
  /// exhausted. Malformed lines — the torn last line of a killed writer —
  /// are skipped, the same rule load_checkpoint applies.
  bool next(ShardCheckpoint& out);

 private:
  std::ifstream in_;
  std::string line_;
};

/// Applies `fn` to every complete record at `path` in file order, one
/// record in memory at a time. A missing file applies `fn` zero times (a
/// fresh campaign); malformed lines are skipped.
void for_each_checkpoint(const std::string& path,
                         const std::function<void(ShardCheckpoint&&)>& fn);

/// Parses every complete record at `path`; a missing file yields an empty
/// vector (a fresh campaign). Records that fail to parse — the torn last
/// line of a killed writer — are skipped, so their shards rerun.
/// Materializes the whole file: prefer CheckpointReader/for_each_checkpoint
/// for large campaigns.
[[nodiscard]] std::vector<ShardCheckpoint> load_checkpoint(
    const std::string& path);

/// Renders one record as exactly the line CheckpointWriter::append would
/// write, trailing newline included (load_checkpoint parses it back
/// bit-identically).
[[nodiscard]] std::string render_checkpoint_record(
    const ShardCheckpoint& checkpoint);

/// Parses one record line (render_checkpoint_record's inverse); returns
/// false on a torn write (no "end" sentinel — the writer died mid-append,
/// the shard simply reruns). Nothing may follow the sentinel but one
/// optional '\n', and no '\n' may come before it: a line is exactly one
/// record. Tokens are separated by single spaces, with none before the
/// first or after the last, and the index must read the same as the
/// "ckpt2 <index> " prefix compaction keys by — so every line this accepts
/// compacts. A line the writer *finished* that still fails to parse — an
/// unknown record kind or version, a foreign tool/vantage name, off-canon
/// spacing, bytes after the sentinel — is a loud contract violation:
/// silently skipping it would re-run and double-merge a shard the file
/// already accounts for. The fabric wire protocol ships ckpt2 lines
/// verbatim, so this is also the frame-payload decoder.
[[nodiscard]] bool parse_checkpoint_record(std::string_view line,
                                           ShardCheckpoint& out);

/// Rewrites `path` to one record per shard, in ascending scenario order;
/// among records of the same scenario index the last one in the file wins
/// (see the rule in checkpoint.cpp). Byte-level and streaming: pass 1 keys
/// each complete line (one ending in the "end" sentinel) by its
/// "ckpt2 <index>" prefix and keeps the byte range of each scenario's
/// winner (O(shards) ranges, not digests); pass 2 copies the winning lines
/// verbatim, in ascending order, into a temp file. Torn lines are dropped;
/// a complete line of an unknown kind (no "ckpt2 <index> " prefix, e.g. a
/// ckpt1 record) is a contract violation. Compaction does NOT validate a
/// record's body: every caller's records were already fully checked — by
/// plan_resume's for_each_checkpoint + Campaign::check_record pass before
/// it compacts, or at wire receive in the fabric coordinator. The rewrite
/// is crash-safe: the temp file is flushed and fsync'd before being renamed
/// over `path` (with a best-effort directory fsync after), so a power cut
/// mid-compaction leaves either the old complete file or the new complete
/// file, never a truncated hybrid. A missing file is a no-op. Call before
/// opening an append-mode CheckpointWriter on the same path.
void compact_checkpoint(const std::string& path);

}  // namespace acute::report
