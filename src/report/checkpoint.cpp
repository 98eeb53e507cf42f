#include "report/checkpoint.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cctype>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <utility>

#include "sim/contracts.hpp"
#include "stats/digest_io.hpp"

namespace acute::report {

using sim::expects;

void CheckpointWriter::append(const ShardCheckpoint& checkpoint) {
  // Render the whole record first so the locked append is one write: a
  // kill can tear at most the record's own line, never interleave shards.
  writer_.append_block(render_checkpoint_record(checkpoint));
}

void CheckpointWriter::append_line(std::string_view line) {
  expects(!line.empty() && line.find('\n') == line.size() - 1,
          "checkpoint: a record line must end in its only newline");
  writer_.append_block(line);
}

std::string render_checkpoint_record(const ShardCheckpoint& checkpoint) {
  std::ostringstream line;
  const ShardSummary& s = checkpoint.summary;
  char hash_hex[17];
  std::snprintf(hash_hex, sizeof hash_hex, "%016llx",
                static_cast<unsigned long long>(checkpoint.spec_hash));
  line << "ckpt2 " << s.info.scenario_index << ' ' << s.info.shard_seed << ' '
       << hash_hex << ' ' << s.info.phone_count << ' ' << s.probes_sent << ' '
       << s.probes_lost << ' ' << s.frames_on_air << ' ' << s.events_fired
       << ' ';
  {
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(
                      stats::double_bits(s.sim_seconds)));
    line << hex;
  }
  line << ' ' << checkpoint.digests.size();
  for (const WorkloadDigest& digest : checkpoint.digests) {
    line << ' ' << tools::grid_name(digest.tool) << ' ' << digest.probes
         << ' ' << digest.lost << ' ';
    stats::write_digest(line, digest.reported_rtt_ms);
    line << ' ';
    stats::write_digest(line, digest.du_ms);
    line << ' ';
    stats::write_digest(line, digest.dk_ms);
    line << ' ';
    stats::write_digest(line, digest.dv_ms);
    line << ' ';
    stats::write_digest(line, digest.dn_ms);
    line << ' ' << digest.passive_sniffer_samples << ' '
         << digest.passive_app_samples << ' ';
    stats::write_digest(line, digest.passive_sniffer_rtt_ms);
    line << ' ';
    stats::write_digest(line, digest.passive_app_rtt_ms);
  }
  line << " end\n";
  return line.str();
}

namespace {

/// True when the line's last whitespace-separated token is the "end"
/// sentinel — the writer finished this record, so it is complete, whatever
/// else is wrong with it.
bool has_end_sentinel(std::string_view line) {
  const auto is_space = [](char c) {
    return std::isspace(static_cast<unsigned char>(c)) != 0;
  };
  auto last = line.size();
  while (last > 0 && is_space(line[last - 1])) --last;
  if (last < 3 || line.substr(last - 3, 3) != "end") return false;
  return last == 3 || is_space(line[last - 4]);
}

/// The scenario index in a line's "ckpt2 <index> " prefix — the key
/// compaction groups lines by; nullopt when the line has no such prefix.
std::optional<std::size_t> record_key(std::string_view line) {
  constexpr std::string_view kMagic = "ckpt2 ";
  if (line.substr(0, kMagic.size()) != kMagic) return std::nullopt;
  std::size_t index = 0;
  const char* last = line.data() + line.size();
  const auto [end, error] =
      std::from_chars(line.data() + kMagic.size(), last, index);
  if (error != std::errc{} || end == last || *end != ' ') return std::nullopt;
  return index;
}

/// True when `line` is spelled as render_checkpoint_record spells it: one
/// ' ' between tokens, none before the first or after the last, no other
/// whitespace, and at most one '\n', last. The parser below reads tokens
/// with `>>`, which would also take tabs, runs of spaces or a second line;
/// compaction keys and copies lines by their bytes, so every spelling the
/// two would read differently is refused here.
bool canonical_spacing(std::string_view line) {
  if (!line.empty() && line.back() == '\n') line.remove_suffix(1);
  if (line.empty() || line.front() == ' ' || line.back() == ' ') return false;
  char previous = '\0';
  for (const char c : line) {
    if (c == ' ' ? previous == ' '
                 : std::isspace(static_cast<unsigned char>(c)) != 0) {
      return false;
    }
    previous = c;
  }
  return true;
}

/// Parses one complete-record body; returns false on any malformation.
bool parse_record_body(std::string_view line, ShardCheckpoint& out) {
  // One record per line, spelled canonically, its index the one compaction
  // will key it by: anything else could smuggle a second, unchecked record
  // onto disk, or pass here and fail compaction after the run.
  if (!canonical_spacing(line)) return false;
  const auto key = record_key(line);
  if (!key.has_value()) return false;
  std::istringstream in{std::string(line)};
  std::string magic;
  in >> magic;
  try {
    ShardSummary& s = out.summary;
    std::string hash_hex;
    std::string sim_bits;
    std::size_t digest_count = 0;
    in >> s.info.scenario_index >> s.info.shard_seed >> hash_hex >>
        s.info.phone_count >> s.probes_sent >> s.probes_lost >>
        s.frames_on_air >> s.events_fired >> sim_bits >> digest_count;
    if (!in || s.info.scenario_index != *key || hash_hex.size() != 16 ||
        sim_bits.size() != 16) {
      return false;
    }
    out.spec_hash = std::strtoull(hash_hex.c_str(), nullptr, 16);
    s.sim_seconds = stats::double_from_bits(
        std::strtoull(sim_bits.c_str(), nullptr, 16));
    // At most one digest per tool kind, in ascending kind order (the order
    // WorkloadFold emits): bounds the reserve below against a lying count.
    if (digest_count > tools::kToolKindCount) return false;
    out.digests.clear();
    out.digests.reserve(digest_count);
    for (std::size_t i = 0; i < digest_count; ++i) {
      WorkloadDigest digest;
      std::string tool;
      in >> tool >> digest.probes >> digest.lost;
      if (!in) return false;
      const auto kind = tools::parse_tool_kind(tool);
      if (!kind.has_value()) return false;
      if (i > 0 && tools::tool_kind_index(*kind) <=
                       tools::tool_kind_index(out.digests.back().tool)) {
        return false;
      }
      digest.tool = *kind;
      digest.reported_rtt_ms = stats::read_digest(in);
      digest.du_ms = stats::read_digest(in);
      digest.dk_ms = stats::read_digest(in);
      digest.dv_ms = stats::read_digest(in);
      digest.dn_ms = stats::read_digest(in);
      in >> digest.passive_sniffer_samples >> digest.passive_app_samples;
      if (!in) return false;
      digest.passive_sniffer_rtt_ms = stats::read_digest(in);
      digest.passive_app_rtt_ms = stats::read_digest(in);
      out.digests.push_back(std::move(digest));
    }
    std::string sentinel;
    in >> sentinel;
    if (sentinel != "end") return false;
    // Nothing follows the sentinel but the optional final '\n'.
    const int next = in.get();
    return next == std::istringstream::traits_type::eof() || next == '\n';
  } catch (const sim::ContractViolation&) {
    return false;  // torn digest blob: treat the record as truncated
  }
}

/// fsyncs `path` through a throwaway read-only fd (fsync flushes the file's
/// dirty pages regardless of which descriptor requests it).
void fsync_path(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  expects(fd >= 0, "compact_checkpoint: cannot reopen temp file for fsync");
  const int rc = ::fsync(fd);
  ::close(fd);
  expects(rc == 0, "compact_checkpoint: fsync of temp file failed");
}

/// Renames `temp` over `path` durably: the temp file's bytes are fsync'd
/// first — so a power cut cannot promote a file whose data never reached
/// the platter — and the containing directory is fsync'd after (best
/// effort: some filesystems refuse directory fds) so the rename itself
/// survives the cut.
void durable_replace(const std::string& temp, const std::string& path) {
  fsync_path(temp);
  // rename() replaces atomically on POSIX: readers see the old complete
  // file or the new complete file, never a prefix.
  expects(std::rename(temp.c_str(), path.c_str()) == 0,
          "compact_checkpoint: rename over checkpoint failed");
  const auto slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash + 1);
  const int dir_fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dir_fd >= 0) {
    ::fsync(dir_fd);
    ::close(dir_fd);
  }
}

constexpr const char* kUnknownComplete =
    "checkpoint: complete record of an unknown kind or version (expected "
    "ckpt2), with non-canonical spacing, or with bytes after its end "
    "sentinel — refusing to silently skip it; delete or migrate the "
    "checkpoint file";

/// Compaction's key: the scenario index of a complete line, read from its
/// "ckpt2 <index> " prefix alone; nullopt for a torn line (no sentinel).
/// A complete line without that prefix is an unknown kind: loud.
std::optional<std::size_t> complete_record_index(std::string_view line) {
  if (!has_end_sentinel(line)) return std::nullopt;
  const auto index = record_key(line);
  expects(index.has_value(), kUnknownComplete);
  return index;
}

}  // namespace

bool parse_checkpoint_record(std::string_view line, ShardCheckpoint& out) {
  if (parse_record_body(line, out)) return true;
  expects(!has_end_sentinel(line), kUnknownComplete);
  return false;
}

void compact_checkpoint(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return;  // nothing to compact
  // Pass 1: byte range of each scenario's winning line.
  //
  // The one duplicate-shard rule of the results pipeline: LAST claim wins.
  // A checkpoint appended across kill/resume ticks, or by a fabric
  // coordinator that received a shard from both the original lease holder
  // and the worker the range was re-leased to, can hold several records for
  // one scenario index. Among them the one appended last wins, and winners
  // are written in ascending scenario order (the campaign's canonical merge
  // order). A shard's outcome is a pure function of (spec, campaign seed,
  // index), so every claimant carries bit-identical bytes: "last wins" is
  // an arbitrary-but-fixed tiebreak, not a data decision. Resume (and so
  // the fabric coordinator's resume) reads restored shards back from this
  // function's output, so it inherits the rule rather than re-deriving it.
  struct Range {
    std::streamoff pos = 0;
    std::size_t size = 0;  // without the '\n'
  };
  std::map<std::size_t, Range> latest;
  {
    std::string line;
    for (std::streamoff pos = 0; std::getline(in, line);
         pos += static_cast<std::streamoff>(line.size()) + 1) {
      if (const auto index = complete_record_index(line)) {
        latest.insert_or_assign(*index, Range{pos, line.size()});
      }
    }
  }
  // Pass 2: copy each winner verbatim, seeking only when the next winner
  // does not start where the last one ended.
  const std::string temp = path + ".compact";
  {
    std::ofstream out(temp, std::ios::trunc | std::ios::binary);
    expects(out.is_open(), "compact_checkpoint: cannot open temp file");
    std::string line;
    std::streamoff at = -1;  // where `in` stands, when known
    for (const auto& [index, range] : latest) {
      in.clear();
      if (range.pos != at) in.seekg(range.pos);
      line.resize(range.size);
      in.read(line.data(), static_cast<std::streamsize>(range.size));
      expects(static_cast<std::size_t>(in.gcount()) == range.size &&
                  complete_record_index(line) == index,
              "compact_checkpoint: checkpoint changed during compaction");
      out.write(line.data(), static_cast<std::streamsize>(range.size));
      out.put('\n');
      // Step over the line's '\n' (absent only after a final line cut
      // right at its sentinel).
      in.ignore(1);
      at = range.pos + static_cast<std::streamoff>(range.size) + 1;
    }
    out.flush();
    expects(out.good(), "compact_checkpoint: short write to temp file");
  }
  durable_replace(temp, path);
}

CheckpointReader::CheckpointReader(const std::string& path) : in_(path) {}

bool CheckpointReader::next(ShardCheckpoint& out) {
  while (std::getline(in_, line_)) {
    if (parse_checkpoint_record(line_, out)) return true;
  }
  return false;
}

void for_each_checkpoint(const std::string& path,
                         const std::function<void(ShardCheckpoint&&)>& fn) {
  CheckpointReader reader(path);
  ShardCheckpoint record;
  while (reader.next(record)) fn(std::move(record));
}

std::vector<ShardCheckpoint> load_checkpoint(const std::string& path) {
  std::vector<ShardCheckpoint> records;
  for_each_checkpoint(path, [&](ShardCheckpoint&& record) {
    records.push_back(std::move(record));
  });
  return records;
}

}  // namespace acute::report
