// Streaming results pipeline: digest snapshot/serialization exactness, the
// checkpoint record round-trip (including torn-write tolerance), JSONL
// export shape, and the sink event-delivery contract driven by a real
// campaign shard.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdint>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "report/checkpoint.hpp"
#include "report/digest_sink.hpp"
#include "report/jsonl_sink.hpp"
#include "report/sample_buffer_sink.hpp"
#include "sim/contracts.hpp"
#include "stats/digest_io.hpp"
#include "testbed/campaign.hpp"

namespace acute::report {
namespace {

using namespace acute::sim::literals;
using stats::MergingDigest;
using tools::ToolKind;

/// A unique temp path per test (files live under the build tree's cwd).
std::string temp_path(const std::string& name) {
  return "report_test_" + name;
}

struct TempFile {
  explicit TempFile(const std::string& name) : path(temp_path(name)) {
    std::remove(path.c_str());
  }
  ~TempFile() { std::remove(path.c_str()); }
  std::string path;
};

MergingDigest sample_digest(int samples, double offset) {
  MergingDigest digest;
  for (int i = 0; i < samples; ++i) {
    digest.add(offset + 0.1 * i + (i % 7) * 0.013);
  }
  return digest;
}

TEST(DigestSnapshot, RestoresBitIdenticalState) {
  const MergingDigest original = sample_digest(1000, 20.0);
  const MergingDigest restored =
      MergingDigest::from_snapshot(original.snapshot());
  EXPECT_EQ(restored.count(), original.count());
  EXPECT_EQ(restored.mean(), original.mean());
  EXPECT_EQ(restored.stddev(), original.stddev());
  EXPECT_EQ(restored.min(), original.min());
  EXPECT_EQ(restored.max(), original.max());
  for (const double q : {0.0, 0.01, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0}) {
    EXPECT_EQ(restored.quantile(q), original.quantile(q)) << "q=" << q;
  }

  // The resume-critical property: MERGING into a restored digest behaves
  // bit-identically to merging into the original.
  MergingDigest into_original = original;
  MergingDigest into_restored = restored;
  const MergingDigest other = sample_digest(500, 35.0);
  into_original.merge(other);
  into_restored.merge(other);
  for (const double q : {0.1, 0.5, 0.9}) {
    EXPECT_EQ(into_original.quantile(q), into_restored.quantile(q));
  }
  EXPECT_EQ(into_original.centroid_count(), into_restored.centroid_count());
}

TEST(DigestSnapshot, RejectsStructurallyInvalidSnapshots) {
  stats::DigestSnapshot snap = sample_digest(100, 1.0).snapshot();
  snap.count += 1;  // weights no longer sum to count
  EXPECT_THROW((void)MergingDigest::from_snapshot(snap),
               sim::ContractViolation);
  stats::DigestSnapshot unsorted = sample_digest(100, 1.0).snapshot();
  ASSERT_GE(unsorted.centroids.size(), 2u);
  std::swap(unsorted.centroids.front(), unsorted.centroids.back());
  EXPECT_THROW((void)MergingDigest::from_snapshot(unsorted),
               sim::ContractViolation);
}

TEST(DigestIo, TextRoundTripIsExact) {
  const MergingDigest original = sample_digest(777, -3.25);
  std::stringstream stream;
  stats::write_digest(stream, original);
  const MergingDigest restored = stats::read_digest(stream);
  EXPECT_EQ(restored.count(), original.count());
  EXPECT_EQ(restored.mean(), original.mean());
  for (const double q : {0.1, 0.5, 0.9, 0.999}) {
    EXPECT_EQ(restored.quantile(q), original.quantile(q));
  }
}

TEST(DigestIo, DoubleBitsSurviveExtremes) {
  for (const double x : {0.0, -0.0, 1e-310, -1e308, 3.141592653589793}) {
    EXPECT_EQ(stats::double_bits(stats::double_from_bits(
                  stats::double_bits(x))),
              stats::double_bits(x));
  }
}

TEST(DigestIo, RejectsMalformedStreams) {
  std::stringstream bad_magic("notadigest 1 2 3");
  EXPECT_THROW((void)stats::read_digest(bad_magic), sim::ContractViolation);
  std::stringstream truncated("dgst 128 10");
  EXPECT_THROW((void)stats::read_digest(truncated), sim::ContractViolation);
}

ShardCheckpoint sample_checkpoint(std::size_t index) {
  ShardCheckpoint record;
  record.summary.info = ShardInfo{index, 0xdeadbeef + index, 2};
  record.summary.probes_sent = 40;
  record.summary.probes_lost = 3;
  record.summary.frames_on_air = 1234;
  record.summary.events_fired = 98765;
  record.summary.sim_seconds = 12.5;
  record.spec_hash = 0xfeedface12345678ull;
  WorkloadDigest digest;
  digest.tool = ToolKind::httping;
  digest.probes = 40;
  digest.lost = 3;
  digest.reported_rtt_ms = sample_digest(37, 30.0);
  digest.du_ms = sample_digest(37, 31.0);
  digest.dk_ms = sample_digest(37, 29.0);
  digest.dv_ms = sample_digest(37, 28.0);
  digest.dn_ms = sample_digest(37, 27.0);
  record.digests.push_back(std::move(digest));
  return record;
}

TEST(Checkpoint, AppendLoadRoundTrip) {
  TempFile file("ckpt_roundtrip");
  {
    CheckpointWriter writer(file.path);
    writer.append(sample_checkpoint(4));
    writer.append(sample_checkpoint(9));
  }
  const auto records = load_checkpoint(file.path);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].summary.info.scenario_index, 4u);
  EXPECT_EQ(records[1].summary.info.scenario_index, 9u);
  const ShardCheckpoint expected = sample_checkpoint(4);
  const ShardCheckpoint& loaded = records[0];
  EXPECT_EQ(loaded.summary.info.shard_seed, expected.summary.info.shard_seed);
  EXPECT_EQ(loaded.summary.probes_sent, expected.summary.probes_sent);
  EXPECT_EQ(loaded.summary.probes_lost, expected.summary.probes_lost);
  EXPECT_EQ(loaded.summary.frames_on_air, expected.summary.frames_on_air);
  EXPECT_EQ(loaded.summary.events_fired, expected.summary.events_fired);
  EXPECT_EQ(loaded.summary.sim_seconds, expected.summary.sim_seconds);
  EXPECT_EQ(loaded.spec_hash, expected.spec_hash);
  ASSERT_EQ(loaded.digests.size(), 1u);
  EXPECT_EQ(loaded.digests[0].tool, ToolKind::httping);
  EXPECT_EQ(loaded.digests[0].probes, 40u);
  EXPECT_EQ(loaded.digests[0].reported_rtt_ms.quantile(0.5),
            expected.digests[0].reported_rtt_ms.quantile(0.5));
  EXPECT_EQ(loaded.digests[0].dn_ms.mean(), expected.digests[0].dn_ms.mean());
}

TEST(Checkpoint, MissingFileIsAFreshCampaign) {
  EXPECT_TRUE(load_checkpoint(temp_path("never_written")).empty());
}

TEST(Checkpoint, TornTrailingRecordIsSkipped) {
  TempFile file("ckpt_torn");
  {
    CheckpointWriter writer(file.path);
    writer.append(sample_checkpoint(0));
    writer.append(sample_checkpoint(1));
  }
  // Simulate a kill mid-append: chop the file inside the last record.
  std::string contents;
  {
    std::ifstream in(file.path);
    std::stringstream buffer;
    buffer << in.rdbuf();
    contents = buffer.str();
  }
  {
    std::ofstream out(file.path, std::ios::trunc);
    out << contents.substr(0, contents.size() - 40);
  }
  const auto records = load_checkpoint(file.path);
  ASSERT_EQ(records.size(), 1u);  // the torn record 1 is gone, 0 survives
  EXPECT_EQ(records[0].summary.info.scenario_index, 0u);

  // Appending after the kill must close the torn line first: the new
  // record may not glue onto the torn one (or the resume would lose its
  // own first shard on every subsequent load).
  {
    CheckpointWriter writer(file.path);
    writer.append(sample_checkpoint(7));
  }
  const auto repaired = load_checkpoint(file.path);
  ASSERT_EQ(repaired.size(), 2u);
  EXPECT_EQ(repaired[0].summary.info.scenario_index, 0u);
  EXPECT_EQ(repaired[1].summary.info.scenario_index, 7u);
}

TEST(Checkpoint, UnknownCompleteRecordKindFailsLoudly) {
  // The torn-tolerance rule is narrow: only a line WITHOUT the trailing
  // "end" sentinel (a kill mid-append) may be skipped. A COMPLETE record
  // of an unknown kind — a ckpt1-era file, a future format, a corrupted
  // byte range that still ends in " end" — means silently skipping would
  // silently rerun (and double-append) every shard it held. Every reading
  // surface must refuse instead.
  TempFile file("ckpt_unknown_kind");
  {
    CheckpointWriter writer(file.path);
    writer.append(sample_checkpoint(0));
  }
  {
    std::ofstream out(file.path, std::ios::app);
    out << "ckpt1 3 123 8 0 1 end\n";
  }
  EXPECT_THROW((void)load_checkpoint(file.path), sim::ContractViolation);
  {
    CheckpointReader reader(file.path);
    ShardCheckpoint record;
    ASSERT_TRUE(reader.next(record));  // record 0 parses fine
    EXPECT_THROW((void)reader.next(record), sim::ContractViolation);
  }
  EXPECT_THROW(
      for_each_checkpoint(file.path, [](ShardCheckpoint&&) {}),
      sim::ContractViolation);
  EXPECT_THROW(compact_checkpoint(file.path), sim::ContractViolation);
}

TEST(Checkpoint, CorruptCompleteRecordFailsLoudly) {
  // Same rule for a line that IS ckpt2-prefixed and sentinel-complete but
  // whose body no longer parses: that is corruption, not a torn write.
  TempFile file("ckpt_corrupt_body");
  {
    std::ofstream out(file.path, std::ios::trunc);
    out << "ckpt2 0 not-a-seed 1 end\n";
  }
  EXPECT_THROW((void)load_checkpoint(file.path), sim::ContractViolation);
}

TEST(Checkpoint, BytesAfterTheSentinelAreRefused) {
  // A record is exactly one line: render_checkpoint_record's bytes, with
  // or without the final '\n'. Anything after the sentinel — a second
  // record, a stray token, a space — would go to disk unchecked once the
  // line is appended verbatim, so a complete line carrying it is loud and a
  // line that no longer ends in the sentinel is torn.
  const std::string line = render_checkpoint_record(sample_checkpoint(4));
  const std::string bare = line.substr(0, line.size() - 1);
  ShardCheckpoint record;
  EXPECT_TRUE(parse_checkpoint_record(line, record));
  EXPECT_TRUE(parse_checkpoint_record(bare, record));
  for (const std::string& complete :
       {line + render_checkpoint_record(sample_checkpoint(7)),
        line + "\n", bare + " \n", bare + " end\n"}) {
    EXPECT_THROW((void)parse_checkpoint_record(complete, record),
                 sim::ContractViolation)
        << complete.substr(complete.size() - 12);
  }
  EXPECT_FALSE(parse_checkpoint_record(bare + " foo\n", record));
  // A '\n' between tokens is refused too, wherever it sits.
  std::string split = line;
  split[split.find(' ')] = '\n';
  EXPECT_THROW((void)parse_checkpoint_record(split, record),
               sim::ContractViolation);
  // So is every spelling `>>` reads but compaction would key differently
  // (or not at all): the parser and compaction must agree on each line.
  const std::string tail = line.substr(std::string("ckpt2 4").size());
  std::string tab_end = line;
  tab_end[tab_end.rfind(" end")] = '\t';
  std::string double_space = line;
  double_space.insert(double_space.find(" dgst "), " ");
  for (const std::string& off_canon :
       {"ckpt2\t4" + tail, "ckpt2  4" + tail, " " + line, "ckpt2 +4" + tail,
        tab_end, double_space, bare + "\r\n"}) {
    EXPECT_THROW((void)parse_checkpoint_record(off_canon, record),
                 sim::ContractViolation)
        << off_canon.substr(0, 12);
  }
}

TEST(Checkpoint, AppendLineWritesExactlyOneLine) {
  TempFile file("ckpt_append_line");
  const std::string line = render_checkpoint_record(sample_checkpoint(4));
  {
    CheckpointWriter writer(file.path);
    writer.append_line(line);
    EXPECT_THROW(writer.append_line(line.substr(0, line.size() - 1)),
                 sim::ContractViolation);
    EXPECT_THROW(writer.append_line(line + line), sim::ContractViolation);
    EXPECT_THROW(writer.append_line(""), sim::ContractViolation);
  }
  std::ifstream in(file.path);
  std::stringstream bytes;
  bytes << in.rdbuf();
  EXPECT_EQ(bytes.str(), line);
}

TEST(Checkpoint, TornUnknownKindFragmentIsStillSkipped) {
  // The counterpart: the same foreign prefix WITHOUT the sentinel is a
  // torn write by definition and stays silently skippable — loud failure
  // must not break kill-tolerance for fragments.
  TempFile file("ckpt_unknown_torn");
  {
    CheckpointWriter writer(file.path);
    writer.append(sample_checkpoint(0));
  }
  {
    std::ofstream out(file.path, std::ios::app);
    out << "ckpt1 3 123 torn-fragmen";
  }
  const auto records = load_checkpoint(file.path);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].summary.info.scenario_index, 0u);
}

/// write_digest()'s tokens for an arbitrary, possibly lying, digest.
std::string digest_blob(std::uint64_t compression, double min, double max,
                        std::uint64_t declared_centroids,
                        const std::vector<std::pair<double, double>>& cents) {
  std::ostringstream out;
  const auto hex = [&](double x) {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(stats::double_bits(x)));
    out << ' ' << buf;
  };
  double count = 0;
  double sum = 0;
  for (const auto& [mean, weight] : cents) {
    count += weight;
    sum += mean * weight;
  }
  out << "dgst " << compression << ' ' << static_cast<std::uint64_t>(count);
  hex(sum);
  hex(sum);
  hex(min);
  hex(max);
  out << ' ' << declared_centroids;
  for (const auto& [mean, weight] : cents) {
    hex(mean);
    hex(weight);
  }
  return out.str();
}

/// sample_checkpoint(4)'s record with its first digest replaced by `blob`;
/// `complete` keeps the writer's "end" sentinel, otherwise the line is torn
/// just before it.
std::string record_with_digest(const std::string& blob, bool complete) {
  std::string line = render_checkpoint_record(sample_checkpoint(4));
  const auto first = line.find("dgst ");
  const auto second = line.find(" dgst ", first);
  line.replace(first, second - first, blob);
  if (!complete) line.erase(line.rfind(" end"));
  return line;
}

TEST(Checkpoint, HostileDigestBytesAreRefusedNotTrusted) {
  // Each blob below parsed (or threw std::bad_alloc) before the digest
  // parser validated its input. Torn, the record is a plain parse failure;
  // sentinel-complete, it is corruption and must fail loudly — never be
  // accepted, and never escape as anything but a ContractViolation.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<std::pair<double, double>> forty;
  for (int i = 0; i < 40; ++i) forty.emplace_back(double(i), 1.0);
  const std::vector<std::pair<const char*, std::string>> hostile = {
      {"nan first mean", digest_blob(8, 1, 3, 1, {{nan, 3}})},
      {"nan min", digest_blob(8, nan, 3, 2, {{1, 1}, {2.5, 2}})},
      {"nan max", digest_blob(8, 1, nan, 2, {{1, 1}, {2.5, 2}})},
      {"mean above max", digest_blob(8, 1, 3, 2, {{1, 1}, {7, 2}})},
      {"40 centroids at compression 8", digest_blob(8, 0, 39, 40, forty)},
      {"compression 2^62",
       digest_blob(std::uint64_t{1} << 62, 1, 3, 2, {{1, 1}, {2.5, 2}})},
      {"centroid count 2^40",
       digest_blob(128, 1, 3, std::uint64_t{1} << 40, {})},
  };
  for (const auto& [name, blob] : hostile) {
    ShardCheckpoint record;
    bool parsed = true;
    EXPECT_NO_THROW(parsed =
                        parse_checkpoint_record(record_with_digest(blob, false),
                                                record))
        << name;
    EXPECT_FALSE(parsed) << name;
    EXPECT_THROW((void)parse_checkpoint_record(record_with_digest(blob, true),
                                               record),
                 sim::ContractViolation)
        << name;
  }
}

TEST(Checkpoint, DigestCountIsBoundedByTheToolKinds) {
  // The per-record digest count reserves storage: it must be bounded (one
  // digest per tool kind, ascending) before anything is allocated for it.
  const std::string valid = render_checkpoint_record(sample_checkpoint(4));
  const auto count_at = valid.find(" 1 httping ");
  ASSERT_NE(count_at, std::string::npos);
  const std::string head = valid.substr(0, count_at);
  const std::string body = valid.substr(count_at + 3);  // "httping ..."
  const std::string tail = body.substr(0, body.rfind(" end"));
  ShardCheckpoint record;
  for (const std::string& count : {std::string("1099511627776"),
                                   std::string("5")}) {
    const std::string torn = head + ' ' + count + ' ' + tail;
    EXPECT_FALSE(parse_checkpoint_record(torn, record)) << count;
    EXPECT_THROW((void)parse_checkpoint_record(torn + " end\n", record),
                 sim::ContractViolation)
        << count;
  }
  // Two digests of the same kind (not ascending) is corruption too.
  const std::string twice = head + " 2 " + tail + ' ' + tail;
  EXPECT_FALSE(parse_checkpoint_record(twice, record));
  EXPECT_THROW((void)parse_checkpoint_record(twice + " end\n", record),
               sim::ContractViolation);
  ASSERT_TRUE(parse_checkpoint_record(valid, record));
}

TEST(Checkpoint, CompactionDedupesAndSortsRecords) {
  TempFile file("ckpt_compact");
  {
    CheckpointWriter writer(file.path);
    writer.append(sample_checkpoint(9));
    writer.append(sample_checkpoint(2));
    writer.append(sample_checkpoint(9));  // duplicate re-run: last wins
    writer.append(sample_checkpoint(5));
  }
  // Tear the tail as a kill would; compaction input is what load accepts.
  {
    std::ofstream out(file.path, std::ios::app);
    out << "ckpt1 11 123 torn-fragmen";
  }
  compact_checkpoint(file.path);

  std::size_t lines = 0;
  {
    std::ifstream in(file.path);
    std::string line;
    while (std::getline(in, line)) ++lines;
  }
  EXPECT_EQ(lines, 3u);  // 9's duplicate and the torn fragment are gone
  const auto records = load_checkpoint(file.path);
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].summary.info.scenario_index, 2u);
  EXPECT_EQ(records[1].summary.info.scenario_index, 5u);
  EXPECT_EQ(records[2].summary.info.scenario_index, 9u);
  // Byte-exact round trip: a compacted record re-renders identically.
  EXPECT_EQ(render_checkpoint_record(records[2]),
            render_checkpoint_record(sample_checkpoint(9)));
}

TEST(Checkpoint, StreamingCompactionWritesLastRecordPerShardAscending) {
  // Duplicates that differ (a later re-run of shard 9 with other counters)
  // and a torn tail: the compacted file must be exactly the ascending
  // last-wins lines, byte for byte as render_checkpoint_record writes them.
  ShardCheckpoint rerun = sample_checkpoint(9);
  rerun.summary.frames_on_air += 1;
  TempFile file("ckpt_compact_stream");
  {
    CheckpointWriter writer(file.path);
    writer.append(sample_checkpoint(9));
    writer.append(sample_checkpoint(2));
    writer.append(rerun);
    writer.append(sample_checkpoint(5));
  }
  {
    std::ofstream out(file.path, std::ios::app);
    out << "ckpt1 11 123 torn-fragmen";
  }
  compact_checkpoint(file.path);
  std::ifstream in(file.path);
  std::stringstream bytes;
  bytes << in.rdbuf();
  EXPECT_EQ(bytes.str(), render_checkpoint_record(sample_checkpoint(2)) +
                             render_checkpoint_record(sample_checkpoint(5)) +
                             render_checkpoint_record(rerun));
}

TEST(Checkpoint, CompactionCopiesLinesByteForByte) {
  // Compaction keys lines by "ckpt2 <index> " and the "end" sentinel and
  // copies the winners verbatim: a body it could not even parse survives
  // untouched (validation is the resume's job, before it compacts), and a
  // final line a kill cut right after its sentinel gets its '\n'. A
  // complete line of another kind is still refused.
  const std::string two = render_checkpoint_record(sample_checkpoint(2));
  TempFile file("ckpt_compact_verbatim");
  {
    std::ofstream out(file.path, std::ios::trunc);
    out << "ckpt2 9 opaque  body end\n" << two << "ckpt2 5 torn-fragmen\n"
        << "ckpt2 5 last wins end";
  }
  compact_checkpoint(file.path);
  std::stringstream bytes;
  bytes << std::ifstream(file.path).rdbuf();
  EXPECT_EQ(bytes.str(), two + "ckpt2 5 last wins end\n" +
                             "ckpt2 9 opaque  body end\n");

  for (const std::string& unknown :
       {std::string("ckpt1 3 123 8 0 1 end"), std::string("ckpt2 x end"),
        std::string("ckpt2 -3 end"), std::string("end")}) {
    {
      std::ofstream out(file.path, std::ios::trunc);
      out << two << unknown << '\n';
    }
    EXPECT_THROW(compact_checkpoint(file.path), sim::ContractViolation)
        << unknown;
  }
}

TEST(Checkpoint, StreamingCompactionOfMissingFileIsANoop) {
  const std::string path = temp_path("ckpt_compact_missing");
  compact_checkpoint(path);  // must not create the file or throw
  EXPECT_FALSE(std::ifstream(path).is_open());
}

TEST(Checkpoint, ReaderStreamsRecordsInFileOrderSkippingTornLines) {
  TempFile file("ckpt_reader");
  {
    CheckpointWriter writer(file.path);
    writer.append(sample_checkpoint(3));
    writer.append(sample_checkpoint(1));
  }
  {
    std::ofstream out(file.path, std::ios::app);
    out << "ckpt1 11 torn\n";  // a torn line in the middle, not just the tail
  }
  {
    CheckpointWriter writer(file.path);
    writer.append(sample_checkpoint(6));
  }
  CheckpointReader reader(file.path);
  ShardCheckpoint record;
  std::vector<std::size_t> order;
  while (reader.next(record)) {
    order.push_back(record.summary.info.scenario_index);
    EXPECT_EQ(record.digests.size(), 1u);  // each record parses in full
  }
  EXPECT_EQ(order, (std::vector<std::size_t>{3, 1, 6}));

  // for_each_checkpoint is the same cursor behind a fold callback, and
  // load_checkpoint is for_each into a vector — all three must agree.
  std::vector<std::size_t> folded;
  for_each_checkpoint(file.path, [&](ShardCheckpoint&& r) {
    folded.push_back(r.summary.info.scenario_index);
  });
  EXPECT_EQ(folded, order);
  const auto loaded = load_checkpoint(file.path);
  ASSERT_EQ(loaded.size(), order.size());
  for (std::size_t i = 0; i < loaded.size(); ++i) {
    EXPECT_EQ(loaded[i].summary.info.scenario_index, order[i]);
  }
}

TEST(Checkpoint, ReaderOnMissingFileIsImmediatelyExhausted) {
  CheckpointReader reader(temp_path("ckpt_reader_missing"));
  ShardCheckpoint record;
  EXPECT_FALSE(reader.next(record));
}

TEST(JsonlReorder, ReleasesBlocksInSequenceOrder) {
  TempFile file("jsonl_reorder");
  {
    JsonlWriter writer(file.path, /*append=*/false, /*window=*/8);
    writer.submit_block(2, "c\n");
    writer.submit_block(1, "b\n");
    writer.submit_block(0, "a\n");
    writer.submit_block(3, "d\n");
  }
  std::ifstream in(file.path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_EQ(buffer.str(), "a\nb\nc\nd\n");
}

TEST(JsonlReorder, AbandonedSequenceDoesNotStallTheWindow) {
  TempFile file("jsonl_abandon");
  {
    JsonlWriter writer(file.path, /*append=*/false, /*window=*/8);
    writer.submit_block(2, "late\n");
    writer.abandon(0);  // a dead shard must release its slot
    writer.submit_block(1, "mid\n");
  }
  std::ifstream in(file.path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_EQ(buffer.str(), "mid\nlate\n");
}

TEST(JsonlReorder, SequenceRestartBeginsANewInvocation) {
  // A writer reused across Campaign::run invocations (incremental resume
  // ticks) sees run sequences restart at zero. reset_sequence() starts the
  // new epoch explicitly; a submit below the release point (here: the
  // out-of-order 1 before 0) is also auto-detected as a restart.
  TempFile file("jsonl_epoch");
  {
    JsonlWriter writer(file.path, /*append=*/false, /*window=*/4);
    writer.submit_block(0, "tick1-a\n");
    writer.submit_block(1, "tick1-b\n");
    writer.reset_sequence();
    writer.submit_block(1, "tick2-b\n");
    writer.submit_block(0, "tick2-a\n");
    writer.submit_block(2, "tick2-c\n");
    writer.submit_block(0, "tick3-a\n");  // auto-detected restart
  }
  std::ifstream in(file.path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_EQ(buffer.str(),
            "tick1-a\ntick1-b\ntick2-a\ntick2-b\ntick2-c\ntick3-a\n");
}

TEST(DigestSinkTest, FoldsEventsLikeTheLegacyPath) {
  DigestSink sink;
  ProbeEvent event;
  event.tool = ToolKind::icmp_ping;
  event.reported_rtt_ms = 10.0;
  event.layers = LayerBreakdown{10.0, 8.0, 6.0, 4.0};
  sink.probe_completed(event);
  event.reported_rtt_ms = 20.0;
  event.layers.reset();  // unstamped (cellular-style) probe
  sink.probe_completed(event);
  event.timed_out = true;
  event.reported_rtt_ms = 0;
  sink.probe_completed(event);

  const auto digests = sink.take_digests();
  ASSERT_EQ(digests.size(), 1u);
  EXPECT_EQ(digests[0].tool, ToolKind::icmp_ping);
  EXPECT_EQ(digests[0].probes, 3u);
  EXPECT_EQ(digests[0].lost, 1u);
  EXPECT_EQ(digests[0].reported_rtt_ms.count(), 2u);  // timeouts excluded
  EXPECT_EQ(digests[0].du_ms.count(), 1u);            // only stamped probes
  EXPECT_EQ(sink.take_digests().size(), 0u);          // take() drains
}

TEST(SampleBufferSinkTest, BuffersMatchLegacyVectors) {
  SampleBufferSink sink;
  ProbeEvent event;
  event.reported_rtt_ms = 10.0;
  event.layers = LayerBreakdown{10.0, 8.0, 6.0, 4.0};
  sink.probe_completed(event);
  event.reported_rtt_ms = 20.0;
  event.layers.reset();
  sink.probe_completed(event);
  event.timed_out = true;
  sink.probe_completed(event);
  const auto buffers = sink.take();
  EXPECT_EQ(buffers.reported_rtt_ms, (std::vector<double>{10.0, 20.0}));
  EXPECT_EQ(buffers.du_ms, (std::vector<double>{10.0}));
  EXPECT_EQ(buffers.dn_ms, (std::vector<double>{4.0}));
}

/// Records the event stream verbatim, for the delivery-contract assertions.
struct RecordingSink : ResultSink {
  std::vector<ShardInfo>* started;
  std::vector<ProbeEvent>* events;
  std::vector<ShardSummary>* finished;
  void shard_started(const ShardInfo& info) override {
    started->push_back(info);
  }
  void probe_completed(const ProbeEvent& event) override {
    events->push_back(event);
  }
  void shard_finished(const ShardSummary& summary) override {
    finished->push_back(summary);
  }
};

TEST(CampaignSinks, DeliverEventsInCanonicalOrder) {
  // A 2-phone shard through the real engine: the custom sink must see
  // shard_started, then phone-major probe events in schedule order, then
  // shard_finished with counters matching the ShardResult view.
  testbed::ScenarioSpec scenario;
  scenario.phones.assign(2, testbed::PhoneSpec{});
  scenario.emulated_rtt = 10_ms;
  testbed::CampaignSpec spec;
  spec.scenarios = {scenario};
  spec.probes_per_phone = 5;
  spec.probe_interval = 100_ms;

  std::vector<ShardInfo> started;
  std::vector<ProbeEvent> events;
  std::vector<ShardSummary> finished;
  spec.sinks = [&](const ShardInfo&) {
    std::vector<std::unique_ptr<ResultSink>> sinks;
    auto sink = std::make_unique<RecordingSink>();
    sink->started = &started;
    sink->events = &events;
    sink->finished = &finished;
    sinks.push_back(std::move(sink));
    return sinks;
  };

  const testbed::CampaignReport report = testbed::Campaign(spec).run(1);
  ASSERT_EQ(started.size(), 1u);
  ASSERT_EQ(finished.size(), 1u);
  EXPECT_EQ(started[0].scenario_index, 0u);
  EXPECT_EQ(started[0].phone_count, 2u);
  EXPECT_EQ(started[0].shard_seed, report.shards[0].shard_seed);

  ASSERT_EQ(events.size(), 10u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].phone_index, i / 5) << "event " << i;
    EXPECT_EQ(events[i].probe_index, static_cast<int>(i % 5));
    EXPECT_EQ(events[i].tool, ToolKind::icmp_ping);
  }
  EXPECT_EQ(finished[0].probes_sent, report.shards[0].probes_sent);
  EXPECT_EQ(finished[0].probes_lost, report.shards[0].probes_lost);
  EXPECT_EQ(finished[0].frames_on_air, report.shards[0].frames_on_air);
  EXPECT_EQ(finished[0].events_fired, report.shards[0].events_fired);

  // The compatibility view agrees with the event stream.
  std::vector<double> event_rtts;
  for (const ProbeEvent& event : events) {
    if (!event.timed_out) event_rtts.push_back(event.reported_rtt_ms);
  }
  EXPECT_EQ(event_rtts, report.shards[0].reported_rtt_ms);
}

TEST(JsonlExport, WritesOneRecordPerProbe) {
  TempFile file("jsonl_export");
  testbed::ScenarioGrid grid;
  grid.emulated_rtts = {10_ms};
  grid.workloads = {testbed::WorkloadSpec{ToolKind::icmp_ping},
                    testbed::WorkloadSpec{ToolKind::httping}};
  testbed::CampaignSpec spec;
  spec.scenarios = grid.expand();
  spec.probes_per_phone = 4;
  spec.probe_interval = 100_ms;
  spec.keep_samples = false;
  auto writer = std::make_shared<JsonlWriter>(file.path);
  spec.sinks = jsonl_sink_factory(writer);
  const testbed::CampaignReport report = testbed::Campaign(spec).run(2);

  std::ifstream in(file.path);
  ASSERT_TRUE(in.is_open());
  std::string line;
  std::size_t lines = 0;
  std::size_t httping_lines = 0;
  while (std::getline(in, line)) {
    ++lines;
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_NE(line.find("\"scenario\":"), std::string::npos);
    EXPECT_NE(line.find("\"tool\":\""), std::string::npos);
    EXPECT_NE(line.find("\"rtt_ms\":"), std::string::npos);
    if (line.find("\"tool\":\"httping\"") != std::string::npos) {
      ++httping_lines;
    }
  }
  EXPECT_EQ(lines, report.total_probes());
  EXPECT_EQ(httping_lines, 4u);
}

}  // namespace
}  // namespace acute::report
