// Campaign checkpoint/resume: a sweep killed after K of N shards and
// resumed from its checkpoint must produce bit-identical merged workload
// digests to an uninterrupted run — for any worker count (the ISSUE's
// acceptance criterion, exercised at 1 and 8 workers).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "report/checkpoint.hpp"

#include "report/sink.hpp"
#include "sim/contracts.hpp"
#include "testbed/campaign.hpp"

namespace acute::testbed {
namespace {

using namespace acute::sim::literals;
using phone::PhoneProfile;
using tools::ToolKind;

struct TempFile {
  explicit TempFile(const std::string& name)
      : path("resume_test_" + name) {
    std::remove(path.c_str());
  }
  ~TempFile() { std::remove(path.c_str()); }
  std::string path;
};

/// 8 shards across profiles / workloads / loss — enough variety that a
/// digest mismatch anywhere shows up in the merge.
CampaignSpec resume_campaign() {
  ScenarioGrid grid;
  grid.profiles = {PhoneProfile::nexus5(), PhoneProfile::nexus4()};
  grid.emulated_rtts = {12_ms};
  grid.loss_rates = {0.0, 0.2};
  grid.workloads = {WorkloadSpec{ToolKind::icmp_ping},
                    WorkloadSpec{ToolKind::httping}};
  CampaignSpec spec;
  spec.seed = 77;
  spec.scenarios = grid.expand();
  spec.probes_per_phone = 6;
  spec.probe_interval = 150_ms;
  spec.probe_timeout = 1_s;
  spec.keep_samples = false;
  return spec;
}

void expect_digests_bit_identical(const CampaignReport& a,
                                  const CampaignReport& b) {
  const auto da = a.workload_digests();
  const auto db = b.workload_digests();
  ASSERT_EQ(da.size(), db.size());
  for (std::size_t i = 0; i < da.size(); ++i) {
    EXPECT_EQ(da[i].tool, db[i].tool);
    EXPECT_EQ(da[i].probes, db[i].probes);
    EXPECT_EQ(da[i].lost, db[i].lost);
    EXPECT_EQ(da[i].reported_rtt_ms.count(), db[i].reported_rtt_ms.count());
    EXPECT_EQ(da[i].reported_rtt_ms.mean(), db[i].reported_rtt_ms.mean());
    EXPECT_EQ(da[i].reported_rtt_ms.min(), db[i].reported_rtt_ms.min());
    EXPECT_EQ(da[i].reported_rtt_ms.max(), db[i].reported_rtt_ms.max());
    for (const double q : {0.1, 0.25, 0.5, 0.75, 0.9, 0.99}) {
      EXPECT_EQ(da[i].reported_rtt_ms.quantile(q),
                db[i].reported_rtt_ms.quantile(q))
          << "tool " << static_cast<int>(da[i].tool) << " q=" << q;
      EXPECT_EQ(da[i].du_ms.quantile(q), db[i].du_ms.quantile(q));
      EXPECT_EQ(da[i].dn_ms.quantile(q), db[i].dn_ms.quantile(q));
    }
  }
  EXPECT_EQ(a.rtt_digest().quantile(0.5), b.rtt_digest().quantile(0.5));
  EXPECT_EQ(a.total_probes(), b.total_probes());
  EXPECT_EQ(a.total_lost(), b.total_lost());
  EXPECT_EQ(a.total_frames(), b.total_frames());
  EXPECT_EQ(a.total_events(), b.total_events());
}

void kill_and_resume(std::size_t kill_workers, std::size_t resume_workers) {
  // Ground truth: the same campaign uninterrupted, no checkpoint.
  const CampaignReport uninterrupted = Campaign(resume_campaign()).run(1);

  TempFile checkpoint("kill_" + std::to_string(kill_workers) + "_" +
                      std::to_string(resume_workers));
  // "Kill" after 3 of 8 shards: max_shards caps the invocation.
  CampaignSpec killed = resume_campaign();
  killed.checkpoint_path = checkpoint.path;
  killed.max_shards = 3;
  const CampaignReport partial = Campaign(killed).run(kill_workers);
  EXPECT_EQ(partial.completed_shards(), 3u);
  EXPECT_LT(partial.total_probes(), uninterrupted.total_probes());

  // Resume: same spec, no cap. Only the 5 pending shards execute.
  CampaignSpec resumed_spec = resume_campaign();
  resumed_spec.checkpoint_path = checkpoint.path;
  std::size_t executed = 0;
  resumed_spec.sinks = [&executed](const report::ShardInfo&) {
    ++executed;  // single-threaded counting is only safe with 1 worker
    return std::vector<std::unique_ptr<report::ResultSink>>{};
  };
  if (resume_workers > 1) resumed_spec.sinks = nullptr;
  const CampaignReport resumed = Campaign(resumed_spec).run(resume_workers);
  if (resume_workers == 1) EXPECT_EQ(executed, 5u);
  EXPECT_EQ(resumed.completed_shards(), resumed.shards.size());

  expect_digests_bit_identical(resumed, uninterrupted);
}

TEST(CampaignResume, KilledSweepResumesBitIdenticallySerial) {
  kill_and_resume(1, 1);
}

TEST(CampaignResume, KilledSweepResumesBitIdenticallyThreaded) {
  kill_and_resume(8, 8);
}

TEST(CampaignResume, FullyCheckpointedRerunExecutesNothing) {
  TempFile checkpoint("norerun");
  CampaignSpec spec = resume_campaign();
  spec.checkpoint_path = checkpoint.path;
  const CampaignReport first = Campaign(spec).run(2);
  EXPECT_EQ(first.completed_shards(), first.shards.size());

  std::size_t executed = 0;
  CampaignSpec again = resume_campaign();
  again.checkpoint_path = checkpoint.path;
  again.sinks = [&executed](const report::ShardInfo&) {
    ++executed;
    return std::vector<std::unique_ptr<report::ResultSink>>{};
  };
  const CampaignReport second = Campaign(again).run(1);
  EXPECT_EQ(executed, 0u);  // every shard restored, none re-executed
  expect_digests_bit_identical(first, second);
}

TEST(CampaignResume, IncrementalInvocationsWalkTheCampaign) {
  // The ops pattern behind max_shards: N small checkpointed invocations
  // eventually complete the sweep, idempotently.
  TempFile checkpoint("incremental");
  const CampaignReport uninterrupted = Campaign(resume_campaign()).run(1);
  for (int tick = 0; tick < 5; ++tick) {
    CampaignSpec spec = resume_campaign();
    spec.checkpoint_path = checkpoint.path;
    spec.max_shards = 2;
    const CampaignReport report = Campaign(spec).run(2);
    const std::size_t expect_done =
        std::min<std::size_t>(2 * (tick + 1), report.shards.size());
    EXPECT_EQ(report.completed_shards(), expect_done);
    if (report.completed_shards() == report.shards.size()) {
      expect_digests_bit_identical(report, uninterrupted);
      return;
    }
  }
  FAIL() << "campaign never completed";
}

TEST(CampaignResume, MismatchedCheckpointIsAContractViolation) {
  TempFile checkpoint("mismatch");
  CampaignSpec spec = resume_campaign();
  spec.checkpoint_path = checkpoint.path;
  spec.max_shards = 2;
  (void)Campaign(spec).run(1);

  CampaignSpec other = resume_campaign();
  other.seed = spec.seed + 1;  // different campaign, same checkpoint file
  other.checkpoint_path = checkpoint.path;
  EXPECT_THROW((void)Campaign(other).run(1), sim::ContractViolation);
}

TEST(CampaignResume, EditedSpecIsAContractViolation) {
  // Same seed, same scenario count — but the probe schedule changed since
  // the kill. The per-record spec fingerprint must reject the stale shards
  // instead of silently merging 6-probe digests into an 18-probe campaign.
  TempFile checkpoint("edited_spec");
  CampaignSpec spec = resume_campaign();
  spec.checkpoint_path = checkpoint.path;
  spec.max_shards = 2;
  (void)Campaign(spec).run(1);

  CampaignSpec edited = resume_campaign();
  edited.checkpoint_path = checkpoint.path;
  edited.probes_per_phone = spec.probes_per_phone * 3;
  EXPECT_THROW((void)Campaign(edited).run(1), sim::ContractViolation);

  CampaignSpec reshaped = resume_campaign();
  reshaped.checkpoint_path = checkpoint.path;
  reshaped.scenarios[0].phones.push_back(PhoneSpec{});  // different shape
  EXPECT_THROW((void)Campaign(reshaped).run(1), sim::ContractViolation);
}

TEST(CampaignResume, CorruptCompleteRecordFailsTheResumeLoudly) {
  // Compaction keys lines by their "ckpt2 <index>" prefix and copies them
  // without parsing, so the refusal of a sentinel-complete but corrupt
  // record lives in the resume's validation pass, which runs first. Pin it
  // for a body that no longer parses and for one that parses but carries
  // another shard's seed.
  const auto corrupt = [](const std::string& name, const auto& edit) {
    SCOPED_TRACE(name);
    TempFile checkpoint("corrupt_" + name);
    CampaignSpec spec = resume_campaign();
    spec.checkpoint_path = checkpoint.path;
    spec.max_shards = 3;
    (void)Campaign(spec).run(1);
    std::string bytes;
    {
      std::ifstream in(checkpoint.path);
      std::stringstream buffer;
      buffer << in.rdbuf();
      bytes = buffer.str();
    }
    const std::size_t second = bytes.find('\n') + 1;  // record 2 of 3
    edit(bytes, second);
    {
      std::ofstream out(checkpoint.path, std::ios::trunc);
      out << bytes;
    }
    spec.max_shards = 0;
    EXPECT_THROW((void)Campaign(spec).run(1), sim::ContractViolation);
  };
  corrupt("digest_tag", [](std::string& bytes, std::size_t line) {
    bytes.replace(bytes.find(" dgst ", line), 6, " dgsx ");
  });
  corrupt("seed", [](std::string& bytes, std::size_t line) {
    // "ckpt2 <index> <seed> ...": bump the seed's last digit.
    const std::size_t seed_end = bytes.find(' ', bytes.find(' ', line + 6) + 1);
    char& digit = bytes[seed_end - 1];
    digit = digit == '9' ? '0' : static_cast<char>(digit + 1);
  });
}

TEST(CampaignResume, TornCheckpointLineRerunsOnlyThatShard) {
  // A real kill can tear the checkpoint's last line mid-write. The torn
  // shard must simply rerun — and the resumed merge must still be
  // bit-identical to an uninterrupted run.
  TempFile checkpoint("torn");
  CampaignSpec spec = resume_campaign();
  spec.checkpoint_path = checkpoint.path;
  spec.max_shards = 3;
  (void)Campaign(spec).run(1);
  std::string contents;
  {
    std::ifstream in(checkpoint.path);
    std::stringstream buffer;
    buffer << in.rdbuf();
    contents = buffer.str();
  }
  {
    std::ofstream out(checkpoint.path, std::ios::trunc);
    out << contents.substr(0, contents.size() - 25);  // tear record 2
  }
  ASSERT_EQ(report::load_checkpoint(checkpoint.path).size(), 2u);

  CampaignSpec resumed_spec = resume_campaign();
  resumed_spec.checkpoint_path = checkpoint.path;
  const CampaignReport resumed = Campaign(resumed_spec).run(1);
  EXPECT_EQ(resumed.completed_shards(), resumed.shards.size());
  expect_digests_bit_identical(resumed, Campaign(resume_campaign()).run(1));
  // The rerun shard re-recorded itself: the healed file now restores all
  // shards (resume's compaction pass dropped the torn fragment entirely).
  EXPECT_EQ(report::load_checkpoint(checkpoint.path).size(),
            resumed.shards.size());
}

std::size_t raw_line_count(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line)) ++lines;
  return lines;
}

TEST(CampaignResume, ResumeCompactsTheCheckpointToOneLinePerShard) {
  // A many-times-killed sweep accretes torn fragments (and, with unlucky
  // kills, duplicate records) in its checkpoint. Resume must rewrite the
  // file to one line per completed shard — and keep resuming bit-
  // identically afterwards (resume -> compact -> resume round trip).
  TempFile checkpoint("compact");
  const CampaignReport uninterrupted = Campaign(resume_campaign()).run(1);

  CampaignSpec tick = resume_campaign();
  tick.checkpoint_path = checkpoint.path;
  tick.max_shards = 3;
  (void)Campaign(tick).run(1);

  // Simulate kill debris: a duplicated record and a torn trailing line.
  {
    const auto records = report::load_checkpoint(checkpoint.path);
    ASSERT_EQ(records.size(), 3u);
    std::ofstream out(checkpoint.path, std::ios::app);
    out << report::render_checkpoint_record(records[1]);
    out << "ckpt1 2 99 torn-mid-writ";
  }
  ASSERT_EQ(raw_line_count(checkpoint.path), 5u);

  // Second tick: load compacts (3 unique records survive) before the next
  // 3 shards append.
  (void)Campaign(tick).run(2);
  EXPECT_EQ(raw_line_count(checkpoint.path), 6u);
  EXPECT_EQ(report::load_checkpoint(checkpoint.path).size(), 6u);

  // Final resume completes the sweep; every merged digest bit-identical to
  // the uninterrupted run, and the file is again one line per shard.
  CampaignSpec rest = resume_campaign();
  rest.checkpoint_path = checkpoint.path;
  const CampaignReport resumed = Campaign(rest).run(2);
  EXPECT_EQ(resumed.completed_shards(), resumed.shards.size());
  expect_digests_bit_identical(resumed, uninterrupted);

  // One more resume: nothing pending, the load compacts the finished file
  // to exactly shards.size() lines and restores everything bit-identically.
  const CampaignReport rerun = Campaign(rest).run(1);
  EXPECT_EQ(raw_line_count(checkpoint.path), rerun.shards.size());
  expect_digests_bit_identical(rerun, uninterrupted);
}

TEST(CampaignResume, RestoredShardsCarryCountersButNoSamples) {
  TempFile checkpoint("restored_view");
  CampaignSpec spec = resume_campaign();
  spec.keep_samples = true;
  spec.checkpoint_path = checkpoint.path;
  const CampaignReport first = Campaign(spec).run(1);
  const CampaignReport second = Campaign(spec).run(1);
  for (std::size_t i = 0; i < second.shards.size(); ++i) {
    const ShardResult& restored = second.shards[i];
    EXPECT_TRUE(restored.completed);
    EXPECT_EQ(restored.shard_seed, first.shards[i].shard_seed);
    EXPECT_EQ(restored.probes_sent, first.shards[i].probes_sent);
    EXPECT_EQ(restored.events_fired, first.shards[i].events_fired);
    EXPECT_EQ(restored.sim_seconds, first.shards[i].sim_seconds);
    // Raw vectors are not checkpointed: the restored view is digests-only.
    EXPECT_TRUE(restored.reported_rtt_ms.empty());
    EXPECT_TRUE(restored.du_ms.empty());
  }
  expect_digests_bit_identical(first, second);
}

/// A user sink that fails its shard at shard_finished — after the shard has
/// simulated, before the checkpoint append (which follows every sink's
/// shard_finished) records it — as a broken exporter would.
class FailingSink : public report::ResultSink {
 public:
  explicit FailingSink(std::size_t index) : index_(index) {}
  void probe_completed(const report::ProbeEvent& /*event*/) override {}
  void shard_finished(const report::ShardSummary& /*summary*/) override {
    throw std::runtime_error("sink failed on shard " +
                             std::to_string(index_));
  }

 private:
  std::size_t index_;
};

report::SinkFactory failing_on(std::set<std::size_t> indices) {
  return [indices](const report::ShardInfo& info) {
    std::vector<std::unique_ptr<report::ResultSink>> sinks;
    if (indices.count(info.scenario_index) > 0) {
      sinks.push_back(std::make_unique<FailingSink>(info.scenario_index));
    }
    return sinks;
  };
}

std::string read_bytes(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(CampaignResume, FailingShardsLetTheRestRunAndRethrowTheLowestIndex) {
  // Shards 2 and 5 fail inside the worker loop. At any worker count and in
  // either retention mode the other shards still run and are checkpointed,
  // the lowest failing index is rethrown after the loop, and a rerun
  // without the failing sink heals the sweep bit-identically.
  const CampaignReport uninterrupted = Campaign(resume_campaign()).run(1);
  std::string reference_bytes;
  for (const bool retain : {true, false}) {
    for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
      SCOPED_TRACE("retain_shards=" + std::to_string(retain) +
                   " workers=" + std::to_string(workers));
      TempFile checkpoint("failing_" + std::to_string(retain) + "_" +
                          std::to_string(workers));
      CampaignSpec spec = resume_campaign();
      spec.retain_shards = retain;
      spec.checkpoint_path = checkpoint.path;
      spec.sinks = failing_on({2, 5});
      std::string error;
      try {
        (void)Campaign(spec).run(workers);
      } catch (const std::runtime_error& failure) {
        error = failure.what();
      }
      EXPECT_EQ(error, "sink failed on shard 2");

      report::compact_checkpoint(checkpoint.path);
      std::vector<std::size_t> recorded;
      for (const auto& record : report::load_checkpoint(checkpoint.path)) {
        recorded.push_back(record.summary.info.scenario_index);
      }
      EXPECT_EQ(recorded, (std::vector<std::size_t>{0, 1, 3, 4, 6, 7}));
      const std::string bytes = read_bytes(checkpoint.path);
      if (reference_bytes.empty()) reference_bytes = bytes;
      EXPECT_EQ(bytes, reference_bytes);

      CampaignSpec rerun = resume_campaign();
      rerun.retain_shards = retain;
      rerun.checkpoint_path = checkpoint.path;
      const CampaignReport healed = Campaign(rerun).run(workers);
      EXPECT_EQ(healed.completed_shards(), healed.shard_count());
      expect_digests_bit_identical(healed, uninterrupted);
    }
  }
}

}  // namespace
}  // namespace acute::testbed
