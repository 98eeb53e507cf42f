// The distributed campaign fabric: a coordinator plus any number of worker
// processes over the pipe transport must reproduce a single-process,
// single-thread campaign bit-for-bit — merged digests AND compacted
// checkpoint bytes — for any worker count, lease batch size and kill
// schedule. The fault paths are exercised in-process: a worker killed
// mid-lease (WorkerConfig::max_shards closes the transport exactly like
// SIGKILL), a torn wire frame, a stalled lease expiring past its heartbeat
// deadline, duplicate completions from the re-lease race, a mismatched
// worker rejected at the hello handshake, peers that send frames out of
// handshake order or name leases they do not hold, and shard_done payloads
// that are not exactly one record of the sender's lease. The coordinator's
// buffered FrameReader is driven through a scripted transport with chosen
// recv chunk sizes.
#include <gtest/gtest.h>
#include <poll.h>

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "fabric/coordinator.hpp"
#include "fabric/lease.hpp"
#include "fabric/transport.hpp"
#include "fabric/wire.hpp"
#include "fabric/worker.hpp"
#include "report/checkpoint.hpp"
#include "sim/contracts.hpp"
#include "testbed/campaign.hpp"
#include "testbed/shard_context.hpp"

namespace acute::fabric {
namespace {

using namespace acute::sim::literals;
using phone::PhoneProfile;
using testbed::Campaign;
using testbed::CampaignReport;
using testbed::CampaignSpec;
using testbed::ScenarioGrid;
using testbed::WorkloadSpec;
using tools::ToolKind;

struct TempFile {
  explicit TempFile(const std::string& name) : path("fabric_test_" + name) {
    std::remove(path.c_str());
  }
  ~TempFile() { std::remove(path.c_str()); }
  std::string path;
};

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// The resume/JSONL matrix grid from the frontier tests: 8 mixed shards
/// (2 profiles x 2 loss rates x 2 workloads), cheap enough to run many
/// times per test binary.
CampaignSpec small_spec() {
  ScenarioGrid grid;
  grid.profiles = {PhoneProfile::nexus5(), PhoneProfile::nexus4()};
  grid.emulated_rtts = {12_ms};
  grid.loss_rates = {0.0, 0.2};
  grid.workloads = {WorkloadSpec{ToolKind::icmp_ping},
                    WorkloadSpec{ToolKind::httping}};
  CampaignSpec spec;
  spec.seed = 77;
  spec.grid = grid;
  spec.probes_per_phone = 6;
  spec.probe_interval = 150_ms;
  spec.probe_timeout = 1_s;
  spec.keep_samples = false;
  spec.retain_shards = false;
  return spec;
}

/// `shards` minimal one-phone one-probe scenarios on a lazy
/// rtt x loss x reorder grid — the scaling shape shared with the frontier
/// and bench suites.
CampaignSpec scaled_spec(std::size_t shards) {
  ScenarioGrid grid;
  grid.emulated_rtts.clear();
  for (int i = 0; i < 50; ++i) {
    grid.emulated_rtts.push_back(sim::Duration::millis(2 + i));
  }
  grid.reorder = {false, true};
  const std::size_t loss_steps = (shards + 99) / 100;
  grid.loss_rates.clear();
  for (std::size_t i = 0; i < loss_steps; ++i) {
    grid.loss_rates.push_back(double(i) * (0.3 / double(loss_steps)));
  }
  CampaignSpec spec;
  spec.seed = 2016;
  spec.grid = grid;
  spec.probes_per_phone = 1;
  spec.probe_interval = 50_ms;
  spec.probe_timeout = 400_ms;
  spec.settle = 50_ms;
  spec.keep_samples = false;
  spec.retain_shards = false;
  return spec;
}

/// Bitwise comparison of the merged-report surface: EXPECT_EQ on the digest
/// quantiles (never NEAR) — the fabric merge must reproduce the
/// single-process fold to the last bit.
void expect_reports_bit_identical(const CampaignReport& a,
                                  const CampaignReport& b) {
  const auto da = a.workload_digests();
  const auto db = b.workload_digests();
  ASSERT_EQ(da.size(), db.size());
  for (std::size_t i = 0; i < da.size(); ++i) {
    EXPECT_EQ(da[i].tool, db[i].tool);
    EXPECT_EQ(da[i].probes, db[i].probes);
    EXPECT_EQ(da[i].lost, db[i].lost);
    EXPECT_EQ(da[i].reported_rtt_ms.count(), db[i].reported_rtt_ms.count());
    for (const double q : {0.1, 0.25, 0.5, 0.75, 0.9, 0.99}) {
      EXPECT_EQ(da[i].reported_rtt_ms.quantile(q),
                db[i].reported_rtt_ms.quantile(q));
      EXPECT_EQ(da[i].du_ms.quantile(q), db[i].du_ms.quantile(q));
      EXPECT_EQ(da[i].dk_ms.quantile(q), db[i].dk_ms.quantile(q));
      EXPECT_EQ(da[i].dv_ms.quantile(q), db[i].dv_ms.quantile(q));
      EXPECT_EQ(da[i].dn_ms.quantile(q), db[i].dn_ms.quantile(q));
    }
  }
  EXPECT_EQ(a.total_probes(), b.total_probes());
  EXPECT_EQ(a.total_lost(), b.total_lost());
  EXPECT_EQ(a.total_frames(), b.total_frames());
  EXPECT_EQ(a.total_events(), b.total_events());
  EXPECT_EQ(a.total_sim_seconds(), b.total_sim_seconds());
  EXPECT_EQ(a.completed_shards(), b.completed_shards());
  EXPECT_EQ(a.shard_count(), b.shard_count());
}

struct FabricRun {
  CampaignReport report;
  CoordinatorStats stats;
};

/// Waits until every coordinator-side end holds a readable frame (its
/// worker's hello), so Coordinator::run handles every hello in its first
/// poll pass: without the wait, a worker scheduled late can say hello after
/// the others have finished the whole campaign, and the join/reject counts
/// the tests pin would depend on thread start-up order. Fails the test when
/// a hello does not arrive within the bound.
void await_hellos(const std::vector<std::unique_ptr<Transport>>& ends) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  for (const std::unique_ptr<Transport>& end : ends) {
    pollfd fd{end->fd(), POLLIN, 0};
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (::poll(&fd, 1, static_cast<int>(std::max<std::int64_t>(
                           left.count(), 0))) != 1) {
      ADD_FAILURE() << "a worker's hello did not arrive within 30 s";
      return;
    }
  }
}

/// Coordinator on this thread, one fabric::Worker per config on its own
/// thread, connected by transport_pair — the in-process model of the
/// forked-worker topology (a worker whose max_shards fires returns
/// mid-lease and its transport closes, exactly what SIGKILL looks like).
FabricRun run_fabric(const CampaignSpec& spec,
                     const std::vector<WorkerConfig>& worker_configs,
                     LeaseConfig lease = {}, std::ostream* log = nullptr) {
  std::vector<std::unique_ptr<Transport>> coordinator_ends;
  std::vector<std::thread> threads;
  for (const WorkerConfig& worker_config : worker_configs) {
    auto ends = transport_pair();
    coordinator_ends.push_back(std::move(ends.first));
    threads.emplace_back(
        [end = std::move(ends.second), spec, worker_config]() mutable {
          Worker worker(spec, worker_config);
          (void)worker.run(*end);
        });
  }
  CoordinatorConfig config;
  config.lease = lease;
  config.log = log;
  Coordinator coordinator(spec, config);
  await_hellos(coordinator_ends);
  CampaignReport report = coordinator.run(std::move(coordinator_ends));
  for (std::thread& thread : threads) thread.join();
  return FabricRun{std::move(report), coordinator.stats()};
}

/// A hand-driven peer's handshake: hello for `spec`, expect hello_ok.
void say_hello(Transport& wire, const CampaignSpec& spec) {
  HelloBody hello;
  hello.spec_hash = spec.spec_hash();
  hello.seed = spec.seed;
  hello.shard_count = Campaign(spec).scenario_count();
  write_frame(wire, FrameType::hello, encode_hello(hello));
  Frame frame;
  ASSERT_TRUE(read_frame(wire, frame));
  ASSERT_EQ(frame.type, FrameType::hello_ok);
}

/// A hand-driven peer's lease_request; the grant it gets back.
LeaseGrantBody take_lease(Transport& wire) {
  write_frame(wire, FrameType::lease_request);
  Frame frame;
  EXPECT_TRUE(read_frame(wire, frame));
  EXPECT_EQ(frame.type, FrameType::lease_grant);
  return decode_lease_grant(frame.payload);
}

/// The ckpt2 line a real worker ships for shard `index`.
std::string record_line(const Campaign& campaign, std::size_t index) {
  testbed::ShardContext context;
  return report::render_checkpoint_record(
      campaign.run_shard_record(index, context));
}

/// A scripted peer for FrameReader: everything sent to it becomes its
/// inbox, which recv_some hands back at most `chunk` bytes at a time and
/// then reports end-of-stream. Records how many reads it served and the
/// largest read it was asked for — how far the reader's buffer grew.
class ScriptedTransport final : public Transport {
 public:
  explicit ScriptedTransport(std::size_t chunk) : chunk_(chunk) {}

  void send_all(const void* data, std::size_t size) override {
    inbox_.append(static_cast<const char*>(data), size);
  }
  std::size_t recv_some(void* data, std::size_t size) override {
    ++recvs;
    largest_request = std::max(largest_request, size);
    const std::size_t count = std::min({size, chunk_, inbox_.size() - at_});
    std::copy_n(inbox_.data() + at_, count, static_cast<char*>(data));
    at_ += count;
    return count;
  }
  [[nodiscard]] int fd() const override { return -1; }

  std::size_t recvs = 0;
  std::size_t largest_request = 0;

 private:
  std::size_t chunk_;
  std::string inbox_;
  std::size_t at_ = 0;
};

using FrameList = std::vector<std::pair<FrameType, std::string>>;

/// Drains `reader` to end-of-stream, copying out every frame.
FrameList read_all(FrameReader& reader) {
  FrameList frames;
  FrameView frame;
  while (reader.fill()) {
    while (reader.next(frame)) {
      frames.emplace_back(frame.type, std::string(frame.payload));
    }
  }
  return frames;
}

// ---------------------------------------------------------------- LeaseTable

LeaseConfig fast_lease() {
  LeaseConfig config;
  config.batch = 4;
  config.lease_timeout_ms = 100;
  config.expiry_backoff = 2.0;
  config.max_timeout_ms = 1000;
  return config;
}

TEST(LeaseTable, GrantsLowestContiguousRunCappedAtBatch) {
  LeaseTable table(std::vector<bool>(10, true), fast_lease());
  const auto first = table.grant(0);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->begin, 0u);
  EXPECT_EQ(first->end, 4u);
  EXPECT_EQ(first->deadline_ms, 100u);
  const auto second = table.grant(0);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->begin, 4u);
  EXPECT_EQ(second->end, 8u);
  const auto third = table.grant(0);
  ASSERT_TRUE(third.has_value());
  EXPECT_EQ(third->begin, 8u);
  EXPECT_EQ(third->end, 10u);  // short tail, not padded past the space
  EXPECT_FALSE(table.grant(0).has_value());
  EXPECT_EQ(table.pending_count(), 0u);
  EXPECT_EQ(table.outstanding_leases(), 3u);
  EXPECT_FALSE(table.all_complete());
}

TEST(LeaseTable, NonLeasableIndicesSplitRunsAndNeverLease) {
  // Indices 1 and 4 are restored-from-checkpoint: runs must break around
  // them, and all_complete must not wait for them.
  LeaseTable table({true, false, true, true, false, true}, fast_lease());
  EXPECT_EQ(table.leasable_count(), 4u);
  const auto first = table.grant(0);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->begin, 0u);
  EXPECT_EQ(first->end, 1u);
  const auto second = table.grant(0);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->begin, 2u);
  EXPECT_EQ(second->end, 4u);
  const auto third = table.grant(0);
  ASSERT_TRUE(third.has_value());
  EXPECT_EQ(third->begin, 5u);
  EXPECT_EQ(third->end, 6u);
  for (const std::size_t index : {0u, 2u, 3u, 5u}) {
    EXPECT_TRUE(table.complete(index));
  }
  EXPECT_TRUE(table.all_complete());
}

TEST(LeaseTable, HeartbeatExtendsDeadlineAndExpiryReQueuesExactlyOnce) {
  LeaseTable table(std::vector<bool>(4, true), fast_lease());
  const auto lease = table.grant(0);
  ASSERT_TRUE(lease.has_value());
  EXPECT_FALSE(table.heartbeat(lease->id + 99, 10));  // unknown lease
  EXPECT_TRUE(table.heartbeat(lease->id, 80));        // deadline -> 180

  EXPECT_TRUE(table.expire(100).empty());  // old deadline passed, extended
  const std::vector<Lease> expired = table.expire(180);
  ASSERT_EQ(expired.size(), 1u);
  EXPECT_EQ(expired.front().id, lease->id);
  EXPECT_EQ(table.pending_count(), 4u);
  // Exactly once: a second expiry sweep at the same instant finds nothing,
  // and the indices re-queued above are pending a single time each.
  EXPECT_TRUE(table.expire(180).empty());
  EXPECT_EQ(table.outstanding_leases(), 0u);
  const auto release = table.grant(200);
  ASSERT_TRUE(release.has_value());
  EXPECT_EQ(release->begin, 0u);
  EXPECT_EQ(release->end, 4u);
  // Backoff: one prior expiry doubles the 100ms timeout.
  EXPECT_EQ(release->deadline_ms, 200u + 200u);
  EXPECT_FALSE(table.grant(200).has_value());  // re-queued once, not twice
  EXPECT_FALSE(table.heartbeat(lease->id, 210));  // the expired id is gone
}

TEST(LeaseTable, ExpiryBackoffIsCappedAtMaxTimeout) {
  LeaseTable table(std::vector<bool>(2, true), fast_lease());
  std::uint64_t now = 0;
  for (int round = 0; round < 6; ++round) {
    const auto lease = table.grant(now);
    ASSERT_TRUE(lease.has_value());
    now = lease->deadline_ms;
    ASSERT_EQ(table.expire(now).size(), 1u);
  }
  const auto capped = table.grant(now);
  ASSERT_TRUE(capped.has_value());
  // 100ms * 2^6 would be 6400; the config caps the timeout at 1000.
  EXPECT_EQ(capped->deadline_ms - now, 1000u);
}

TEST(LeaseTable, CompleteIsIdempotentAndRevokeReQueuesTheRest) {
  LeaseTable table(std::vector<bool>(4, true), fast_lease());
  const auto lease = table.grant(0);
  ASSERT_TRUE(lease.has_value());
  EXPECT_TRUE(table.complete(0));
  EXPECT_FALSE(table.complete(0));  // the duplicate-completion rule
  table.revoke(lease->id);
  EXPECT_EQ(table.done_count(), 1u);
  EXPECT_EQ(table.pending_count(), 3u);  // 0 stays done, 1..3 re-queued
  table.revoke(lease->id + 7);           // unknown id: no-op
  const auto release = table.grant(10);
  ASSERT_TRUE(release.has_value());
  EXPECT_EQ(release->begin, 1u);
  EXPECT_EQ(release->end, 4u);
  for (const std::size_t index : {1u, 2u, 3u}) {
    EXPECT_TRUE(table.complete(index));
  }
  table.finish(release->id);
  EXPECT_TRUE(table.all_complete());
  EXPECT_EQ(table.outstanding_leases(), 0u);
}

// ---------------------------------------------------------------------- wire

TEST(Wire, BodiesAndFramesRoundTripOverThePipeTransport) {
  HelloBody hello;
  hello.spec_hash = 0x1234'5678'9abc'def0ull;
  hello.seed = 2016;
  hello.shard_count = 100'000;
  const HelloBody hello2 = decode_hello(encode_hello(hello));
  EXPECT_EQ(hello2.protocol, hello.protocol);
  EXPECT_EQ(hello2.spec_hash, hello.spec_hash);
  EXPECT_EQ(hello2.seed, hello.seed);
  EXPECT_EQ(hello2.shard_count, hello.shard_count);

  const LeaseGrantBody grant2 =
      decode_lease_grant(encode_lease_grant(LeaseGrantBody{42, 16, 32}));
  EXPECT_EQ(grant2.lease_id, 42u);
  EXPECT_EQ(grant2.begin, 16u);
  EXPECT_EQ(grant2.end, 32u);
  EXPECT_EQ(decode_lease_id(encode_lease_id(7)), 7u);

  auto ends = transport_pair();
  write_frame(*ends.first, FrameType::hello, encode_hello(hello));
  write_frame(*ends.first, FrameType::lease_request);
  Frame frame;
  ASSERT_TRUE(read_frame(*ends.second, frame));
  EXPECT_EQ(frame.type, FrameType::hello);
  EXPECT_EQ(frame.payload, encode_hello(hello));
  ASSERT_TRUE(read_frame(*ends.second, frame));
  EXPECT_EQ(frame.type, FrameType::lease_request);
  EXPECT_TRUE(frame.payload.empty());
}

TEST(Wire, ShardDoneFrameCarriesTheCheckpointLineVerbatim) {
  // One serialization for disk and wire: the shard_done payload is exactly
  // the ckpt2 line, so frame -> parse -> re-render is the identity.
  const Campaign campaign(small_spec());
  testbed::ShardContext context;
  const report::ShardCheckpoint record = campaign.run_shard_record(3, context);
  const std::string line = report::render_checkpoint_record(record);

  ShardDoneBody done;
  done.lease_id = 9;
  done.record_line = line;
  const ShardDoneBody decoded = decode_shard_done(encode_shard_done(done));
  EXPECT_EQ(decoded.lease_id, 9u);
  EXPECT_EQ(decoded.record_line, line);

  report::ShardCheckpoint parsed;
  ASSERT_TRUE(report::parse_checkpoint_record(decoded.record_line, parsed));
  EXPECT_EQ(parsed.summary.info.scenario_index, 3u);
  EXPECT_EQ(parsed.summary.info.shard_seed, record.summary.info.shard_seed);
  EXPECT_EQ(parsed.spec_hash, record.spec_hash);
  EXPECT_EQ(report::render_checkpoint_record(parsed), line);
}

TEST(Wire, CleanEofAtFrameBoundaryIsAQuietFalse) {
  auto ends = transport_pair();
  write_frame(*ends.first, FrameType::heartbeat, encode_lease_id(1));
  ends.first.reset();  // peer gone after a complete frame
  Frame frame;
  ASSERT_TRUE(read_frame(*ends.second, frame));
  EXPECT_EQ(frame.type, FrameType::heartbeat);
  EXPECT_FALSE(read_frame(*ends.second, frame));
}

TEST(Wire, TornFramesThrowLoudly) {
  const auto send_raw = [](Transport& transport,
                           const std::vector<unsigned char>& bytes) {
    transport.send_all(bytes.data(), bytes.size());
  };
  Frame frame;
  {
    // EOF inside a frame: header promises 10 bytes, only 2 arrive.
    auto ends = transport_pair();
    send_raw(*ends.first, {10, 0, 0, 0, 6, 1});
    ends.first.reset();
    EXPECT_THROW((void)read_frame(*ends.second, frame),
                 sim::ContractViolation);
  }
  {
    // Zero length: no room for even the type byte.
    auto ends = transport_pair();
    send_raw(*ends.first, {0, 0, 0, 0});
    EXPECT_THROW((void)read_frame(*ends.second, frame),
                 sim::ContractViolation);
  }
  {
    // Oversize length: beyond kMaxFrameBytes is garbage, not data.
    auto ends = transport_pair();
    send_raw(*ends.first, {1, 0, 0, 0xff});
    EXPECT_THROW((void)read_frame(*ends.second, frame),
                 sim::ContractViolation);
  }
  {
    // Unknown frame type.
    auto ends = transport_pair();
    send_raw(*ends.first, {1, 0, 0, 0, 99});
    EXPECT_THROW((void)read_frame(*ends.second, frame),
                 sim::ContractViolation);
  }
}

TEST(FrameReader, DeliversEveryFrameWhateverTheRecvChunking) {
  // A shard_done big enough to straddle any small chunk, between frames
  // with empty and short payloads.
  const FrameList frames = {
      {FrameType::hello, encode_hello(HelloBody{})},
      {FrameType::lease_request, ""},
      {FrameType::heartbeat, encode_lease_id(7)},
      {FrameType::shard_done,
       encode_shard_done(ShardDoneBody{7, std::string(3000, 'x') + "\n"})},
      {FrameType::lease_done, encode_lease_id(7)},
  };
  std::size_t total = 0;
  for (const auto& [type, payload] : frames) {
    total += kFrameHeaderBytes + payload.size();
  }
  // 1-byte reads, reads that cut headers and payloads at odd offsets, and
  // one read that takes everything.
  for (const std::size_t chunk : {std::size_t{1}, std::size_t{2},
                                  std::size_t{7}, std::size_t{4096},
                                  total}) {
    ScriptedTransport wire(chunk);
    for (const auto& [type, payload] : frames) {
      write_frame(wire, type, payload);
    }
    FrameReader reader(wire);
    EXPECT_EQ(read_all(reader), frames) << "chunk " << chunk;
    if (chunk == total) {
      EXPECT_EQ(wire.recvs, 2u);  // every frame in one recv, then EOF
    }
  }
}

TEST(FrameReader, GrowsToHoldAFrameLargerThanOneRead) {
  // 200 KiB is more than one read takes: the reader grows once the header
  // (length and type) has been validated, and the frame arrives intact.
  const FrameList frames = {
      {FrameType::shard_done,
       encode_shard_done(ShardDoneBody{3, std::string(200u << 10, 'y')})},
      {FrameType::lease_done, encode_lease_id(3)},
  };
  ScriptedTransport wire(4096);
  for (const auto& [type, payload] : frames) write_frame(wire, type, payload);
  FrameReader reader(wire);
  EXPECT_EQ(read_all(reader), frames);
}

TEST(FrameReader, EofAtABoundaryIsQuietAndMidFrameIsTorn) {
  {
    ScriptedTransport wire(1);
    write_frame(wire, FrameType::heartbeat, encode_lease_id(1));
    FrameReader reader(wire);
    EXPECT_EQ(read_all(reader),
              (FrameList{{FrameType::heartbeat, encode_lease_id(1)}}));
  }
  // Cut inside the header and inside the payload: both are torn frames.
  for (const std::size_t cut : {std::size_t{3}, std::size_t{9}}) {
    ScriptedTransport sender(64);
    write_frame(sender, FrameType::heartbeat, encode_lease_id(1));
    std::string bytes(64, '\0');
    bytes.resize(sender.recv_some(bytes.data(), bytes.size()));
    ASSERT_EQ(bytes.size(), kFrameHeaderBytes + 8);
    ScriptedTransport wire(2);
    wire.send_all(bytes.data(), cut);
    FrameReader reader(wire);
    EXPECT_THROW((void)read_all(reader), sim::ContractViolation)
        << "cut at " << cut;
  }
}

TEST(FrameReader, BadHeadersThrowBeforeTheBufferGrows) {
  // Each header is refused from its first 4 or 5 bytes: the reader never
  // asks the transport for more than one ordinary read, however large the
  // length field claims the frame is.
  const std::uint32_t too_long = kMaxFrameBytes + 1;
  const std::uint32_t plausible = 1u << 20;
  const std::vector<std::vector<unsigned char>> headers = {
      {0, 0, 0, 0},                                         // zero length
      {0xff, 0xff, 0xff, 0x7f},                             // 2 GiB
      {static_cast<unsigned char>(too_long),
       static_cast<unsigned char>(too_long >> 8),
       static_cast<unsigned char>(too_long >> 16),
       static_cast<unsigned char>(too_long >> 24)},         // just over cap
      {static_cast<unsigned char>(plausible),
       static_cast<unsigned char>(plausible >> 8),
       static_cast<unsigned char>(plausible >> 16),
       static_cast<unsigned char>(plausible >> 24), 99},    // unknown type
  };
  for (const std::size_t chunk : {std::size_t{1}, std::size_t{64}}) {
    for (const auto& header : headers) {
      ScriptedTransport wire(chunk);
      wire.send_all(header.data(), header.size());
      const std::string filler(64, 'z');
      wire.send_all(filler.data(), filler.size());
      FrameReader reader(wire);
      EXPECT_THROW((void)read_all(reader), sim::ContractViolation);
      EXPECT_LE(wire.largest_request, std::size_t{16} << 10);
    }
  }
}

// -------------------------------------------------------------- integration

/// THE acceptance pin: coordinator + 3 workers must equal a single-process
/// single-thread run bit-for-bit, merged digests and compacted checkpoint
/// bytes both.
TEST(Fabric, MatchesSingleProcessRunBitIdenticalIncludingCheckpointBytes) {
  TempFile reference_ckpt("reference");
  CampaignSpec reference_spec = small_spec();
  reference_spec.checkpoint_path = reference_ckpt.path;
  const CampaignReport reference = Campaign(reference_spec).run(1);
  report::compact_checkpoint(reference_ckpt.path);

  TempFile fabric_ckpt("fabric");
  CampaignSpec fabric_spec = small_spec();
  fabric_spec.checkpoint_path = fabric_ckpt.path;
  LeaseConfig lease;
  lease.batch = 2;  // 8 shards over 3 workers: real lease interleaving
  const FabricRun fabric =
      run_fabric(fabric_spec, {WorkerConfig{}, WorkerConfig{}, WorkerConfig{}},
                 lease);

  expect_reports_bit_identical(fabric.report, reference);
  EXPECT_EQ(fabric.stats.workers_joined, 3u);
  EXPECT_EQ(fabric.stats.workers_died, 0u);
  EXPECT_EQ(fabric.stats.shards_merged, reference.shard_count());
  const std::string reference_bytes = read_file(reference_ckpt.path);
  ASSERT_FALSE(reference_bytes.empty());
  EXPECT_EQ(read_file(fabric_ckpt.path), reference_bytes);
}

TEST(Fabric, KilledWorkerMidLeaseIsReLeasedBitIdentical) {
  const CampaignReport reference = Campaign(scaled_spec(200)).run(1);

  // Worker 0 dies after 5 shards — mid-lease (batch 4 means it is 1 shard
  // into its second lease), no lease_done, transport closed: SIGKILL as the
  // coordinator sees it. The survivors absorb the re-leased range.
  LeaseConfig lease;
  lease.batch = 4;
  std::ostringstream log;
  WorkerConfig killed;
  killed.max_shards = 5;
  const FabricRun fabric = run_fabric(
      scaled_spec(200), {killed, WorkerConfig{}, WorkerConfig{}}, lease, &log);

  expect_reports_bit_identical(fabric.report, reference);
  EXPECT_EQ(fabric.stats.workers_joined, 3u);
  EXPECT_EQ(fabric.stats.workers_died, 1u);
  EXPECT_NE(log.str().find("re-leasing"), std::string::npos);
}

TEST(Fabric, RejectsMismatchedWorkersLoudlyWhileTheRestFinish) {
  const CampaignSpec spec = small_spec();
  CampaignSpec wrong_seed = spec;
  wrong_seed.seed = spec.seed + 1;
  CampaignSpec wrong_shape = spec;
  wrong_shape.grid->loss_rates.push_back(0.3);  // different grid, hash moves

  auto good = transport_pair();
  auto bad_seed = transport_pair();
  auto bad_shape = transport_pair();
  std::string seed_error;
  std::string shape_error;
  std::thread bad_seed_thread(
      [end = std::move(bad_seed.second), wrong_seed, &seed_error]() mutable {
        try {
          Worker worker(wrong_seed);
          (void)worker.run(*end);
        } catch (const sim::ContractViolation& violation) {
          seed_error = violation.what();
        }
      });
  std::thread bad_shape_thread(
      [end = std::move(bad_shape.second), wrong_shape,
       &shape_error]() mutable {
        try {
          Worker worker(wrong_shape);
          (void)worker.run(*end);
        } catch (const sim::ContractViolation& violation) {
          shape_error = violation.what();
        }
      });
  std::thread good_thread([end = std::move(good.second), spec]() mutable {
    Worker worker(spec);
    (void)worker.run(*end);
  });

  std::vector<std::unique_ptr<Transport>> ends;
  ends.push_back(std::move(good.first));
  ends.push_back(std::move(bad_seed.first));
  ends.push_back(std::move(bad_shape.first));
  std::ostringstream log;
  CoordinatorConfig config;
  config.log = &log;
  Coordinator coordinator(spec, config);
  await_hellos(ends);
  const CampaignReport report = coordinator.run(std::move(ends));
  bad_seed_thread.join();
  bad_shape_thread.join();
  good_thread.join();

  // Both mismatches die loudly on their own side AND in the coordinator's
  // log; the healthy worker completes the campaign alone, bit-identical.
  EXPECT_NE(seed_error.find("rejected handshake"), std::string::npos);
  EXPECT_NE(seed_error.find("seed mismatch"), std::string::npos);
  EXPECT_NE(shape_error.find("rejected handshake"), std::string::npos);
  EXPECT_NE(shape_error.find("hash mismatch"), std::string::npos);
  EXPECT_EQ(coordinator.stats().workers_rejected, 2u);
  EXPECT_EQ(coordinator.stats().workers_joined, 1u);
  expect_reports_bit_identical(report, Campaign(small_spec()).run(1));
}

TEST(Fabric, LateWorkerFindingTheCampaignOverExitsCleanly) {
  // The coordinator finished the campaign, sent shutdown and closed before
  // this worker said hello. The hello's failed send must find the buffered
  // shutdown and exit cleanly with no shards run — as when shutdown arrives
  // in place of hello_ok — not throw from the worker's thread.
  auto ends = transport_pair();
  write_frame(*ends.first, FrameType::shutdown);
  ends.first.reset();
  Worker worker(small_spec());
  std::size_t shards_run = 1;
  EXPECT_NO_THROW(shards_run = worker.run(*ends.second));
  EXPECT_EQ(shards_run, 0u);
}

TEST(Fabric, DuplicateCompletionsFromTheReLeaseRaceAreTolerated) {
  // Hand-driven worker: obeys the protocol but reports the first shard of
  // each lease twice — exactly what a stalled worker whose lease expired
  // and was re-run elsewhere looks like. The first copy merges, the second
  // is counted and dropped, and the result stays bit-identical.
  const CampaignSpec spec = small_spec();
  const Campaign campaign(spec);
  auto ends = transport_pair();

  std::optional<CampaignReport> merged;
  std::ostringstream log;
  CoordinatorConfig config;
  config.lease.batch = 4;
  config.log = &log;
  Coordinator coordinator(spec, config);
  std::thread coordinator_thread([&coordinator, &merged,
                                  end = std::move(ends.first)]() mutable {
    std::vector<std::unique_ptr<Transport>> workers;
    workers.push_back(std::move(end));
    merged = coordinator.run(std::move(workers));
  });

  Transport& wire = *ends.second;
  say_hello(wire, spec);
  Frame frame;

  // Our writes race the coordinator's post-campaign close exactly as a real
  // worker's do (the campaign completes at OUR final shard_done): on a
  // failed send, a buffered shutdown frame means we are simply done.
  bool serving = true;
  const auto send_checked = [&wire, &serving](FrameType type,
                                              const std::string& payload) {
    try {
      write_frame(wire, type, payload);
    } catch (const sim::ContractViolation&) {
      serving = false;
      Frame pending;
      ASSERT_TRUE(read_frame(wire, pending));
      ASSERT_EQ(pending.type, FrameType::shutdown);
    }
  };

  testbed::ShardContext context;
  while (serving) {
    send_checked(FrameType::lease_request, {});
    if (!serving) break;
    ASSERT_TRUE(read_frame(wire, frame));
    switch (frame.type) {
      case FrameType::shutdown:
        serving = false;
        break;
      case FrameType::lease_grant: {
        const LeaseGrantBody lease = decode_lease_grant(frame.payload);
        for (std::uint64_t index = lease.begin;
             serving && index < lease.end; ++index) {
          send_checked(FrameType::heartbeat, encode_lease_id(lease.lease_id));
          if (!serving) break;
          ShardDoneBody done;
          done.lease_id = lease.lease_id;
          done.record_line = report::render_checkpoint_record(
              campaign.run_shard_record(static_cast<std::size_t>(index),
                                        context));
          send_checked(FrameType::shard_done, encode_shard_done(done));
          if (serving && index == lease.begin) {  // the duplicate
            send_checked(FrameType::shard_done, encode_shard_done(done));
          }
        }
        if (serving) {
          send_checked(FrameType::lease_done, encode_lease_id(lease.lease_id));
        }
        break;
      }
      default:
        FAIL() << "unexpected frame type "
               << static_cast<int>(frame.type);
    }
  }
  coordinator_thread.join();

  ASSERT_TRUE(merged.has_value());
  // 8 shards / batch 4 = 2 leases, one duplicated head each.
  EXPECT_EQ(coordinator.stats().duplicate_shards, 2u);
  EXPECT_EQ(coordinator.stats().shards_merged, 8u);
  EXPECT_NE(log.str().find("duplicate completion"), std::string::npos);
  expect_reports_bit_identical(*merged, Campaign(small_spec()).run(1));
}

TEST(Fabric, FramesBeforeHandshakeBuryThePeer) {
  // A peer that never said hello sends a valid shard_done for shard 0. It
  // has proven nothing (protocol, spec, seed), so the frame is a protocol
  // violation that buries it: its record is never folded, and the one real
  // worker runs every shard of the campaign itself.
  const CampaignSpec spec = small_spec();
  const Campaign campaign(spec);
  auto raw = transport_pair();
  testbed::ShardContext context;
  ShardDoneBody done;
  done.lease_id = 1;
  done.record_line =
      report::render_checkpoint_record(campaign.run_shard_record(0, context));
  write_frame(*raw.second, FrameType::shard_done, encode_shard_done(done));

  auto good = transport_pair();
  std::size_t worker_shards = 0;
  std::thread good_thread(
      [end = std::move(good.second), spec, &worker_shards]() mutable {
        Worker worker(spec);
        worker_shards = worker.run(*end);
      });
  std::vector<std::unique_ptr<Transport>> ends;
  ends.push_back(std::move(raw.first));  // listed first: handled first
  ends.push_back(std::move(good.first));
  std::ostringstream log;
  CoordinatorConfig config;
  config.log = &log;
  Coordinator coordinator(spec, config);
  await_hellos(ends);
  const CampaignReport report = coordinator.run(std::move(ends));
  good_thread.join();

  EXPECT_EQ(coordinator.stats().duplicate_shards, 0u);
  EXPECT_EQ(coordinator.stats().workers_joined, 1u);
  EXPECT_EQ(coordinator.stats().workers_died, 0u);
  EXPECT_EQ(worker_shards, campaign.scenario_count());
  EXPECT_NE(log.str().find("out of handshake order"), std::string::npos);
  expect_reports_bit_identical(report, Campaign(small_spec()).run(1));
}

TEST(Fabric, SecondHelloBuriesThePeer) {
  // A peer that completed the handshake and says hello again is out of
  // protocol too: it gets its hello_ok, then its connection is closed, and
  // the real worker finishes the campaign bit-identically.
  const CampaignSpec spec = small_spec();
  HelloBody hello;
  hello.spec_hash = spec.spec_hash();
  hello.seed = spec.seed;
  hello.shard_count = Campaign(spec).scenario_count();
  auto raw = transport_pair();
  write_frame(*raw.second, FrameType::hello, encode_hello(hello));
  write_frame(*raw.second, FrameType::hello, encode_hello(hello));

  auto good = transport_pair();
  std::thread good_thread([end = std::move(good.second), spec]() mutable {
    Worker worker(spec);
    (void)worker.run(*end);
  });
  std::vector<std::unique_ptr<Transport>> ends;
  ends.push_back(std::move(raw.first));
  ends.push_back(std::move(good.first));
  std::ostringstream log;
  CoordinatorConfig config;
  config.log = &log;
  Coordinator coordinator(spec, config);
  await_hellos(ends);
  const CampaignReport report = coordinator.run(std::move(ends));
  good_thread.join();

  Frame frame;
  ASSERT_TRUE(read_frame(*raw.second, frame));
  EXPECT_EQ(frame.type, FrameType::hello_ok);
  EXPECT_FALSE(read_frame(*raw.second, frame));  // buried: closed
  EXPECT_EQ(coordinator.stats().workers_joined, 2u);
  EXPECT_NE(log.str().find("out of handshake order"), std::string::npos);
  expect_reports_bit_identical(report, Campaign(small_spec()).run(1));
}

TEST(Fabric, ForeignHeartbeatBuriesThePeerAndExtendsNoLease) {
  // The holder takes lease [0, 2) and goes silent; the intruder names the
  // holder's lease in a heartbeat. That is a protocol violation: the
  // intruder is buried (closed without shutdown, its own lease re-queued),
  // and the holder's lease still expires on its own deadline and is re-run
  // by the real worker.
  const CampaignSpec spec = small_spec();
  auto holder = transport_pair();
  auto intruder = transport_pair();
  auto good = transport_pair();
  std::optional<CampaignReport> merged;
  std::ostringstream log;
  CoordinatorConfig config;
  config.lease.batch = 2;
  config.lease.lease_timeout_ms = 100;
  config.log = &log;
  Coordinator coordinator(spec, config);
  std::thread coordinator_thread([&coordinator, &merged,
                                  a = std::move(holder.first),
                                  b = std::move(intruder.first),
                                  c = std::move(good.first)]() mutable {
    std::vector<std::unique_ptr<Transport>> workers;
    workers.push_back(std::move(a));
    workers.push_back(std::move(b));
    workers.push_back(std::move(c));
    merged = coordinator.run(std::move(workers));
  });

  say_hello(*holder.second, spec);
  const LeaseGrantBody held = take_lease(*holder.second);
  say_hello(*intruder.second, spec);
  (void)take_lease(*intruder.second);
  write_frame(*intruder.second, FrameType::heartbeat,
              encode_lease_id(held.lease_id));

  std::thread good_thread([end = std::move(good.second), spec]() mutable {
    Worker worker(spec);
    (void)worker.run(*end);
  });
  Frame frame;
  ASSERT_TRUE(read_frame(*holder.second, frame));
  EXPECT_EQ(frame.type, FrameType::shutdown);
  coordinator_thread.join();
  good_thread.join();

  EXPECT_FALSE(read_frame(*intruder.second, frame));  // buried: closed
  ASSERT_TRUE(merged.has_value());
  EXPECT_EQ(coordinator.stats().workers_died, 1u);
  EXPECT_GE(coordinator.stats().leases_expired, 1u);
  EXPECT_NE(log.str().find("a lease the worker does not hold"),
            std::string::npos);
  EXPECT_NE(log.str().find("lease " + std::to_string(held.lease_id) +
                           " [0, 2) expired"),
            std::string::npos);
  expect_reports_bit_identical(*merged, Campaign(small_spec()).run(1));
}

TEST(Fabric, ForeignLeaseDoneBuriesThePeerAndReQueuesNothing) {
  // The intruder closes the holder's lease with lease_done while the holder
  // still runs it. Honouring that would re-queue [0, 2) and run it twice;
  // instead the intruder is buried, the holder finishes its own range, and
  // the real worker runs exactly the other six shards.
  const CampaignSpec spec = small_spec();
  const Campaign campaign(spec);
  auto holder = transport_pair();
  auto intruder = transport_pair();
  auto good = transport_pair();
  std::optional<CampaignReport> merged;
  std::ostringstream log;
  CoordinatorConfig config;
  config.lease.batch = 2;
  config.log = &log;
  Coordinator coordinator(spec, config);
  std::thread coordinator_thread([&coordinator, &merged,
                                  a = std::move(holder.first),
                                  b = std::move(intruder.first),
                                  c = std::move(good.first)]() mutable {
    std::vector<std::unique_ptr<Transport>> workers;
    workers.push_back(std::move(a));
    workers.push_back(std::move(b));
    workers.push_back(std::move(c));
    merged = coordinator.run(std::move(workers));
  });

  say_hello(*holder.second, spec);
  const LeaseGrantBody held = take_lease(*holder.second);
  say_hello(*intruder.second, spec);
  (void)take_lease(*intruder.second);
  write_frame(*intruder.second, FrameType::lease_done,
              encode_lease_id(held.lease_id));

  std::size_t good_shards = 0;
  std::thread good_thread(
      [end = std::move(good.second), spec, &good_shards]() mutable {
        Worker worker(spec);
        good_shards = worker.run(*end);
      });
  for (std::uint64_t index = held.begin; index < held.end; ++index) {
    write_frame(*holder.second, FrameType::heartbeat,
                encode_lease_id(held.lease_id));
    write_frame(*holder.second, FrameType::shard_done,
                encode_shard_done(ShardDoneBody{
                    held.lease_id, record_line(campaign, index)}));
  }
  Frame frame;
  ASSERT_TRUE(read_frame(*holder.second, frame));
  EXPECT_EQ(frame.type, FrameType::shutdown);
  coordinator_thread.join();
  good_thread.join();

  EXPECT_FALSE(read_frame(*intruder.second, frame));  // buried: closed
  ASSERT_TRUE(merged.has_value());
  EXPECT_EQ(coordinator.stats().duplicate_shards, 0u);
  EXPECT_EQ(coordinator.stats().shards_merged, campaign.scenario_count());
  EXPECT_EQ(good_shards, campaign.scenario_count() - (held.end - held.begin));
  EXPECT_NE(log.str().find("a lease the worker does not hold"),
            std::string::npos);
  expect_reports_bit_identical(*merged, Campaign(small_spec()).run(1));
}

TEST(Fabric, HostileShardDoneBuriesThePeerAndAppendsNothing) {
  // A lease holder whose shard_done is not exactly one record of its own
  // lease is buried before anything reaches the checkpoint or the fold:
  //  - a second record after the first one's "end\n" (shard 7, which this
  //    max_shards=4 run never leases, so a smuggled append would survive
  //    compaction and show in the checkpoint bytes);
  //  - a token after the sentinel;
  //  - a record of a shard outside the lease's range;
  //  - a lease id the peer was never granted;
  //  - a record `>>` would read but spelled off-canon (a tab, two spaces, a
  //    leading space, a "+0" index): compaction keys lines by their
  //    "ckpt2 <index> " bytes, so appending one would make the end-of-run
  //    compaction, and every later resume, throw.
  // The real worker then finishes bit-identical, checkpoint bytes included.
  CampaignSpec capped = small_spec();
  capped.max_shards = 4;
  const Campaign campaign(capped);
  TempFile reference_ckpt("hostile_reference");
  CampaignSpec reference_spec = capped;
  reference_spec.checkpoint_path = reference_ckpt.path;
  const CampaignReport reference = Campaign(reference_spec).run(1);
  report::compact_checkpoint(reference_ckpt.path);

  const std::string first = record_line(campaign, 0);
  std::string trailing = first;
  trailing.insert(trailing.size() - 1, " foo");
  const std::string body = first.substr(std::string("ckpt2 0").size());
  struct Hostile {
    const char* name;
    std::uint64_t lease_shift;  // added to the granted lease id
    std::string line;
    const char* logged;
  };
  const std::vector<Hostile> hostile = {
      {"smuggled second record", 0, first + record_line(campaign, 7),
       "bytes after its end sentinel"},
      {"trailing token", 0, trailing, "torn record"},
      {"shard outside the lease", 0, record_line(campaign, 3),
       "outside its lease's range"},
      {"foreign lease id", 5, first, "a lease the worker does not hold"},
      {"tab after the magic", 0, "ckpt2\t0" + body, "non-canonical"},
      {"two spaces after the magic", 0, "ckpt2  0" + body, "non-canonical"},
      {"leading space", 0, " " + first, "non-canonical"},
      {"signed index", 0, "ckpt2 +0" + body, "non-canonical"},
  };
  for (const Hostile& h : hostile) {
    SCOPED_TRACE(h.name);
    TempFile checkpoint("hostile");
    CampaignSpec spec = capped;
    spec.checkpoint_path = checkpoint.path;
    auto evil = transport_pair();
    auto good = transport_pair();
    std::optional<CampaignReport> merged;
    std::ostringstream log;
    CoordinatorConfig config;
    config.lease.batch = 2;
    config.log = &log;
    Coordinator coordinator(spec, config);
    std::thread coordinator_thread(
        [&coordinator, &merged, a = std::move(evil.first),
         b = std::move(good.first)]() mutable {
          std::vector<std::unique_ptr<Transport>> workers;
          workers.push_back(std::move(a));
          workers.push_back(std::move(b));
          merged = coordinator.run(std::move(workers));
        });
    say_hello(*evil.second, spec);
    const LeaseGrantBody lease = take_lease(*evil.second);
    ASSERT_EQ(lease.begin, 0u);
    write_frame(*evil.second, FrameType::shard_done,
                encode_shard_done(ShardDoneBody{
                    lease.lease_id + h.lease_shift, h.line}));
    std::thread good_thread([end = std::move(good.second), spec]() mutable {
      Worker worker(spec);
      (void)worker.run(*end);
    });
    coordinator_thread.join();
    good_thread.join();

    Frame frame;
    EXPECT_FALSE(read_frame(*evil.second, frame));  // buried: closed
    ASSERT_TRUE(merged.has_value());
    EXPECT_EQ(coordinator.stats().workers_died, 1u);
    EXPECT_EQ(coordinator.stats().duplicate_shards, 0u);
    EXPECT_NE(log.str().find(h.logged), std::string::npos) << log.str();
    expect_reports_bit_identical(*merged, reference);
    EXPECT_EQ(read_file(checkpoint.path), read_file(reference_ckpt.path));
  }
}

TEST(Fabric, CoordinatorResumeFailsLoudlyOnACorruptCompleteRecord) {
  // Compaction copies lines without parsing them, so the loud refusal of a
  // sentinel-complete but corrupt record lives in plan_resume's validation
  // pass — which the coordinator's resume runs before it leases anything.
  TempFile checkpoint("corrupt_resume");
  CampaignSpec spec = small_spec();
  spec.checkpoint_path = checkpoint.path;
  {
    CampaignSpec partial = spec;
    partial.max_shards = 3;
    (void)Campaign(partial).run(1);
  }
  std::string bytes = read_file(checkpoint.path);
  const auto digest = bytes.find(" dgst ", bytes.find('\n'));
  ASSERT_NE(digest, std::string::npos);
  bytes.replace(digest, 6, " dgsx ");  // record 2 of 3, "end" intact
  {
    std::ofstream out(checkpoint.path, std::ios::trunc);
    out << bytes;
  }
  Coordinator coordinator(spec);
  EXPECT_THROW((void)coordinator.run({}), sim::ContractViolation);
  EXPECT_EQ(read_file(checkpoint.path), bytes);  // refused, not rewritten
}

TEST(Fabric, TornFrameBuriesTheWorkerAndItsWorkIsReLeased) {
  // A worker that takes a lease and then sends garbage is compromised; the
  // coordinator must bury it, re-lease its range and finish the campaign
  // through the healthy worker — still bit-identical.
  const CampaignSpec spec = small_spec();
  auto evil = transport_pair();
  auto good = transport_pair();

  std::optional<CampaignReport> merged;
  std::ostringstream log;
  CoordinatorConfig config;
  config.lease.batch = 2;
  config.log = &log;
  Coordinator coordinator(spec, config);
  std::thread coordinator_thread(
      [&coordinator, &merged, evil_end = std::move(evil.first),
       good_end = std::move(good.first)]() mutable {
        std::vector<std::unique_ptr<Transport>> workers;
        workers.push_back(std::move(evil_end));
        workers.push_back(std::move(good_end));
        merged = coordinator.run(std::move(workers));
      });

  // Evil handshakes correctly and takes a lease first...
  Transport& wire = *evil.second;
  say_hello(wire, spec);
  (void)take_lease(wire);
  // ...then emits a frame with an unknown type byte.
  const unsigned char garbage[] = {1, 0, 0, 0, 99};
  wire.send_all(garbage, sizeof garbage);

  // Only now start the healthy worker: the evil one provably held a lease.
  std::thread good_thread([end = std::move(good.second), spec]() mutable {
    Worker worker(spec);
    (void)worker.run(*end);
  });
  coordinator_thread.join();
  good_thread.join();

  ASSERT_TRUE(merged.has_value());
  EXPECT_EQ(coordinator.stats().workers_died, 1u);
  EXPECT_NE(log.str().find("torn"), std::string::npos);
  expect_reports_bit_identical(*merged, Campaign(small_spec()).run(1));
}

TEST(Fabric, HeartbeatExpiryReLeasesAStalledRange) {
  // A worker that takes a lease and then never heartbeats: its deadline
  // passes, the range re-enters pending with backoff, and the parked
  // healthy worker is pushed the re-leased grant. The stalled worker stays
  // connected the whole time — stall, not death.
  const CampaignSpec spec = small_spec();
  auto stalled = transport_pair();
  auto good = transport_pair();

  std::optional<CampaignReport> merged;
  std::ostringstream log;
  CoordinatorConfig config;
  config.lease.batch = 2;
  config.lease.lease_timeout_ms = 50;  // stall detection worth waiting for
  config.log = &log;
  Coordinator coordinator(spec, config);
  std::thread coordinator_thread(
      [&coordinator, &merged, stalled_end = std::move(stalled.first),
       good_end = std::move(good.first)]() mutable {
        std::vector<std::unique_ptr<Transport>> workers;
        workers.push_back(std::move(stalled_end));
        workers.push_back(std::move(good_end));
        merged = coordinator.run(std::move(workers));
      });

  // The stalling worker joins and takes a lease before the healthy worker
  // exists, so the stall provably covers real work...
  Transport& wire = *stalled.second;
  say_hello(wire, spec);
  (void)take_lease(wire);

  // ...then goes silent until shutdown.
  std::thread good_thread([end = std::move(good.second), spec]() mutable {
    Worker worker(spec);
    (void)worker.run(*end);
  });
  Frame frame;
  ASSERT_TRUE(read_frame(wire, frame));
  EXPECT_EQ(frame.type, FrameType::shutdown);
  coordinator_thread.join();
  good_thread.join();

  ASSERT_TRUE(merged.has_value());
  EXPECT_GE(coordinator.stats().leases_expired, 1u);
  EXPECT_EQ(coordinator.stats().workers_died, 0u);
  EXPECT_NE(log.str().find("expired without heartbeat"), std::string::npos);
  expect_reports_bit_identical(*merged, Campaign(small_spec()).run(1));
}

TEST(Fabric, CoordinatorResumesFromItsCheckpoint) {
  const CampaignReport reference = Campaign(small_spec()).run(1);
  TempFile reference_ckpt("resume_reference");
  {
    CampaignSpec full = small_spec();
    full.checkpoint_path = reference_ckpt.path;
    (void)Campaign(full).run(1);
    report::compact_checkpoint(reference_ckpt.path);
  }

  // A single-process run killed after 3 shards leaves a checkpoint; a
  // fresh coordinator restores it and leases only the remaining 5 — the
  // merged report and the final checkpoint bytes match an uninterrupted
  // run exactly.
  TempFile checkpoint("resume");
  {
    CampaignSpec partial = small_spec();
    partial.checkpoint_path = checkpoint.path;
    partial.max_shards = 3;
    (void)Campaign(partial).run(1);
  }
  CampaignSpec resumed = small_spec();
  resumed.checkpoint_path = checkpoint.path;
  LeaseConfig lease;
  lease.batch = 2;
  std::ostringstream log;
  const FabricRun fabric =
      run_fabric(resumed, {WorkerConfig{}, WorkerConfig{}}, lease, &log);

  EXPECT_NE(log.str().find("restored 3 shards"), std::string::npos);
  EXPECT_EQ(fabric.stats.shards_merged, 5u);
  EXPECT_EQ(fabric.report.completed_shards(), fabric.report.shard_count());
  expect_reports_bit_identical(fabric.report, reference);
  EXPECT_EQ(read_file(checkpoint.path), read_file(reference_ckpt.path));
}

}  // namespace
}  // namespace acute::fabric
