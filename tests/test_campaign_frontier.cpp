// The merge frontier (CampaignSpec::retain_shards=false): campaign-level
// folding must be bit-identical to the legacy buffered merge for any worker
// count and across kill/resume — including a non-contiguous restored set —
// while actually releasing each shard's digest memory as it folds. The
// memory claim is pinned by a live-byte-counting global allocator (this
// binary replaces operator new, which is safe because every test file
// links into its own binary): the frontier's peak live heap must stay far
// below the buffered model's O(shards) digest retention. The MergeFrontier
// unit tests drive the combining fold directly from many threads with
// synthetic shard records: bit-identity against a one-thread ascending fold,
// nothing stranded once producers return, back-pressure, and a throwing
// fold step.
#include <gtest/gtest.h>

#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <future>
#include <new>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "report/jsonl_sink.hpp"
#include "sim/contracts.hpp"
#include "testbed/campaign.hpp"
#include "testbed/merge_frontier.hpp"

namespace {
// Atomic live/peak byte tracking: campaign workers allocate concurrently.
// malloc_usable_size gives the true block size for both malloc and
// aligned_alloc on glibc, so frees can be accounted without a size map.
std::atomic<std::size_t> g_live_bytes{0};
std::atomic<std::size_t> g_peak_bytes{0};

void track_alloc(void* p) {
  const std::size_t live =
      g_live_bytes.fetch_add(malloc_usable_size(p),
                             std::memory_order_relaxed) +
      malloc_usable_size(p);
  std::size_t peak = g_peak_bytes.load(std::memory_order_relaxed);
  while (live > peak &&
         !g_peak_bytes.compare_exchange_weak(peak, live,
                                             std::memory_order_relaxed)) {
  }
}

void track_free(void* p) {
  if (p == nullptr) return;
  g_live_bytes.fetch_sub(malloc_usable_size(p), std::memory_order_relaxed);
}

/// Resets the peak watermark to the current live total and returns the
/// previous peak (call before a measured region).
void reset_peak() {
  g_peak_bytes.store(g_live_bytes.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
}
}  // namespace

void* operator new(std::size_t size) {
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  track_alloc(p);
  return p;
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  const std::size_t al = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + al - 1) / al * al;
  void* p = std::aligned_alloc(al, rounded == 0 ? al : rounded);
  if (p == nullptr) throw std::bad_alloc();
  track_alloc(p);
  return p;
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
// Nothrow variants too: libstdc++ internals (stable_sort's temporary
// buffer) allocate with new(nothrow) but free through plain delete — an
// incomplete replacement pairs the runtime's allocator with our free,
// which ASan rejects as an alloc-dealloc mismatch.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p != nullptr) track_alloc(p);
  return p;
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return ::operator new(size, std::nothrow);
}
void operator delete(void* p, const std::nothrow_t&) noexcept {
  track_free(p);
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  track_free(p);
  std::free(p);
}
void operator delete(void* p) noexcept { track_free(p); std::free(p); }
void operator delete(void* p, std::size_t) noexcept {
  track_free(p);
  std::free(p);
}
void operator delete[](void* p) noexcept { track_free(p); std::free(p); }
void operator delete[](void* p, std::size_t) noexcept {
  track_free(p);
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept {
  track_free(p);
  std::free(p);
}
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  track_free(p);
  std::free(p);
}
void operator delete[](void* p, std::align_val_t) noexcept {
  track_free(p);
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  track_free(p);
  std::free(p);
}

namespace acute::testbed {
namespace {

using namespace acute::sim::literals;
using phone::PhoneProfile;
using tools::ToolKind;

struct TempFile {
  explicit TempFile(const std::string& name) : path("frontier_test_" + name) {
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

/// The bench/test scaling shape: `shards` minimal one-phone one-probe
/// scenarios on a lazy rtt x loss x reorder grid (same axes as the
/// 10^4-shard determinism pin in test_campaign_lazy).
CampaignSpec scaled_spec(std::size_t shards, bool retain_shards) {
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
  spec.retain_shards = retain_shards;
  return spec;
}

/// A small mixed grid cheap enough for resume/JSONL matrices (8 shards).
CampaignSpec small_spec(bool retain_shards) {
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
  spec.retain_shards = retain_shards;
  return spec;
}

/// Bitwise comparison of the merged-report surface: digest quantiles are
/// EXPECT_EQ (not NEAR) on purpose — the frontier fold must reproduce the
/// buffered merge to the last bit.
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

TEST(FrontierCampaign, RequiresStreamingDigestMode) {
  CampaignSpec spec = small_spec(/*retain_shards=*/false);
  spec.keep_samples = true;  // raw sample vectors cannot be folded away
  EXPECT_THROW(Campaign{spec}, sim::ContractViolation);
}

TEST(FrontierCampaign, FoldMatchesBufferedMergeOnSmallGrid) {
  const CampaignReport buffered =
      Campaign(small_spec(/*retain_shards=*/true)).run(2);
  const CampaignReport folded =
      Campaign(small_spec(/*retain_shards=*/false)).run(2);
  EXPECT_FALSE(buffered.shards.empty());
  EXPECT_TRUE(folded.shards.empty());  // consumed by the fold
  expect_reports_bit_identical(folded, buffered);
}

/// The tentpole acceptance pin: 10^4 shards, frontier fold vs buffered
/// merge, 1 AND 8 workers — all four bit-identical.
TEST(FrontierCampaign, TenThousandShardsBitIdenticalToBufferedMerge) {
  Campaign sizing(scaled_spec(10000, /*retain_shards=*/true));
  ASSERT_EQ(sizing.scenario_count(), 10000u);
  const CampaignReport buffered = sizing.run(1);
  EXPECT_GT(buffered.total_lost(), 0u);  // the loss axis actually bites
  const CampaignReport frontier_serial =
      Campaign(scaled_spec(10000, /*retain_shards=*/false)).run(1);
  expect_reports_bit_identical(frontier_serial, buffered);
  const CampaignReport frontier_pool =
      Campaign(scaled_spec(10000, /*retain_shards=*/false)).run(8);
  expect_reports_bit_identical(frontier_pool, buffered);
}

TEST(FrontierCampaign, KillResumeMidFrontierBitIdentical) {
  const CampaignReport uninterrupted =
      Campaign(small_spec(/*retain_shards=*/true)).run(1);

  // Kill after 3 shards, tick 2 more, then finish — every resume goes
  // through the streaming validate/compact/feed path.
  TempFile checkpoint("kill_resume");
  for (const std::size_t cap : {std::size_t{3}, std::size_t{2}}) {
    CampaignSpec tick = small_spec(/*retain_shards=*/false);
    tick.checkpoint_path = checkpoint.path;
    tick.max_shards = cap;
    (void)Campaign(tick).run(2);
  }
  CampaignSpec final_spec = small_spec(/*retain_shards=*/false);
  final_spec.checkpoint_path = checkpoint.path;
  const CampaignReport resumed = Campaign(final_spec).run(2);
  EXPECT_EQ(resumed.completed_shards(), resumed.shard_count());
  expect_reports_bit_identical(resumed, uninterrupted);
}

TEST(FrontierCampaign, ResumesNonContiguousRestoredSet) {
  const CampaignReport uninterrupted =
      Campaign(small_spec(/*retain_shards=*/true)).run(1);

  // Complete the whole campaign, then punch holes in the checkpoint
  // (drop every third record): the restored set interleaves with freshly
  // re-run shards, which is exactly the ordering the frontier's
  // restored/fresh slot walk must get right.
  TempFile checkpoint("holes");
  CampaignSpec full = small_spec(/*retain_shards=*/false);
  full.checkpoint_path = checkpoint.path;
  (void)Campaign(full).run(2);
  std::vector<std::string> kept;
  {
    std::ifstream in(checkpoint.path);
    std::string line;
    while (std::getline(in, line)) {
      std::istringstream tokens(line);
      std::string magic;
      std::size_t index = 0;
      tokens >> magic >> index;
      if (index % 3 != 1) kept.push_back(line);
    }
  }
  ASSERT_FALSE(kept.empty());
  {
    std::ofstream out(checkpoint.path, std::ios::trunc);
    for (const std::string& line : kept) out << line << '\n';
  }
  CampaignSpec resume = small_spec(/*retain_shards=*/false);
  resume.checkpoint_path = checkpoint.path;
  const CampaignReport resumed = Campaign(resume).run(2);
  EXPECT_EQ(resumed.completed_shards(), resumed.shard_count());
  expect_reports_bit_identical(resumed, uninterrupted);
}

TEST(FrontierCampaign, RejectsCheckpointFromDifferentCampaign) {
  TempFile checkpoint("seed_mismatch");
  CampaignSpec first = small_spec(/*retain_shards=*/false);
  first.checkpoint_path = checkpoint.path;
  first.max_shards = 2;
  (void)Campaign(first).run(1);

  CampaignSpec other = small_spec(/*retain_shards=*/false);
  other.seed = first.seed + 1;
  other.checkpoint_path = checkpoint.path;
  EXPECT_THROW((void)Campaign(other).run(1), sim::ContractViolation);
}

TEST(FrontierCampaign, JsonlExportByteIdenticalToBufferedMode) {
  // The frontier changes when shard *results* are folded, not when sink
  // events are delivered: the JSONL reorder window must produce the same
  // bytes in both retention modes and for any worker count.
  auto run_with = [](bool retain_shards, std::size_t workers,
                     const std::string& path) {
    CampaignSpec spec = small_spec(retain_shards);
    auto writer = std::make_shared<report::JsonlWriter>(path);
    spec.sinks = report::jsonl_sink_factory(writer);
    (void)Campaign(spec).run(workers);
  };
  TempFile buffered("jsonl_buffered");
  TempFile folded("jsonl_frontier");
  run_with(/*retain_shards=*/true, 1, buffered.path);
  run_with(/*retain_shards=*/false, 8, folded.path);
  const std::string buffered_bytes = read_file(buffered.path);
  ASSERT_FALSE(buffered_bytes.empty());
  EXPECT_EQ(buffered_bytes, read_file(folded.path));
}

TEST(FrontierCampaign, CompletedShardsReleaseDigestMemory) {
  // The buffered model retains every shard's digests until the report
  // dies; the frontier frees each shard's digests as it folds, so its peak
  // live heap over the same campaign must stay a small fraction of the
  // buffered model's. Measured with the binary-wide counting allocator,
  // peak reset before each run.
  constexpr std::size_t kShards = 2000;
  reset_peak();
  const std::size_t before = g_live_bytes.load(std::memory_order_relaxed);
  std::size_t shard_digest_bytes = 0;
  {
    const CampaignReport buffered =
        Campaign(scaled_spec(kShards, /*retain_shards=*/true)).run(1);
    ASSERT_EQ(buffered.completed_shards(), kShards);
    // What the retained shards' digests hold, measured as the live heap of
    // a copy of each shard's digest vector.
    for (const ShardResult& shard : buffered.shards) {
      const std::size_t live = g_live_bytes.load(std::memory_order_relaxed);
      const std::vector<report::WorkloadDigest> copy = shard.digests;
      shard_digest_bytes +=
          g_live_bytes.load(std::memory_order_relaxed) - live;
    }
  }
  const std::size_t buffered_peak =
      g_peak_bytes.load(std::memory_order_relaxed) - before;

  reset_peak();
  const std::size_t before_frontier =
      g_live_bytes.load(std::memory_order_relaxed);
  {
    const CampaignReport folded =
        Campaign(scaled_spec(kShards, /*retain_shards=*/false)).run(1);
    ASSERT_EQ(folded.completed_shards(), kShards);
  }
  const std::size_t frontier_peak =
      g_peak_bytes.load(std::memory_order_relaxed) - before_frontier;

  // The buffered run must actually exhibit the O(shards) retention the
  // frontier removes: its peak holds every shard's digests at once. The
  // frontier must stay far below it — 1/4 is a loose bound; in practice
  // O(workers) shards are live at once instead of all 2000.
  ASSERT_GT(shard_digest_bytes, kShards * sizeof(report::WorkloadDigest));
  EXPECT_GT(buffered_peak, shard_digest_bytes);
  EXPECT_LT(frontier_peak, buffered_peak / 4);
}

// ---------------------------------------------------------------------------
// MergeFrontier driven directly, with synthetic shard records.

using Slot = MergeFrontier::Slot;

/// A completed shard's record whose counters and digests are a pure
/// function of `index`. Each digest gets several samples and the sim
/// seconds vary in magnitude, so a fold in any other order changes the
/// bits.
report::ShardCheckpoint synthetic_shard(std::size_t index) {
  report::ShardCheckpoint shard;
  report::ShardSummary& summary = shard.summary;
  summary.info.scenario_index = index;
  summary.probes_sent = 3 + index % 5;
  summary.probes_lost = index % 3;
  summary.frames_on_air = 11 * index + 2;
  summary.events_fired = 7 * index + 1;
  summary.sim_seconds = 0.1 * double(index % 13) + 1e-7 * double(index);
  const ToolKind kinds[] = {ToolKind::icmp_ping, ToolKind::httping};
  for (std::size_t k = 0; k < 2; ++k) {
    if (k == 1 && index % 2 == 0) break;  // odd shards run both kinds
    report::WorkloadDigest digest;
    digest.tool = kinds[k];
    digest.probes = summary.probes_sent;
    digest.lost = summary.probes_lost;
    for (std::size_t j = 0; j < 4 + index % 3; ++j) {
      const double x =
          1 + 50 * std::fmod(0.618033988749895 * double(index * 7 + j), 1.0);
      digest.reported_rtt_ms.add(x);
      digest.dn_ms.add(x / 3);
    }
    shard.digests.push_back(std::move(digest));
  }
  return shard;
}

void expect_same_digest(const stats::MergingDigest& a,
                        const stats::MergingDigest& b) {
  const stats::DigestSnapshot sa = a.snapshot();
  const stats::DigestSnapshot sb = b.snapshot();
  EXPECT_EQ(sa.count, sb.count);
  EXPECT_EQ(sa.sum, sb.sum);
  EXPECT_EQ(sa.sum_sq, sb.sum_sq);
  EXPECT_EQ(sa.min, sb.min);
  EXPECT_EQ(sa.max, sb.max);
  EXPECT_EQ(sa.centroids, sb.centroids);
}

void expect_same_totals(const CampaignReport::FoldedTotals& a,
                        const CampaignReport::FoldedTotals& b) {
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.probes, b.probes);
  EXPECT_EQ(a.lost, b.lost);
  EXPECT_EQ(a.frames, b.frames);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.sim_seconds, b.sim_seconds);
  const std::vector<report::WorkloadDigest> da = a.workloads.snapshot();
  const std::vector<report::WorkloadDigest> db = b.workloads.snapshot();
  ASSERT_EQ(da.size(), db.size());
  for (std::size_t i = 0; i < da.size(); ++i) {
    EXPECT_EQ(da[i].tool, db[i].tool);
    EXPECT_EQ(da[i].probes, db[i].probes);
    EXPECT_EQ(da[i].lost, db[i].lost);
    expect_same_digest(da[i].reported_rtt_ms, db[i].reported_rtt_ms);
    expect_same_digest(da[i].dn_ms, db[i].dn_ms);
  }
}

/// Restored, skipped and fresh slots interleaved (restored at both ends),
/// plus the fresh indices a producer abandons instead of submitting.
struct SlotPlan {
  std::vector<Slot> slots;
  std::vector<std::size_t> fresh;
  std::size_t restored = 0;
  std::size_t submitted = 0;
  [[nodiscard]] bool abandons(std::size_t index) const {
    return index % 11 == 5;
  }
};

SlotPlan interleaved_slots(std::size_t count) {
  SlotPlan plan;
  for (std::size_t i = 0; i < count; ++i) {
    const bool restored = i % 7 == 0 || i + 1 == count;
    plan.slots.push_back(restored      ? Slot::restored
                         : i % 7 == 3 ? Slot::skipped
                                      : Slot::fresh);
    if (restored) ++plan.restored;
    if (plan.slots.back() != Slot::fresh) continue;
    plan.fresh.push_back(i);
    if (!plan.abandons(i)) ++plan.submitted;
  }
  return plan;
}

/// The reference: one thread, one ascending loop over the folded shards,
/// copy-merging digests like Campaign's retained-mode fold.
CampaignReport::FoldedTotals ascending_fold(const SlotPlan& plan) {
  CampaignReport::FoldedTotals totals;
  for (std::size_t i = 0; i < plan.slots.size(); ++i) {
    if (plan.slots[i] == Slot::skipped) continue;
    if (plan.slots[i] == Slot::fresh && plan.abandons(i)) continue;
    const report::ShardCheckpoint shard = synthetic_shard(i);
    ++totals.completed;
    totals.probes += shard.summary.probes_sent;
    totals.lost += shard.summary.probes_lost;
    totals.frames += shard.summary.frames_on_air;
    totals.events += shard.summary.events_fired;
    totals.sim_seconds += shard.summary.sim_seconds;
    for (const report::WorkloadDigest& digest : shard.digests) {
      totals.workloads.slot(digest.tool).merge(digest);
    }
  }
  return totals;
}

/// Runs `producers` threads that claim `order` front to back and submit
/// (or abandon) each index; returns once every producer has returned.
void run_producers(MergeFrontier& frontier, const SlotPlan& plan,
                   const std::vector<std::size_t>& order,
                   std::size_t producers) {
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < producers; ++t) {
    pool.emplace_back([&] {
      for (std::size_t k = next.fetch_add(1); k < order.size();
           k = next.fetch_add(1)) {
        const std::size_t index = order[k];
        if (plan.abandons(index)) {
          frontier.abandon(index);
        } else {
          frontier.submit(index, synthetic_shard(index));
        }
      }
    });
  }
  for (std::thread& thread : pool) thread.join();
}

TEST(MergeFrontierUnit, ShuffledConcurrentFoldMatchesAscendingFold) {
  const SlotPlan plan = interleaved_slots(3001);
  std::vector<std::size_t> order = plan.fresh;
  std::shuffle(order.begin(), order.end(), std::mt19937(2016));

  CampaignReport::FoldedTotals totals;
  MergeFrontier frontier(plan.slots, &synthetic_shard, totals);
  run_producers(frontier, plan, order, /*producers=*/8);
  // Every producer has returned, so every parked shard has been folded —
  // by the token holder or by its own submitter — restored tail included,
  // before finalize() runs.
  EXPECT_EQ(totals.completed, plan.submitted + plan.restored);
  frontier.finalize();
  expect_same_totals(totals, ascending_fold(plan));
}

TEST(MergeFrontierUnit, NothingStrandedOnceProducersReturn) {
  const SlotPlan plan = interleaved_slots(4001);
  for (int round = 0; round < 5; ++round) {
    CampaignReport::FoldedTotals totals;
    MergeFrontier frontier(plan.slots, &synthetic_shard, totals);
    run_producers(frontier, plan, plan.fresh, /*producers=*/8);
    ASSERT_EQ(totals.completed, plan.submitted + plan.restored)
        << "round " << round;
    frontier.finalize();
  }
}

TEST(MergeFrontierUnit, BackPressureBoundsHeldShardsBehindAHeavyFold) {
  // Index 1 is restored through a feed that blocks until released: the
  // producer that folds index 0 holds the fold token for as long as the
  // test likes. Every other producer parks until the held map reaches the
  // bound and then waits with one shard parked, so the map stops at
  // bound + producers - 1 however many shards remain.
  constexpr std::size_t kProducers = 8;
  const std::size_t bound = MergeFrontier::held_bound();
  const std::size_t held_limit = bound + kProducers - 1;
  const std::size_t fresh = held_limit + 4 * kProducers;
  std::vector<Slot> slots(2 + fresh, Slot::fresh);
  slots[1] = Slot::restored;
  std::promise<void> entered;
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  CampaignReport::FoldedTotals totals;
  MergeFrontier frontier(
      slots,
      [&entered, released](std::size_t index) {
        entered.set_value();
        released.wait();
        return synthetic_shard(index);
      },
      totals);

  // The producers start only once the folder is stuck in the feed with
  // the token held.
  std::thread folder([&] { frontier.submit(0, synthetic_shard(0)); });
  entered.get_future().wait();
  std::atomic<std::size_t> next{2};
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < kProducers; ++t) {
    pool.emplace_back([&] {
      for (std::size_t index = next.fetch_add(1); index < slots.size();
           index = next.fetch_add(1)) {
        frontier.submit(index, synthetic_shard(index));
      }
    });
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (frontier.high_water() < held_limit &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Give unpaced producers time to overshoot, then check they did not.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(frontier.high_water(), held_limit);

  release.set_value();
  folder.join();
  for (std::thread& thread : pool) thread.join();
  frontier.finalize();
  EXPECT_EQ(totals.completed, slots.size());
  EXPECT_LE(frontier.high_water(), held_limit);
}

report::ShardCheckpoint exhausted_feed(std::size_t) {
  throw sim::ContractViolation(
      "campaign resume: compacted checkpoint exhausted before all restored "
      "shards were folded");
}

TEST(MergeFrontierUnit, ThrowingFoldStepSurfacesOnceAndFailsFinalize) {
  const std::vector<Slot> slots = {Slot::fresh, Slot::restored, Slot::fresh,
                                   Slot::fresh};
  {
    // submit() runs the fold into the restored slot: the feed's exception
    // surfaces there, the token is released (nothing below hangs), later
    // calls drop their input without rethrowing, and finalize() fails.
    CampaignReport::FoldedTotals totals;
    MergeFrontier frontier(slots, &exhausted_feed, totals);
    EXPECT_THROW(frontier.submit(0, synthetic_shard(0)),
                 sim::ContractViolation);
    EXPECT_NO_THROW(frontier.submit(3, synthetic_shard(3)));
    EXPECT_NO_THROW(frontier.abandon(2));
    EXPECT_THROW(frontier.finalize(), sim::ContractViolation);
    EXPECT_THROW(frontier.finalize(), sim::ContractViolation);
  }
  {
    // Same through abandon(): releasing a failed shard's slot runs the fold
    // too, and is where the failure surfaces.
    CampaignReport::FoldedTotals totals;
    MergeFrontier frontier(slots, &exhausted_feed, totals);
    EXPECT_THROW(frontier.abandon(0), sim::ContractViolation);
    EXPECT_NO_THROW(frontier.submit(2, synthetic_shard(2)));
    EXPECT_THROW(frontier.finalize(), sim::ContractViolation);
  }
}

TEST(MergeFrontierUnit, ThrowingFoldStepUnderConcurrentProducers) {
  // Campaign::run's retire step: each producer records a throwing submit
  // as a failure and keeps going. Exactly one call sees the fold fail, no
  // producer hangs on the token, and finalize() reports the failure.
  std::vector<Slot> slots(400, Slot::fresh);
  slots[123] = Slot::restored;
  CampaignReport::FoldedTotals totals;
  MergeFrontier frontier(slots, &exhausted_feed, totals);
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> failures{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < 8; ++t) {
    pool.emplace_back([&] {
      for (std::size_t index = next.fetch_add(1); index < slots.size();
           index = next.fetch_add(1)) {
        if (slots[index] != Slot::fresh) continue;
        try {
          frontier.submit(index, synthetic_shard(index));
        } catch (const sim::ContractViolation&) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& thread : pool) thread.join();
  EXPECT_EQ(failures.load(), 1u);
  EXPECT_EQ(totals.completed, 123u);
  EXPECT_THROW(frontier.finalize(), sim::ContractViolation);
}

}  // namespace
}  // namespace acute::testbed
