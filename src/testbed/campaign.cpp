#include "testbed/campaign.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <limits>
#include <memory>
#include <optional>
#include <thread>
#include <utility>

#include "core/layer_sample.hpp"
#include "passive/per_app.hpp"
#include "passive/pping.hpp"
#include "report/sample_buffer_sink.hpp"
#include "sim/contracts.hpp"
#include "sim/random.hpp"
#include "stats/digest_io.hpp"
#include "testbed/merge_frontier.hpp"
#include "tools/factory.hpp"

namespace acute::testbed {

using sim::Duration;
using sim::expects;

namespace {

/// FNV-1a over the fields that determine a shard's outcome: the campaign
/// probe schedule plus the scenario's shape. Stamped into every checkpoint
/// record so a resume with an edited spec (different probe counts, grid
/// axes, phone mix, ...) rejects the stale shards instead of silently
/// merging them — the seed check alone cannot see spec edits.
class SpecHash {
 public:
  SpecHash& mix(std::uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ = (hash_ ^ ((value >> (8 * byte)) & 0xff)) * 0x100000001b3ull;
    }
    return *this;
  }
  SpecHash& mix(const Duration& duration) {
    return mix(static_cast<std::uint64_t>(duration.count_nanos()));
  }
  SpecHash& mix(double value) { return mix(stats::double_bits(value)); }
  SpecHash& mix(const std::string& text) {
    for (const char c : text) {
      hash_ = (hash_ ^ static_cast<unsigned char>(c)) * 0x100000001b3ull;
    }
    return mix(text.size());
  }
  SpecHash& mix(const phone::LatencyDist& dist) {
    return mix(dist.mu_ms).mix(dist.sigma_ms).mix(dist.lo_ms).mix(dist.hi_ms);
  }
  /// Every behavior-determining profile field — a profile edited under an
  /// unchanged name must still change the hash.
  SpecHash& mix(const phone::PhoneProfile& profile) {
    mix(profile.name)
        .mix(static_cast<std::uint64_t>(profile.vendor))
        .mix(profile.cpu_scale)
        .mix(profile.bus_watchdog)
        .mix(static_cast<std::uint64_t>(profile.bus_idletime_ticks))
        .mix(profile.bus_wake_tx)
        .mix(profile.bus_wake_rx)
        .mix(profile.bus_clk_request)
        .mix(profile.bus_clk_idle_threshold)
        .mix(profile.bus_transfer_mbps)
        .mix(profile.system_traffic_mean_interval)
        .mix(std::uint64_t{profile.system_traffic_bytes});
    mix(profile.driver_tx_base)
        .mix(profile.driver_rx_base)
        .mix(profile.driver_netif)
        .mix(profile.irq_latency)
        .mix(profile.kernel_tx)
        .mix(profile.kernel_rx);
    return mix(profile.native_send)
        .mix(profile.native_recv)
        .mix(profile.dvm_send)
        .mix(profile.dvm_recv)
        .mix(profile.dvm_gc_prob)
        .mix(profile.dvm_gc_pause)
        .mix(profile.psm_timeout)
        .mix(profile.psm_tick)
        .mix(static_cast<std::uint64_t>(profile.associated_listen_interval))
        .mix(profile.beacon_miss_probability)
        .mix(std::uint64_t{profile.ping_integer_ms_above_100})
        .mix(profile.ping_resolution_ms);
  }
  SpecHash& mix(const cellular::RrcConfig& rrc) {
    return mix(rrc.idle_to_dch)
        .mix(rrc.fach_to_dch)
        .mix(rrc.promotion_jitter)
        .mix(rrc.dch_inactivity)
        .mix(rrc.fach_inactivity)
        .mix(rrc.dch_latency)
        .mix(rrc.fach_latency)
        .mix(std::uint64_t{rrc.fach_size_threshold});
  }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;  // FNV offset basis
};

std::uint64_t shard_spec_hash(const CampaignSpec& spec,
                              const ScenarioSpec& scenario) {
  SpecHash hash;
  hash.mix(static_cast<std::uint64_t>(spec.probes_per_phone))
      .mix(spec.probe_interval)
      .mix(spec.probe_timeout)
      .mix(spec.settle);
  hash.mix(scenario.phones.size());
  for (const PhoneSpec& phone : scenario.phones) {
    hash.mix(phone.profile)
        .mix(phone.label)  // selects the phone's rng streams
        .mix(static_cast<std::uint64_t>(phone.radio))
        .mix(phone.rrc)
        .mix(static_cast<std::uint64_t>(phone.workload.tool))
        .mix(static_cast<std::uint64_t>(phone.workload.probe_count))
        .mix(phone.workload.interval)
        .mix(phone.workload.timeout)
        .mix(static_cast<std::uint64_t>(phone.workload.passive));
  }
  hash.mix(scenario.emulated_rtt)
      .mix(scenario.netem_jitter)
      .mix(std::uint64_t{scenario.congested_phy})
      .mix(scenario.cross_connections)
      .mix(scenario.cross_flow_mbps)
      .mix(std::uint64_t{scenario.send_ttl_exceeded})
      .mix(scenario.sniffer_noise)
      .mix(scenario.sniffer_count)
      .mix(scenario.cellular_core_rtt)
      .mix(scenario.netem_loss)
      .mix(std::uint64_t{scenario.netem_reorder});
  return hash.value();
}

}  // namespace

std::uint64_t CampaignSpec::shard_hash(const ScenarioSpec& scenario) const {
  return shard_spec_hash(*this, scenario);
}

std::uint64_t CampaignSpec::spec_hash() const {
  SpecHash hash;
  const std::size_t count = grid.has_value() ? grid->size() : scenarios.size();
  hash.mix(count);
  ScenarioSpec scratch;  // capacity-reused across the grid sweep
  for (std::size_t i = 0; i < count; ++i) {
    if (grid.has_value()) {
      grid->at_into(i, scratch);
    } else {
      scratch = scenarios[i];
    }
    hash.mix(shard_spec_hash(*this, scratch));
  }
  return hash.value();
}

namespace {

/// Shared axis validation of expand() and at().
void validate_grid(const ScenarioGrid& grid) {
  expects(!grid.phone_counts.empty() && !grid.profiles.empty() &&
              !grid.radios.empty() && !grid.emulated_rtts.empty() &&
              !grid.cross_traffic.empty() && !grid.loss_rates.empty() &&
              !grid.reorder.empty() && !grid.workloads.empty(),
          "ScenarioGrid axes must all be non-empty");
  for (const double loss : grid.loss_rates) {
    expects(loss >= 0.0 && loss < 1.0,
            "ScenarioGrid loss rates must be in [0, 1)");
  }
  for (const std::size_t count : grid.phone_counts) {
    expects(count > 0, "ScenarioGrid phone counts must be positive");
  }
}

/// The one scenario-construction routine behind expand(), at() and
/// at_into(): fills `out` for one tuple of axis positions. Sharing it is
/// what makes at(i) == expand()[i] hold element for element by
/// construction. Fills in place — every field is overwritten (the non-axis
/// ones from a default-constructed ScenarioSpec), and the phones vector
/// plus the strings inside reuse out's capacity, so a shape-stable grid
/// iteration is allocation-free (the shard-context pool's build path).
///
/// NOTE: a new ScenarioSpec/PhoneSpec field must be added to the explicit
/// reset list below, or a reused `out` would leak the previous shard's
/// value into the next scenario. The context-reuse bit-identity tests catch
/// any behavior-determining omission.
void scenario_from_axes_into(const ScenarioGrid& grid, std::size_t count_i,
                             std::size_t profile_i, std::size_t radio_i,
                             std::size_t rtt_i, std::size_t cross_i,
                             std::size_t loss_i, std::size_t reorder_i,
                             std::size_t workload_i, ScenarioSpec& out) {
  static const ScenarioSpec defaults;
  static const PhoneSpec default_phone;
  out.seed = defaults.seed;
  out.emulated_rtt = grid.emulated_rtts[rtt_i];
  out.netem_jitter = defaults.netem_jitter;
  out.congested_phy = grid.cross_traffic[cross_i];
  out.cross_connections = defaults.cross_connections;
  out.cross_flow_mbps = defaults.cross_flow_mbps;
  out.send_ttl_exceeded = defaults.send_ttl_exceeded;
  out.sniffer_noise = defaults.sniffer_noise;
  out.sniffer_count = defaults.sniffer_count;
  out.cellular_core_rtt = defaults.cellular_core_rtt;
  out.netem_loss = grid.loss_rates[loss_i];
  out.netem_reorder = grid.reorder[reorder_i];
  out.phones.resize(grid.phone_counts[count_i]);
  for (PhoneSpec& phone : out.phones) {
    phone = default_phone;
    phone.profile = grid.profiles[profile_i];
    phone.radio = grid.radios[radio_i];
    phone.workload = grid.workloads[workload_i];
  }
}

ScenarioSpec scenario_from_axes(const ScenarioGrid& grid, std::size_t count_i,
                                std::size_t profile_i, std::size_t radio_i,
                                std::size_t rtt_i, std::size_t cross_i,
                                std::size_t loss_i, std::size_t reorder_i,
                                std::size_t workload_i) {
  ScenarioSpec scenario;
  scenario_from_axes_into(grid, count_i, profile_i, radio_i, rtt_i, cross_i,
                          loss_i, reorder_i, workload_i, scenario);
  return scenario;
}

}  // namespace

std::vector<ScenarioSpec> ScenarioGrid::expand() const {
  validate_grid(*this);
  std::vector<ScenarioSpec> scenarios;
  scenarios.reserve(size());
  for (std::size_t c = 0; c < phone_counts.size(); ++c) {
    for (std::size_t p = 0; p < profiles.size(); ++p) {
      for (std::size_t r = 0; r < radios.size(); ++r) {
        for (std::size_t t = 0; t < emulated_rtts.size(); ++t) {
          for (std::size_t x = 0; x < cross_traffic.size(); ++x) {
            for (std::size_t l = 0; l < loss_rates.size(); ++l) {
              for (std::size_t o = 0; o < reorder.size(); ++o) {
                for (std::size_t w = 0; w < workloads.size(); ++w) {
                  scenarios.push_back(
                      scenario_from_axes(*this, c, p, r, t, x, l, o, w));
                }
              }
            }
          }
        }
      }
    }
  }
  return scenarios;
}

ScenarioSpec ScenarioGrid::at(std::size_t index) const {
  ScenarioSpec scenario;
  at_into(index, scenario);
  return scenario;
}

void ScenarioGrid::at_into(std::size_t index, ScenarioSpec& out) const {
  validate_grid(*this);
  expects(index < size(), "ScenarioGrid::at index out of range");
  // Decode the index as mixed-radix digits, innermost (workload) first —
  // the inverse of expand()'s nesting order.
  auto digit = [&index](std::size_t radix) {
    const std::size_t d = index % radix;
    index /= radix;
    return d;
  };
  const std::size_t w = digit(workloads.size());
  const std::size_t o = digit(reorder.size());
  const std::size_t l = digit(loss_rates.size());
  const std::size_t x = digit(cross_traffic.size());
  const std::size_t t = digit(emulated_rtts.size());
  const std::size_t r = digit(radios.size());
  const std::size_t p = digit(profiles.size());
  const std::size_t c = digit(phone_counts.size());
  scenario_from_axes_into(*this, c, p, r, t, x, l, o, w, out);
}

std::size_t ScenarioGrid::size() const {
  // Guarded mixed-radix product: eight axis lists can overflow std::size_t
  // long before they could ever run, and a silently-wrapped size would make
  // at()'s range check accept garbage indices. Fail loudly instead.
  const std::size_t axes[] = {phone_counts.size(),  profiles.size(),
                              radios.size(),        emulated_rtts.size(),
                              cross_traffic.size(), loss_rates.size(),
                              reorder.size(),       workloads.size()};
  std::size_t total = 1;
  for (const std::size_t axis : axes) {
    if (axis == 0) return 0;
    expects(total <= std::numeric_limits<std::size_t>::max() / axis,
            "ScenarioGrid::size overflows std::size_t "
            "(cross product of axis lengths is too large)");
    total *= axis;
  }
  return total;
}

std::vector<double> CampaignReport::merged(
    std::vector<double> ShardResult::*field) const {
  std::vector<double> all;
  for (const ShardResult& shard : shards) {
    const std::vector<double>& samples = shard.*field;
    all.insert(all.end(), samples.begin(), samples.end());
  }
  return all;
}

stats::Summary CampaignReport::rtt_summary() const {
  return stats::Summary(merged(&ShardResult::reported_rtt_ms));
}

stats::Cdf CampaignReport::rtt_cdf() const {
  return stats::Cdf(merged(&ShardResult::reported_rtt_ms));
}

std::vector<report::WorkloadDigest> CampaignReport::workload_digests()
    const {
  return totals.workloads.snapshot();
}

std::size_t CampaignReport::shard_count() const { return totals.shard_count; }

std::size_t CampaignReport::completed_shards() const {
  return totals.completed;
}

stats::MergingDigest CampaignReport::rtt_digest() const {
  stats::MergingDigest all;
  for (const report::WorkloadDigest& digest : workload_digests()) {
    all.merge(digest.reported_rtt_ms);
  }
  return all;
}

std::size_t CampaignReport::total_probes() const { return totals.probes; }
std::size_t CampaignReport::total_lost() const { return totals.lost; }
std::uint64_t CampaignReport::total_frames() const { return totals.frames; }
std::uint64_t CampaignReport::total_events() const { return totals.events; }
double CampaignReport::total_sim_seconds() const {
  return totals.sim_seconds;
}

Campaign::Campaign(CampaignSpec spec) : spec_(std::move(spec)) {
  expects(spec_.scenarios.empty() || !spec_.grid.has_value(),
          "Campaign takes scenarios OR a lazy grid, not both");
  if (spec_.grid.has_value()) {
    expects(spec_.grid->size() > 0, "Campaign requires at least one scenario");
  } else {
    expects(!spec_.scenarios.empty(),
            "Campaign requires at least one scenario");
  }
  expects(spec_.probes_per_phone > 0,
          "Campaign requires probes_per_phone > 0");
  expects(spec_.probe_timeout > Duration{},
          "Campaign requires a positive probe timeout");
  expects(spec_.retain_shards || !spec_.keep_samples,
          "Campaign frontier mode (retain_shards=false) requires "
          "keep_samples=false: raw sample vectors cannot be folded away");
}

std::size_t Campaign::scenario_count() const {
  return spec_.grid.has_value() ? spec_.grid->size() : spec_.scenarios.size();
}

ScenarioSpec Campaign::scenario_at(std::size_t index) const {
  expects(index < scenario_count(), "Campaign scenario index out of range");
  return spec_.grid.has_value() ? spec_.grid->at(index)
                                : spec_.scenarios[index];
}

void Campaign::check_record(const report::ShardCheckpoint& record) const {
  const std::size_t index = record.summary.info.scenario_index;
  expects(index < scenario_count(),
          "checkpoint does not match this campaign (shard out of range)");
  expects(record.summary.info.shard_seed == shard_seed(spec_.seed, index),
          "checkpoint does not match this campaign (seed mismatch)");
  expects(record.spec_hash == spec_.shard_hash(scenario_at(index)),
          "checkpoint does not match this campaign (spec edited since the "
          "checkpoint was written)");
}

std::uint64_t Campaign::shard_seed(std::uint64_t campaign_seed,
                                   std::size_t shard_index) {
  return sim::Rng(campaign_seed)
      .fork(static_cast<std::uint64_t>(shard_index))
      .seed();
}

/// Everything a worker keeps warm between shards. Lives in this TU (pimpl)
/// because it composes campaign-internal scratch with the full Testbed.
struct ShardContext::Impl {
  /// The simulator every testbed (re)build of this context schedules on.
  sim::Simulator sim;
  /// The warm node graph; engaged on the context's first shard, then
  /// rebuild()-reset into each subsequent scenario.
  std::optional<Testbed> testbed;
  /// One measurement tool per phone index, reused while both the tool kind
  /// and the phone object still match (reinitialize() restores constructor
  /// state); replaced wholesale otherwise.
  struct ToolSlot {
    tools::ToolKind kind = tools::ToolKind::icmp_ping;
    phone::Smartphone* phone = nullptr;
    std::unique_ptr<tools::MeasurementTool> tool;
  };
  std::vector<ToolSlot> tools;
  std::vector<tools::MeasurementTool*> running;
  std::vector<std::vector<report::ProbeEvent>> phone_events;
  /// Scenario scratch scenario_into() fills per shard (capacity-reusing).
  ScenarioSpec scenario;
  /// Built-in sink scratch, re-added to the chain by reference per shard;
  /// per-shard sinks from the user factory are chain-owned.
  report::SinkChain chain;
  report::DigestSink digests;
  report::SampleBufferSink buffers;
  /// Passive vantage points (warm tables; reset per shard, attached only
  /// when a workload asks for them).
  passive::PpingEstimator pping;
  passive::PerAppMonitor per_app;
  std::size_t shards_run = 0;
  std::size_t reuses = 0;
};

ShardContext::ShardContext() : impl_(std::make_unique<Impl>()) {}
ShardContext::~ShardContext() = default;
ShardContext::ShardContext(ShardContext&& other) noexcept = default;
ShardContext& ShardContext::operator=(ShardContext&& other) noexcept = default;

std::size_t ShardContext::shards_run() const { return impl_->shards_run; }
std::size_t ShardContext::reuses() const { return impl_->reuses; }

void Campaign::scenario_into(std::size_t index, ScenarioSpec& out) const {
  expects(index < scenario_count(), "Campaign scenario index out of range");
  if (spec_.grid.has_value()) {
    spec_.grid->at_into(index, out);
  } else {
    out = spec_.scenarios[index];  // copy-assign reuses out's capacity
  }
}

namespace {

/// The one record-to-view step behind CampaignReport::shards and the public
/// run_shard(): the record's counters and digests plus, for a shard that
/// ran with keep_samples, the raw sample vectors (restored records have
/// none).
ShardResult shard_result_from_checkpoint(
    report::ShardCheckpoint&& record,
    report::SampleBufferSink::Buffers samples = {}) {
  ShardResult result;
  result.completed = true;
  result.scenario_index = record.summary.info.scenario_index;
  result.shard_seed = record.summary.info.shard_seed;
  result.phone_count = record.summary.info.phone_count;
  result.probes_sent = record.summary.probes_sent;
  result.probes_lost = record.summary.probes_lost;
  result.frames_on_air = record.summary.frames_on_air;
  result.events_fired = record.summary.events_fired;
  result.sim_seconds = record.summary.sim_seconds;
  result.digests = std::move(record.digests);
  result.reported_rtt_ms = std::move(samples.reported_rtt_ms);
  result.du_ms = std::move(samples.du_ms);
  result.dk_ms = std::move(samples.dk_ms);
  result.dv_ms = std::move(samples.dv_ms);
  result.dn_ms = std::move(samples.dn_ms);
  result.passive_sniffer_rtt_ms = std::move(samples.passive_sniffer_rtt_ms);
  result.passive_app_rtt_ms = std::move(samples.passive_app_rtt_ms);
  return result;
}

}  // namespace

ShardResult Campaign::run_shard(std::size_t scenario_index) const {
  ShardContext context;
  return run_shard(scenario_index, context);
}

ShardResult Campaign::run_shard(std::size_t scenario_index,
                                ShardContext& context) const {
  report::ShardCheckpoint record = run_shard(
      scenario_index, /*run_sequence=*/0, nullptr, nullptr, context);
  return shard_result_from_checkpoint(std::move(record),
                                      context.impl_->buffers.take());
}

report::ShardCheckpoint Campaign::run_shard_record(
    std::size_t scenario_index, ShardContext& context) const {
  report::ShardCheckpoint record = run_shard(
      scenario_index, /*run_sequence=*/0, nullptr, nullptr, context);
  // run_shard left context's scenario scratch holding this shard's spec;
  // hashing it avoids re-materializing the scenario (the hash ignores the
  // seed field run_shard overwrote).
  record.spec_hash = spec_.shard_hash(context.impl_->scenario);
  return record;
}

report::ShardCheckpoint Campaign::run_shard(
    std::size_t scenario_index, std::size_t run_sequence,
    report::CheckpointWriter* checkpoint, StageSeconds* stage,
    ShardContext& context) const {
  expects(scenario_index < scenario_count(),
          "Campaign::run_shard index out of range");
  expects(context.impl_ != nullptr,
          "Campaign::run_shard on a moved-from ShardContext");
  ShardContext::Impl& ctx = *context.impl_;
  const auto stage_start = std::chrono::steady_clock::now();
  auto stage_lap = [last = stage_start]() mutable {
    const auto now = std::chrono::steady_clock::now();
    const double seconds =
        std::chrono::duration<double>(now - last).count();
    last = now;
    return seconds;
  };

  // Sink scratch first: normal completion leaves all three empty, but a
  // shard that threw mid-stream must not leak partial folds (or its owned
  // per-shard sinks) into this one.
  ctx.chain.clear();
  ctx.digests.reset();
  ctx.buffers.reset();
  ctx.pping.reset();
  ctx.per_app.reset();

  ScenarioSpec& scenario = ctx.scenario;
  scenario_into(scenario_index, scenario);
  scenario.seed = shard_seed(spec_.seed, scenario_index);

  report::ShardCheckpoint record;
  report::ShardSummary& summary = record.summary;
  summary.info = report::ShardInfo{scenario_index, scenario.seed,
                                   scenario.phones.size(), run_sequence};

  // The shard's sink chain: the built-in sinks (context-resident, added by
  // reference) — DigestSink for the record's digests, SampleBufferSink for
  // the keep_samples view — then whatever CampaignSpec::sinks plugs in.
  report::SinkChain& chain = ctx.chain;
  chain.add_ref(ctx.digests);
  if (spec_.keep_samples) chain.add_ref(ctx.buffers);
  if (spec_.sinks) {
    for (auto& sink : spec_.sinks(summary.info)) chain.add(std::move(sink));
  }
  chain.shard_started(summary.info);

  // Prune stale tools BEFORE the rebuild: ~MeasurementTool unregisters its
  // flow on the phone it was bound to, so it must run while that phone is
  // still alive — rebuild() destroys phones whose slot changes radio kind
  // (and any beyond the next scenario's count). A tool survives only when
  // the next scenario keeps the same tool kind on a phone build_graph will
  // reset in place (same slot, same radio kind — stable address).
  if (ctx.testbed.has_value()) {
    const std::size_t next_count = scenario.phones.size();
    if (ctx.tools.size() > next_count) ctx.tools.resize(next_count);
    for (std::size_t i = 0; i < ctx.tools.size(); ++i) {
      ShardContext::Impl::ToolSlot& slot = ctx.tools[i];
      if (slot.tool == nullptr) continue;
      const bool phone_survives =
          i < ctx.testbed->phone_count() &&
          slot.phone == &ctx.testbed->phone(i) &&
          ctx.testbed->phone(i).radio_kind() == scenario.phones[i].radio;
      if (!phone_survives || slot.kind != scenario.phones[i].workload.tool) {
        slot.tool.reset();
        slot.phone = nullptr;
      }
    }
  }

  // Reuse the warm testbed — rebuild() places the node graph on the reset
  // simulator through the same reset() calls a fresh build runs — or
  // construct it into the context slot on first use.
  if (ctx.testbed.has_value()) {
    ctx.testbed->rebuild(scenario);
    ++ctx.reuses;
  } else {
    ctx.testbed.emplace(scenario, ctx.sim);
  }
  Testbed& testbed = *ctx.testbed;
  if (stage != nullptr) stage->build += stage_lap();
  testbed.settle(spec_.settle);
  if (testbed.spec().congested_phy) {
    testbed.start_cross_traffic();
    testbed.settle(Duration::seconds(2));  // reach saturation
  }

  // One tool per phone, selected by the phone's WorkloadSpec; workload
  // fields left at zero fall back to the campaign-wide schedule defaults.
  // Each tool feeds its completed probes into a per-phone event list via
  // the probe listener (no post-hoc result() scraping); the lists flush
  // through the sink chain in canonical order below.
  const std::size_t phone_count = testbed.phone_count();
  if (ctx.phone_events.size() < phone_count) {
    ctx.phone_events.resize(phone_count);
  }
  for (std::vector<report::ProbeEvent>& events : ctx.phone_events) {
    events.clear();
  }
  if (ctx.tools.size() > phone_count) ctx.tools.resize(phone_count);
  ctx.running.clear();
  // Passive vantage points: rebuild()/reset() detached every observer and
  // tap, so attachment is strictly per shard. The sniffer-side estimator
  // attaches once (sniffer 0 — all sniffers see the same frames); both it
  // and the per-app monitor must be wired BEFORE any tool starts, because
  // sequential tools launch probe 0 synchronously inside start().
  bool sniffer_vantage = false;
  for (const PhoneSpec& phone : testbed.spec().phones) {
    sniffer_vantage |= passive::wants_sniffer(phone.workload.passive);
  }
  if (sniffer_vantage && testbed.sniffer_count() > 0) {
    testbed.sniffer(0).attach_capture_observer(&ctx.pping);
  }
  for (std::size_t i = 0; i < phone_count; ++i) {
    const WorkloadSpec& workload = testbed.spec().phones[i].workload;
    tools::MeasurementTool::Config config;
    config.probe_count = workload.probe_count > 0 ? workload.probe_count
                                                  : spec_.probes_per_phone;
    config.interval = workload.interval.is_zero() ? spec_.probe_interval
                                                  : workload.interval;
    config.timeout = workload.timeout.is_zero() ? spec_.probe_timeout
                                                : workload.timeout;
    config.target = Testbed::kServerId;
    if (i == ctx.tools.size()) ctx.tools.emplace_back();
    ShardContext::Impl::ToolSlot& slot = ctx.tools[i];
    if (slot.tool != nullptr && slot.kind == workload.tool &&
        slot.phone == &testbed.phone(i)) {
      // Same tool kind bound to the same (reset) phone object:
      // reinitialize() is the setup path the constructor runs too.
      slot.tool->reinitialize(config);
    } else {
      slot.tool = tools::make_tool(workload.tool, testbed.phone(i), config);
      slot.kind = workload.tool;
      slot.phone = &testbed.phone(i);
    }
    slot.tool->set_probe_listener(
        [events = &ctx.phone_events[i], i, scenario_index,
         tool = workload.tool](const tools::ProbeRecord& record) {
          report::ProbeEvent event;
          event.scenario_index = scenario_index;
          event.phone_index = i;
          event.probe_index = record.index;
          event.tool = tool;
          event.timed_out = record.timed_out;
          event.reported_rtt_ms = record.reported_rtt_ms;
          if (!record.timed_out && record.response.has_value()) {
            // The reported (tool-level) RTT overrides the stamp-derived du,
            // as in the paper's user-level vantage point.
            const auto sample = core::LayerSample::from_response(
                *record.response, record.reported_rtt_ms);
            if (sample.has_value()) {
              event.layers = report::LayerBreakdown{
                  sample->du_ms, sample->dk_ms, sample->dv_ms, sample->dn_ms};
            }
          }
          events->push_back(event);
        });
    if (passive::wants_sniffer(workload.passive) &&
        testbed.sniffer_count() > 0) {
      ctx.pping.watch_flow(Testbed::phone_id(i), slot.tool->flow_id(), i,
                           workload.tool);
    }
    if (passive::wants_exec_env(workload.passive)) {
      testbed.phone(i).exec_env().attach_flow_tap(&ctx.per_app);
      ctx.per_app.watch_flow(Testbed::phone_id(i), slot.tool->flow_id(), i,
                             workload.tool);
    }
    slot.tool->start();
    ctx.running.push_back(slot.tool.get());
  }
  testbed.run_until_all_finished(ctx.running);
  if (stage != nullptr) stage->simulate += stage_lap();

  // Canonical event delivery: phones in scenario order, probes in schedule
  // order within each phone (probes can *complete* out of schedule order
  // when a timeout outlives later responses) — the ordering contract
  // report::ResultSink documents, and byte-for-byte the order the legacy
  // buffered fold used.
  // Passive samples ride the same canonical sweep: after a phone's active
  // probes come its sniffer-vantage samples, then its per-app samples, each
  // in emission order. Passive events never count as probes (sent or lost).
  auto flush_passive = [&chain, scenario_index](
                           const std::vector<passive::RttSample>& samples,
                           std::size_t phone, report::Vantage vantage) {
    for (const passive::RttSample& sample : samples) {
      if (sample.phone_index != phone) continue;
      report::ProbeEvent event;
      event.scenario_index = scenario_index;
      event.phone_index = phone;
      event.probe_index = sample.ordinal;
      event.tool = sample.tool;
      event.vantage = vantage;
      event.reported_rtt_ms = sample.rtt_ms;
      chain.probe_completed(event);
    }
  };
  for (std::size_t i = 0; i < phone_count; ++i) {
    std::vector<report::ProbeEvent>& events = ctx.phone_events[i];
    std::sort(events.begin(), events.end(),
              [](const report::ProbeEvent& a, const report::ProbeEvent& b) {
                return a.probe_index < b.probe_index;
              });
    for (const report::ProbeEvent& event : events) {
      summary.probes_sent += 1;
      if (event.timed_out) summary.probes_lost += 1;
      chain.probe_completed(event);
    }
    flush_passive(ctx.pping.samples(), i, report::Vantage::passive_sniffer);
    flush_passive(ctx.per_app.samples(), i, report::Vantage::passive_app);
  }

  record.digests = ctx.digests.take_digests();
  if (testbed.cross_traffic_running()) testbed.stop_cross_traffic();
  summary.frames_on_air = testbed.channel().frames_transmitted();
  summary.events_fired = testbed.simulator().events_fired();
  summary.sim_seconds =
      (testbed.simulator().now() - sim::TimePoint::epoch()).to_seconds();
  chain.shard_finished(summary);
  // The append follows every sink's shard_finished: user sinks (e.g. the
  // JSONL export) see the finish before the shard is durably marked
  // complete, so a kill in between re-runs the shard (detectable duplicate
  // export records) rather than silently never exporting it.
  if (checkpoint != nullptr) {
    // The scenario's seed was overwritten above, but the hash covers only
    // the outcome-determining shape fields, so hashing the local copy
    // equals hashing the stored/grid-built spec.
    record.spec_hash = spec_.shard_hash(scenario);
    checkpoint->append(record);
  }
  // Destroy the per-shard owned sinks now (matching the fresh path, where
  // the whole chain died here); the context-resident built-ins stay warm.
  chain.clear();
  if (stage != nullptr) stage->sink += stage_lap();
  ++ctx.shards_run;
  return record;
}

namespace {

/// The work-claim cursor on its own cache line: workers of a big campaign
/// hammer this one atomic, and without the padding it false-shares with
/// whatever the compiler packs next to it on run()'s stack.
struct alignas(64) ClaimCursor {
  std::atomic<std::size_t> next{0};
};

/// Per-worker accumulators, one cache line each so workers never
/// false-share their hot counters while shards retire.
struct alignas(64) WorkerLane {
  StageSeconds stage;
};

/// The retained-mode fold, kept independent of MergeFrontier on purpose: a
/// plain ascending loop over the completed shards that copy-merges their
/// digests. It visits the same shards in the same order as the frontier,
/// so both produce the same bits — which is what lets a retained run serve
/// as the reference every frontier run is checked against. Returns the
/// fold's wall seconds.
double fold_retained(CampaignReport& report) {
  const auto start = std::chrono::steady_clock::now();
  CampaignReport::FoldedTotals& totals = report.totals;
  for (const ShardResult& shard : report.shards) {
    if (!shard.completed) continue;
    ++totals.completed;
    totals.probes += shard.probes_sent;
    totals.lost += shard.probes_lost;
    totals.frames += shard.frames_on_air;
    totals.events += shard.events_fired;
    totals.sim_seconds += shard.sim_seconds;
    for (const report::WorkloadDigest& digest : shard.digests) {
      totals.workloads.slot(digest.tool).merge(digest);
    }
  }
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

CampaignReport Campaign::run(std::size_t workers) {
  const std::size_t shard_count = scenario_count();
  if (workers == 0) {
    workers = std::thread::hardware_concurrency();
    if (workers == 0) workers = 1;
  }

  CampaignReport report;
  report.totals.shard_count = shard_count;
  ResumePlan plan = plan_resume(*this);
  report.stage.restore = plan.restore_seconds;
  const std::vector<std::size_t>& pending = plan.pending;

  // Frontier mode folds restored and fresh shards as the cursor reaches
  // them; retained mode materializes the restored ones now and folds
  // everything after the join.
  std::optional<MergeFrontier> frontier;
  if (spec_.retain_shards) {
    report.shards.resize(shard_count);
    for (std::size_t i = 0; i < shard_count; ++i) {
      if (plan.slots[i] == MergeFrontier::Slot::restored) {
        report.shards[i] = shard_result_from_checkpoint(plan.restored(i));
      }
    }
  } else {
    frontier.emplace(std::move(plan.slots), std::move(plan.restored),
                     report.totals);
  }

  // Never spawn more threads than pending shards: a tiny incremental tick
  // (or a fully-restored rerun) must not pay pool spin-up for workers that
  // would find the claim cursor already exhausted.
  workers = std::min(workers, std::max<std::size_t>(pending.size(), 1));
  std::vector<std::exception_ptr> failures(pending.size());

  // Work-stealing by atomic cursor: each worker owns the slots it claims,
  // so no locking is needed; determinism comes from per-shard seeding, not
  // from the claim order. Claims are *batched* — one fetch_add leases
  // `batch` consecutive sequences — so a million-shard sweep performs
  // O(shards / batch) RMWs on the shared line instead of one per shard.
  // Batches stay small enough that tail imbalance is at most one batch per
  // worker.
  const std::size_t batch = std::clamp<std::size_t>(
      pending.size() / (workers * 8), std::size_t{1}, std::size_t{16});
  ClaimCursor cursor;
  std::vector<WorkerLane> lanes(workers);
  auto work = [&](WorkerLane& lane) {
    // Each worker owns one warm context for its whole claim stream: every
    // shard after the first reuses the simulator, node graph, tools and
    // sink scratch (per-shard seeding keeps results independent of which
    // worker ran what).
    ShardContext context;
    while (true) {
      const std::size_t begin =
          cursor.next.fetch_add(batch, std::memory_order_relaxed);
      if (begin >= pending.size()) return;
      const std::size_t end = std::min(begin + batch, pending.size());
      for (std::size_t p = begin; p < end; ++p) {
        const std::size_t index = pending[p];
        std::optional<report::ShardCheckpoint> record;
        try {
          record = run_shard(index, /*run_sequence=*/p, plan.checkpoint.get(),
                             &lane.stage, context);
        } catch (...) {
          // Later shards still run; the failure is rethrown after the
          // loop.
          failures[p] = std::current_exception();
        }
        // Retire: the frontier folds the record (or parks it until the
        // cursor arrives) and frees its digests, or releases a failed
        // shard's slot so the fold cannot stall; a retained run keeps the
        // record's view for the post-join fold. This worker may run the
        // fold, and a fold step that throws fails the frontier: record it
        // like a shard failure (finalize() rethrows it too).
        try {
          if (spec_.retain_shards) {
            if (record) {
              report.shards[index] = shard_result_from_checkpoint(
                  std::move(*record), context.impl_->buffers.take());
            }
          } else if (record) {
            frontier->submit(index, std::move(*record));
          } else {
            frontier->abandon(index);
          }
        } catch (...) {
          if (failures[p] == nullptr) failures[p] = std::current_exception();
        }
      }
    }
  };
  if (workers == 1) {
    work(lanes.front());
  } else {
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (WorkerLane& lane : lanes) {
      pool.emplace_back([&work, &lane] { work(lane); });
    }
    for (std::thread& worker : pool) worker.join();
  }

  if (spec_.retain_shards) {
    report.stage.merge = fold_retained(report);
  } else {
    frontier->finalize();
    report.stage.merge = frontier->fold_seconds();
  }
  for (const WorkerLane& lane : lanes) {
    report.stage.build += lane.stage.build;
    report.stage.simulate += lane.stage.simulate;
    report.stage.sink += lane.stage.sink;
  }
  for (const std::exception_ptr& failure : failures) {
    if (failure != nullptr) std::rethrow_exception(failure);
  }
  return report;
}

}  // namespace acute::testbed
