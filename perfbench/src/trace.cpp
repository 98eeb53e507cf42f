#include "trace.hpp"

#include <sys/mman.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <new>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "fabric/wire.hpp"
#include "net/packet.hpp"

namespace perfbench {

using acute::fabric::FrameType;
using acute::fabric::Transport;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

std::uint64_t packet_copies() {
  return acute::net::Packet::op_counters().copies;
}

/// Small dense id of the calling thread (assigned on first use).
std::uint32_t thread_lane() {
  static std::atomic<std::uint32_t> next{1};
  thread_local const std::uint32_t lane =
      next.fetch_add(1, std::memory_order_relaxed);
  return lane;
}

class TimingSink final : public acute::report::ResultSink {
 public:
  explicit TimingSink(ShardProbe& probe) : probe_(probe) {}

  void shard_started(const acute::report::ShardInfo& info) override {
    span_.scenario_index = info.scenario_index;
    span_.lane = thread_lane();
    span_.packet_copies = packet_copies();
    span_.start_ns = now_ns();
  }
  void probe_completed(const acute::report::ProbeEvent&) override {}
  void shard_finished(const acute::report::ShardSummary&) override {
    span_.end_ns = now_ns();
    span_.packet_copies = packet_copies() - span_.packet_copies;
    probe_.record(span_);
  }

 private:
  ShardProbe& probe_;
  ShardSpan span_;
};

}  // namespace

ShardProbe::ShardProbe(std::size_t shard_count, bool traced)
    : traced_(traced) {
  if (traced_) slots_.resize(shard_count);
}

void ShardProbe::note_start() {
  if (first_start_ns_.load(std::memory_order_relaxed) == 0) {
    std::int64_t expected = 0;
    first_start_ns_.compare_exchange_strong(expected, now_ns(),
                                            std::memory_order_relaxed);
  }
}

acute::report::SinkFactory ShardProbe::factory(
    acute::report::SinkFactory inner) {
  return [this, inner = std::move(inner)](
             const acute::report::ShardInfo& info) {
    note_start();
    std::vector<std::unique_ptr<acute::report::ResultSink>> sinks;
    if (inner) sinks = inner(info);
    if (traced_) sinks.push_back(std::make_unique<TimingSink>(*this));
    return sinks;
  };
}

std::vector<ShardSpan> ShardProbe::finished_spans() const {
  std::vector<ShardSpan> spans;
  for (const ShardSpan& span : slots_) {
    if (span.end_ns != 0) spans.push_back(span);
  }
  return spans;
}

// ------------------------------------------------------------------ fabric

namespace {

constexpr std::size_t kMaxFabricWorkers = 16;

}  // namespace

struct FabricProbe::Region {
  std::atomic<std::int64_t> first_heartbeat_ns[kMaxFabricWorkers];
  std::atomic<std::size_t> recorded[kMaxFabricWorkers];

  ShardSpan* spans() { return reinterpret_cast<ShardSpan*>(this + 1); }
};

namespace {

class ProbeTransport final : public Transport {
 public:
  ProbeTransport(std::unique_ptr<Transport> inner,
                 std::atomic<std::int64_t>& first_heartbeat_ns,
                 std::atomic<std::size_t>& recorded, ShardSpan* spans,
                 std::size_t capacity, std::uint32_t lane)
      : inner_(std::move(inner)),
        first_heartbeat_ns_(first_heartbeat_ns),
        recorded_(recorded),
        spans_(spans),
        capacity_(capacity),
        lane_(lane) {}

  void send_all(const void* data, std::size_t size) override {
    // Frame layout: u32 length, u8 type, payload (fabric/wire.hpp); every
    // frame goes out in one send_all.
    if (size >= 5) {
      const auto* bytes = static_cast<const unsigned char*>(data);
      const auto type = static_cast<FrameType>(bytes[4]);
      if (type == FrameType::heartbeat) {
        // The worker heartbeats immediately before running each shard.
        current_.start_ns = now_ns();
        current_.packet_copies = packet_copies();
        if (first_heartbeat_ns_.load(std::memory_order_relaxed) == 0) {
          first_heartbeat_ns_.store(current_.start_ns,
                                    std::memory_order_relaxed);
        }
      } else if (type == FrameType::shard_done && spans_ != nullptr) {
        const std::string line =
            acute::fabric::decode_shard_done(
                std::string_view(reinterpret_cast<const char*>(bytes + 5),
                                 size - 5))
                .record_line;
        // "ckpt2 <scenario_index> ..."
        const std::size_t digits = line.find(' ');
        current_.scenario_index =
            digits == std::string::npos
                ? 0
                : std::strtoull(line.c_str() + digits + 1, nullptr, 10);
        current_.end_ns = now_ns();
        current_.packet_copies = packet_copies() - current_.packet_copies;
        current_.lane = lane_;
        const std::size_t slot = recorded_.load(std::memory_order_relaxed);
        if (slot < capacity_) {
          spans_[slot] = current_;
          recorded_.store(slot + 1, std::memory_order_relaxed);
        }
      }
    }
    inner_->send_all(data, size);
  }
  std::size_t recv_some(void* data, std::size_t size) override {
    return inner_->recv_some(data, size);
  }
  [[nodiscard]] int fd() const override { return inner_->fd(); }

 private:
  std::unique_ptr<Transport> inner_;
  std::atomic<std::int64_t>& first_heartbeat_ns_;
  std::atomic<std::size_t>& recorded_;
  ShardSpan* spans_;
  std::size_t capacity_;
  std::uint32_t lane_;
  ShardSpan current_;
};

}  // namespace

FabricProbe::FabricProbe(std::size_t workers, std::size_t shard_count,
                         bool traced)
    : workers_(workers),
      capacity_(traced ? shard_count : 0),
      traced_(traced),
      bytes_(sizeof(Region) + workers * capacity_ * sizeof(ShardSpan)) {
  if (workers_ > kMaxFabricWorkers) {
    throw std::invalid_argument("FabricProbe: too many workers");
  }
  void* memory = ::mmap(nullptr, bytes_, PROT_READ | PROT_WRITE,
                        MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  if (memory == MAP_FAILED) throw std::runtime_error("FabricProbe: mmap");
  region_ = new (memory) Region{};
}

FabricProbe::~FabricProbe() { ::munmap(region_, bytes_); }

std::unique_ptr<Transport> FabricProbe::wrap(std::unique_ptr<Transport> inner,
                                             std::size_t worker) {
  ShardSpan* spans =
      traced_ ? region_->spans() + worker * capacity_ : nullptr;
  return std::make_unique<ProbeTransport>(
      std::move(inner), region_->first_heartbeat_ns[worker],
      region_->recorded[worker], spans, capacity_,
      static_cast<std::uint32_t>(worker + 1));
}

std::int64_t FabricProbe::first_shard_ns() const {
  std::int64_t first = 0;
  for (std::size_t w = 0; w < workers_; ++w) {
    const std::int64_t t = region_->first_heartbeat_ns[w].load();
    if (t != 0 && (first == 0 || t < first)) first = t;
  }
  return first;
}

std::vector<ShardSpan> FabricProbe::spans() const {
  std::vector<ShardSpan> all;
  for (std::size_t w = 0; w < workers_; ++w) {
    const std::size_t count = region_->recorded[w].load();
    const ShardSpan* first = region_->spans() + w * capacity_;
    all.insert(all.end(), first, first + count);
  }
  return all;
}

// ------------------------------------------------------------ chrome trace

void write_chrome_trace(const std::string& path, std::int64_t origin_ns,
                        const std::vector<CallSpan>& calls,
                        const std::vector<ShardSpan>& shards) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  auto micros = [origin_ns](std::int64_t ns) {
    return double(ns - origin_ns) / 1e3;
  };
  char buffer[512];
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  out << "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"thread_name\","
         "\"args\":{\"name\":\"benchmark\"}}";
  for (std::size_t i = 0; i < calls.size(); ++i) {
    const CallSpan& call = calls[i];
    std::snprintf(buffer, sizeof buffer,
                  ",\n{\"ph\":\"X\",\"pid\":1,\"tid\":0,\"name\":\"%s\","
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu}}",
                  call.name.c_str(), micros(call.start_ns),
                  double(call.end_ns - call.start_ns) / 1e3, i);
    out << buffer;
  }
  for (const ShardSpan& shard : shards) {
    std::snprintf(buffer, sizeof buffer,
                  ",\n{\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"name\":\"shard\","
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"scenario\":%zu,"
                  "\"parent\":%zu,\"packet_copies\":%llu}}",
                  shard.lane, micros(shard.start_ns),
                  double(shard.end_ns - shard.start_ns) / 1e3,
                  shard.scenario_index, shard.parent,
                  static_cast<unsigned long long>(shard.packet_copies));
    out << buffer;
  }
  out << "\n]}\n";
  out.flush();
  if (!out) throw std::runtime_error("short write to trace file " + path);
}

}  // namespace perfbench
