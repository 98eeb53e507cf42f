// perfbench_campaign — the campaign benchmark of record (see README.md).
//
//   perfbench_campaign --workload NAME --seed N --seconds S --trace 0|1
//                      [--tmp-base DIR] [--trace-out PATH] [--shrink]
//                      [--perturb-reference]
//
// Computes the workload's reference dump, runs one untimed warm-up, then
// runs the workload repeatedly for S seconds. --trace 0 reports the
// end-to-end metrics; --trace 1 alternates untraced and traced iterations
// and reports the per-layer metrics. The last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
#include <sched.h>
#include <stdlib.h>
#include <sys/resource.h>
#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "heap.hpp"
#include "report/checkpoint.hpp"
#include "report/digest_sink.hpp"
#include "runner.hpp"
#include "trace.hpp"
#include "workloads.hpp"

// Set by perfbench/CMakeLists.txt; a hand-built binary reports these.
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unspecified"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER __VERSION__
#endif

namespace perfbench {
namespace {

using acute::testbed::Campaign;
using acute::testbed::CampaignSpec;

struct Options {
  Workload workload = Workload::sweep_tiny;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string tmp_base = ".";
  std::string trace_out;
  Scale scale = Scale::full();
  bool perturb_reference = false;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

/// Nearest-rank percentile of `values` (q in [0, 1]).
double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * double(values.size())));
  return values[std::min(values.size() - 1, rank == 0 ? 0 : rank - 1)];
}

/// Median of `field` over the iterations.
double median_of(const std::vector<Iteration>& iterations,
                 const std::function<double(const Iteration&)>& field) {
  std::vector<double> values;
  for (const Iteration& it : iterations) values.push_back(field(it));
  return median(values);
}

double ratio(double numerator, double denominator) {
  return denominator > 0 ? numerator / denominator : 0;
}

std::size_t affinity_cores() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof set, &set) != 0) {
    return std::max(1u, std::thread::hardware_concurrency());
  }
  return static_cast<std::size_t>(CPU_COUNT(&set));
}

std::string affinity_list() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof set, &set) != 0) return "?";
  std::string list;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &set)) continue;
    if (!list.empty()) list += ',';
    list += std::to_string(cpu);
  }
  return list;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string filesystem_type(const std::string& path) {
  struct statfs info {};
  if (::statfs(path.c_str(), &info) != 0) return "unknown";
  switch (static_cast<unsigned long>(info.f_type)) {
    case 0xEF53:
      return "ext4";
    case 0x01021994:
      return "tmpfs";
    case 0x794c7630:
      return "overlayfs";
    case 0x58465342:
      return "xfs";
    case 0x9123683E:
      return "btrfs";
    case 0x6969:
      return "nfs";
    case 0x2fc12fc1:
      return "zfs";
    default: {
      char hex[32];
      std::snprintf(hex, sizeof hex, "0x%lx",
                    static_cast<unsigned long>(info.f_type));
      return hex;
    }
  }
}

void print_host(const std::string& tmpdir) {
  std::printf(
      "host: nproc=%u affinity=%zu [%s] cpu=\"%s\" compiler=\"%s\" "
      "build=%s tmp_fs=%s\n",
      std::thread::hardware_concurrency(), affinity_cores(),
      affinity_list().c_str(), cpu_model().c_str(), PERFBENCH_COMPILER,
      PERFBENCH_BUILD_TYPE, filesystem_type(tmpdir).c_str());
}

/// Per-record costs of the report and stats layers, timed on a sample of
/// the workload's own shard records.
struct LayerCosts {
  double ckpt_bytes_per_shard = 0;
  double render_us = 0;
  double parse_us = 0;
  double fold_us = 0;
  double heap_bytes_per_shard = 0;
  double compact_s = 0;
  double handshake_s = 0;
};

/// Repeats `pass` until at least 30 ms have been timed; returns
/// microseconds per item.
double time_per_item(std::size_t items,
                     const std::function<void()>& prepare,
                     const std::function<void()>& pass) {
  std::int64_t timed_ns = 0;
  std::size_t passes = 0;
  while ((timed_ns < 30'000'000 || passes < 3) && passes < 10'000) {
    prepare();
    const std::int64_t start = now_ns();
    pass();
    timed_ns += now_ns() - start;
    ++passes;
  }
  return double(timed_ns) / 1e3 / double(passes * items);
}

LayerCosts measure_layers(const Runner& runner, Workload workload,
                          std::vector<CallSpan>& calls) {
  LayerCosts costs;
  CampaignSpec spec = runner.spec();
  spec.sinks = nullptr;
  spec.checkpoint_path.clear();
  const Campaign campaign(spec);
  const std::size_t shards = runner.shard_count();
  const std::size_t samples =
      std::min<std::size_t>(shards, workload == Workload::fleet_mixed ? 24
                                                                      : 256);

  auto timed = [&calls](const char* name, const std::function<void()>& body) {
    const std::int64_t start = now_ns();
    body();
    calls.push_back(CallSpan{name, start, now_ns()});
  };

  std::vector<acute::report::ShardCheckpoint> records;
  timed("testbed.Campaign::run_shard_record (sample)", [&] {
    acute::testbed::ShardContext context;
    for (std::size_t k = 0; k < samples; ++k) {
      records.push_back(campaign.run_shard_record(k * shards / samples,
                                                  context));
    }
  });

  std::vector<std::string> lines(records.size());
  timed("report.render_checkpoint_record", [&] {
    costs.render_us = time_per_item(records.size(), [] {}, [&] {
      for (std::size_t i = 0; i < records.size(); ++i) {
        lines[i] = acute::report::render_checkpoint_record(records[i]);
      }
    });
  });
  double bytes = 0;
  for (const std::string& line : lines) bytes += double(line.size());
  costs.ckpt_bytes_per_shard = bytes / double(lines.size());

  bool parsed = true;
  timed("report.parse_checkpoint_record", [&] {
    acute::report::ShardCheckpoint out;
    costs.parse_us = time_per_item(lines.size(), [] {}, [&] {
      for (const std::string& line : lines) {
        parsed = acute::report::parse_checkpoint_record(line, out) && parsed;
      }
    });
  });
  if (!parsed) throw std::runtime_error("a rendered record failed to parse");

  // The frontier's per-shard step: fold each shard's digests, consuming
  // them. Copies are made before the clock starts.
  std::vector<std::vector<acute::report::WorkloadDigest>> batch;
  timed("stats.WorkloadFold::fold_shard", [&] {
    acute::report::WorkloadFold fold;
    costs.fold_us = time_per_item(
        records.size(),
        [&] {
          batch.clear();
          for (const auto& record : records) batch.push_back(record.digests);
        },
        [&] {
          for (auto& digests : batch) fold.fold_shard(std::move(digests));
        });
  });

  // Heap a held shard's digests occupy.
  double heap_bytes = 0;
  for (const auto& record : records) {
    const std::int64_t before = heap::live_bytes();
    const auto copy = record.digests;
    heap_bytes += double(heap::live_bytes() - before);
  }
  costs.heap_bytes_per_shard = heap_bytes / double(records.size());

  if (!runner.compaction_input().empty()) {
    const std::string copy = runner.compaction_input() + ".compact";
    std::vector<double> runs;
    for (int k = 0; k < 3; ++k) {
      std::filesystem::copy_file(
          runner.compaction_input(), copy,
          std::filesystem::copy_options::overwrite_existing);
      const std::int64_t start = now_ns();
      acute::report::compact_checkpoint(copy);
      const std::int64_t end = now_ns();
      calls.push_back(CallSpan{"report.compact_checkpoint", start, end});
      runs.push_back(double(end - start) / 1e9);
    }
    costs.compact_s = median(runs);
  }

  std::vector<double> hashes;
  for (int k = 0; k < 3; ++k) {
    const std::int64_t start = now_ns();
    volatile std::uint64_t hash = spec.spec_hash();
    (void)hash;
    const std::int64_t end = now_ns();
    calls.push_back(CallSpan{"fabric.CampaignSpec::spec_hash", start, end});
    hashes.push_back(double(end - start) / 1e9);
  }
  costs.handshake_s = median(hashes);
  return costs;
}

std::vector<Metric> end_to_end_metrics(const std::vector<Iteration>& runs) {
  return {
      {"probes_per_s",
       median_of(runs,
                 [](const Iteration& it) {
                   return ratio(double(it.probes), it.wall_s);
                 }),
       "1/s"},
      {"setup_s",
       median_of(runs, [](const Iteration& it) { return it.setup_s; }), "s"},
  };
}

std::vector<Metric> per_layer_metrics(const std::vector<Iteration>& plain,
                                      const std::vector<Iteration>& traced,
                                      const Runner& runner, Workload workload,
                                      const LayerCosts& costs) {
  auto stage = [&plain](double acute::testbed::StageSeconds::*field) {
    return median_of(plain,
                     [field](const Iteration& it) { return it.stage.*field; });
  };
  auto per_probe = [&plain](const std::function<double(const Iteration&)>& f) {
    return median_of(plain, [&f](const Iteration& it) {
      return ratio(f(it), double(it.probes));
    });
  };
  std::vector<double> shard_ms;
  for (const Iteration& it : traced) {
    for (const ShardSpan& span : it.shards) {
      shard_ms.push_back(double(span.end_ns - span.start_ns) / 1e6);
    }
  }
  const bool fabric = workload == Workload::sweep_fabric;
  const double cores = double(affinity_cores());
  rusage self{};
  ::getrusage(RUSAGE_SELF, &self);
  const double plain_rate = median_of(plain, [](const Iteration& it) {
    return ratio(double(it.probes), it.wall_s);
  });
  const double traced_rate = median_of(traced, [](const Iteration& it) {
    return ratio(double(it.probes), it.wall_s);
  });

  return {
      // testbed
      {"campaign.build_s", stage(&acute::testbed::StageSeconds::build), "s"},
      {"campaign.simulate_s", stage(&acute::testbed::StageSeconds::simulate),
       "s"},
      {"campaign.sink_s", stage(&acute::testbed::StageSeconds::sink), "s"},
      {"campaign.merge_s", stage(&acute::testbed::StageSeconds::merge), "s"},
      {"campaign.restore_s", stage(&acute::testbed::StageSeconds::restore),
       "s"},
      {"campaign.merge_share",
       median_of(plain,
                 [](const Iteration& it) {
                   return ratio(it.stage.merge, it.wall_s);
                 }),
       "share"},
      {"campaign.worker_busy_share",
       median_of(traced,
                 [](const Iteration& it) {
                   double busy = 0;
                   for (const ShardSpan& span : it.shards) {
                     busy += double(span.end_ns - span.start_ns) / 1e9;
                   }
                   return ratio(busy, double(it.lanes) * it.wall_s);
                 }),
       "share"},
      {"campaign.shard_ms.p50", percentile(shard_ms, 0.50), "ms"},
      {"campaign.shard_ms.p99", percentile(shard_ms, 0.99), "ms"},
      {"campaign.allocs_per_shard",
       median_of(plain,
                 [&runner](const Iteration& it) {
                   return double(it.allocations) /
                          double(runner.shard_count());
                 }),
       "count"},
      {"frontier.held_peak",
       median_of(traced,
                 [](const Iteration& it) { return double(it.held_peak); }),
       "count"},
      // sim, net, wifi
      {"sim.ns_per_event",
       median_of(plain,
                 [](const Iteration& it) {
                   return ratio(it.stage.simulate * 1e9, double(it.events));
                 }),
       "ns"},
      {"sim.events_per_probe",
       per_probe([](const Iteration& it) { return double(it.events); }),
       "count"},
      {"net.copies_per_probe",
       median_of(traced,
                 [](const Iteration& it) {
                   double copies = 0;
                   for (const ShardSpan& span : it.shards) {
                     copies += double(span.packet_copies);
                   }
                   return ratio(copies, double(it.probes));
                 }),
       "count"},
      {"wifi.frames_per_probe",
       per_probe([](const Iteration& it) { return double(it.frames); }),
       "count"},
      // report
      {"report.ckpt_bytes_per_shard", costs.ckpt_bytes_per_shard, "B"},
      {"report.jsonl_bytes_per_probe",
       median_of(plain,
                 [](const Iteration& it) {
                   return ratio(double(it.jsonl_bytes),
                                double(it.jsonl_lines));
                 }),
       "B"},
      {"report.ckpt_render_us", costs.render_us, "us"},
      {"report.ckpt_parse_us", costs.parse_us, "us"},
      {"report.compact_s", costs.compact_s, "s"},
      // stats
      {"stats.digest_fold_us", costs.fold_us, "us"},
      {"stats.heap_bytes_per_shard", costs.heap_bytes_per_shard, "B"},
      // fabric
      {"fabric.leases_granted",
       median_of(plain,
                 [](const Iteration& it) {
                   return double(it.fabric.leases_granted);
                 }),
       "count"},
      {"fabric.leases_expired",
       median_of(plain,
                 [](const Iteration& it) {
                   return double(it.fabric.leases_expired);
                 }),
       "count"},
      {"fabric.duplicate_shards",
       median_of(plain,
                 [](const Iteration& it) {
                   return double(it.fabric.duplicate_shards);
                 }),
       "count"},
      {"fabric.workers_died",
       median_of(plain,
                 [](const Iteration& it) {
                   return double(it.fabric.workers_died);
                 }),
       "count"},
      {"fabric.useful_ratio",
       fabric ? median_of(plain,
                          [](const Iteration& it) {
                            return ratio(double(it.fabric.shards_merged),
                                         double(it.fabric.shards_merged +
                                                it.fabric.duplicate_shards));
                          })
              : 1.0,
       "share"},
      {"fabric.coordinator_cpu_share",
       fabric ? median_of(plain,
                          [](const Iteration& it) {
                            return ratio(it.cpu.self, it.wall_s);
                          })
              : 0.0,
       "share"},
      {"fabric.worker_cpu_share",
       fabric ? median_of(plain,
                          [](const Iteration& it) {
                            return ratio(it.cpu.children,
                                         double(kFabricWorkers) * it.wall_s);
                          })
              : 0.0,
       "share"},
      {"fabric.handshake_s", costs.handshake_s, "s"},
      // process
      {"proc.cpu_util",
       median_of(plain,
                 [cores](const Iteration& it) {
                   return ratio(it.cpu.self + it.cpu.children,
                                it.wall_s * cores);
                 }),
       "share"},
      {"peak_heap_mb",
       median_of(plain,
                 [](const Iteration& it) { return it.peak_heap_bytes / 1e6; }),
       "MB"},
      {"proc.peak_rss_mb", double(self.ru_maxrss) / 1e3, "MB"},
      {"trace.overhead", plain_rate > 0 ? 1.0 - traced_rate / plain_rate : 0.0,
       "share"},
  };
}

void print_json(bool correct, std::size_t attempted, std::size_t failed,
                const std::vector<Metric>& metrics) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g",
                  std::isfinite(metrics[i].value) ? metrics[i].value : 0.0);
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload fleet-mixed|sweep-tiny|sweep-durable|"
               "sweep-fabric --seed N --seconds S --trace 0|1\n"
               "          [--tmp-base DIR] [--trace-out PATH] [--shrink] "
               "[--perturb-reference]\n",
               argv0);
  return 2;
}

int run(const Options& options) {
  // The checkpoint and JSONL files go in a fresh directory, removed below.
  std::string pattern = options.tmp_base + "/perfbench-XXXXXX";
  if (::mkdtemp(pattern.data()) == nullptr) {
    std::fprintf(stderr, "perfbench: cannot create a temp dir in %s\n",
                 options.tmp_base.c_str());
    return 2;
  }
  const std::string tmpdir = pattern;
  struct RemoveDir {
    std::string path;
    ~RemoveDir() {
      std::error_code ignored;
      std::filesystem::remove_all(path, ignored);
    }
  } remove_tmpdir{tmpdir};

  print_host(tmpdir);
  const CampaignSpec spec =
      workload_spec(options.workload, options.seed, options.scale);
  std::string reference = reference_dump(spec);
  if (options.perturb_reference) reference[reference.size() / 2] ^= 1;
  Runner runner(options.workload, spec, tmpdir, std::move(reference));

  std::size_t attempted = 0;
  std::size_t failed = 0;
  bool correct = true;
  auto account = [&](const Iteration& it) {
    attempted += it.attempted;
    if (!it.correct) {
      failed += it.attempted;
      if (correct) {
        std::printf("FAILED: %s\n", it.failure.c_str());
      }
      correct = false;
    }
  };

  // Untimed warm-up: the first run of a batch reads 25-30 % slow.
  account(runner.run(false));

  std::vector<Iteration> plain;
  std::vector<Iteration> traced;
  const std::int64_t start = now_ns();
  const auto deadline = start + std::int64_t(options.seconds * 1e9);
  // Medians need a few samples; the cap keeps a slow host inside its
  // time budget.
  const std::int64_t hard_stop = start + std::int64_t(100e9);
  for (std::size_t k = 0;; ++k) {
    const std::int64_t now = now_ns();
    const bool enough =
        plain.size() >= 3 && (!options.trace || traced.size() >= 2);
    if ((now >= deadline && enough) || now >= hard_stop) break;
    const bool trace_this = options.trace && k % 2 == 1;
    Iteration it = runner.run(trace_this);
    account(it);
    std::printf("  iteration %zu%s: wall %.4f s, set-up %.6f s, %.1f probes/s, "
                "heap peak %.3f MB\n",
                k, trace_this ? " (traced)" : "", it.wall_s, it.setup_s,
                ratio(double(it.probes), it.wall_s), it.peak_heap_bytes / 1e6);
    (trace_this ? traced : plain).push_back(std::move(it));
  }

  const std::vector<Metric> end_to_end = end_to_end_metrics(plain);
  std::vector<Metric> metrics = end_to_end;
  std::printf("workload %s seed %llu: %zu untraced + %zu traced iterations\n",
              workload_name(options.workload),
              static_cast<unsigned long long>(options.seed), plain.size(),
              traced.size());
  if (options.trace) {
    if (traced.empty()) traced.push_back(runner.run(true));
    std::vector<CallSpan> calls = traced.back().calls;
    const LayerCosts costs = measure_layers(runner, options.workload, calls);
    metrics = per_layer_metrics(plain, traced, runner, options.workload, costs);
    if (!options.trace_out.empty()) {
      write_chrome_trace(options.trace_out, start, calls,
                         traced.back().shards);
      std::printf("trace: %s\n", options.trace_out.c_str());
    }
  }
  // The human-readable table: the end-to-end metrics of the untraced
  // iterations always, the per-layer ones when traced.
  std::vector<Metric> table = end_to_end;
  table.push_back({"failed_share", ratio(double(failed), double(attempted)),
                   "share"});
  if (options.trace) table.insert(table.end(), metrics.begin(), metrics.end());
  for (const Metric& metric : table) {
    std::printf("  %-30s %16.6g %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }
  print_json(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", flag.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (flag == "--workload") {
      const auto workload = perfbench::parse_workload(value());
      if (!workload) return perfbench::usage(argv[0]);
      options.workload = *workload;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value().c_str(), nullptr);
    } else if (flag == "--trace") {
      options.trace = value() == "1";
    } else if (flag == "--tmp-base") {
      options.tmp_base = value();
    } else if (flag == "--trace-out") {
      options.trace_out = value();
    } else if (flag == "--shrink") {
      options.scale = perfbench::Scale::shrunk();
    } else if (flag == "--perturb-reference") {
      options.perturb_reference = true;
    } else {
      return perfbench::usage(argv[0]);
    }
  }
  if (!have_workload) return perfbench::usage(argv[0]);
  try {
    return perfbench::run(options);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s\n", error.what());
    return 2;
  }
}
