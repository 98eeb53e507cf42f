#include "fabric/coordinator.hpp"

#include <poll.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <exception>
#include <map>
#include <utility>

#include "fabric/wire.hpp"
#include "report/checkpoint.hpp"
#include "sim/contracts.hpp"
#include "testbed/merge_frontier.hpp"

namespace acute::fabric {

using sim::expects;

namespace {

std::uint64_t now_ms() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

/// One connected worker: its transport and frame reader, handshake
/// progress and the leases it holds.
struct Coordinator::Conn {
  explicit Conn(std::unique_ptr<Transport> endpoint)
      : transport(std::move(endpoint)), reader(*transport) {}

  std::unique_ptr<Transport> transport;
  FrameReader reader;
  enum class State { handshaking, active, parked } state = State::handshaking;
  /// Every lease granted to this worker that it has not yet closed with
  /// lease_done, by id, with its range. An expired lease stays here: the
  /// stalled worker still runs it, and its late frames for it are not a
  /// protocol violation. A frame naming any other lease is.
  std::map<std::uint64_t, Lease> leases;
  std::size_t id = 0;  // stable worker number, for the log
  bool dead = false;
};

Coordinator::Coordinator(testbed::CampaignSpec spec, CoordinatorConfig config)
    : campaign_(std::move(spec)), config_(config) {}

testbed::CampaignReport Coordinator::run(
    std::vector<std::unique_ptr<Transport>> workers, UnixListener* listener) {
  const testbed::CampaignSpec& spec = campaign_.spec();
  const std::size_t shard_count = campaign_.scenario_count();
  // O(shards) to compute, so hash once here, not per hello.
  const std::uint64_t campaign_hash = spec.spec_hash();
  auto log = [this](const std::string& line) {
    if (config_.log != nullptr) {
      *config_.log << "fabric coordinator: " << line << std::endl;
    }
  };

  // Coordinator resume is Campaign::run's: a killed coordinator loses
  // nothing but in-flight leases. Restored shards feed the fold from the
  // compacted checkpoint, the pending ones become leasable.
  testbed::CampaignReport report;
  report.totals.shard_count = shard_count;
  testbed::ResumePlan plan = testbed::plan_resume(campaign_);
  report.stage.restore = plan.restore_seconds;
  if (plan.restored_count > 0) {
    log("restored " + std::to_string(plan.restored_count) +
        " shards from checkpoint");
  }
  std::vector<bool> leasable(shard_count, false);
  for (const std::size_t index : plan.pending) leasable[index] = true;
  std::unique_ptr<report::CheckpointWriter> checkpoint =
      std::move(plan.checkpoint);
  testbed::MergeFrontier frontier(std::move(plan.slots),
                                  std::move(plan.restored), report.totals);
  LeaseTable table(std::move(leasable), config_.lease);

  std::vector<std::unique_ptr<Conn>> conns;
  std::size_t next_worker_id = 0;
  for (std::unique_ptr<Transport>& transport : workers) {
    auto conn = std::make_unique<Conn>(std::move(transport));
    conn->id = next_worker_id++;
    conns.push_back(std::move(conn));
  }

  // Grants one lease (or parks the worker) — the only way work leaves the
  // table. Throws whatever the transport throws; callers route that to the
  // death path.
  auto try_grant = [&](Conn& conn) {
    const std::optional<Lease> lease = table.grant(now_ms());
    if (!lease.has_value()) {
      write_frame(*conn.transport, FrameType::idle);
      conn.state = Conn::State::parked;
      return;
    }
    LeaseGrantBody body{lease->id, lease->begin, lease->end};
    try {
      write_frame(*conn.transport, FrameType::lease_grant,
                  encode_lease_grant(body));
    } catch (...) {
      // The worker died between asking and receiving: the grant never
      // reached anyone, so reclaim it NOW instead of waiting out a
      // deadline nobody will ever heartbeat.
      table.revoke(lease->id);
      log("worker " + std::to_string(conn.id) +
          " died before receiving lease " + std::to_string(lease->id) +
          "; re-leasing [" + std::to_string(lease->begin) + ", " +
          std::to_string(lease->end) + ")");
      throw;
    }
    conn.leases.emplace(lease->id, *lease);
    conn.state = Conn::State::active;
    ++stats_.leases_granted;
  };

  auto bury = [&](Conn& conn, const char* cause) {
    conn.dead = true;
    std::size_t returned = 0;
    for (const auto& [id, lease] : conn.leases) {
      const std::size_t before = table.pending_count();
      table.revoke(id);
      returned += table.pending_count() - before;
    }
    const bool had_leases = !conn.leases.empty();
    conn.leases.clear();
    if (conn.state != Conn::State::handshaking || had_leases) {
      ++stats_.workers_died;
    }
    log("worker " + std::to_string(conn.id) + " " + cause +
        (returned > 0
             ? "; re-leasing " + std::to_string(returned) + " shards"
             : ""));
  };

  // The lease `lease_id` as `conn` holds it; a protocol violation when it
  // was never granted to `conn` or is already closed — a peer must not
  // extend, finish or complete another worker's lease.
  auto held_lease = [](Conn& conn, std::uint64_t lease_id) {
    const auto it = conn.leases.find(lease_id);
    expects(it != conn.leases.end(),
            "fabric coordinator: frame names a lease the worker does not "
            "hold");
    return it;
  };

  // Handles one frame from `conn`; throws on protocol violations (the
  // caller buries the worker).
  auto handle_frame = [&](Conn& conn, const FrameView& frame) {
    // hello comes first and only once: a peer that has not proven it holds
    // this campaign must not get records folded or leases returned.
    expects((frame.type == FrameType::hello) ==
                (conn.state == Conn::State::handshaking),
            "fabric coordinator: frame out of handshake order");
    switch (frame.type) {
      case FrameType::hello: {
        const HelloBody hello = decode_hello(frame.payload);
        std::string why;
        if (hello.protocol != kProtocolVersion) {
          why = "protocol version mismatch";
        } else if (hello.spec_hash != campaign_hash) {
          why = "campaign spec (grid) hash mismatch";
        } else if (hello.seed != spec.seed) {
          why = "campaign seed mismatch";
        } else if (hello.shard_count != shard_count) {
          why = "shard count mismatch";
        }
        if (!why.empty()) {
          ++stats_.workers_rejected;
          log("REJECTED worker " + std::to_string(conn.id) + ": " + why);
          write_frame(*conn.transport, FrameType::reject, why);
          conn.dead = true;
          return;
        }
        ++stats_.workers_joined;
        log("worker " + std::to_string(conn.id) + " joined");
        write_frame(*conn.transport, FrameType::hello_ok);
        conn.state = Conn::State::active;
        break;
      }
      case FrameType::lease_request:
        try_grant(conn);
        break;
      case FrameType::heartbeat:
        // False (unknown to the table) means the lease already expired and
        // was re-leased; the stalled worker's completions arrive as
        // harmless duplicates, so nothing to do here.
        (void)table.heartbeat(
            held_lease(conn, decode_lease_id(frame.payload))->first,
            now_ms());
        break;
      case FrameType::shard_done: {
        const auto [lease_id, line] = split_shard_done(frame.payload);
        const Lease& lease = held_lease(conn, lease_id)->second;
        report::ShardCheckpoint record;
        expects(report::parse_checkpoint_record(line, record),
                "fabric coordinator: shard_done carried a torn record");
        campaign_.check_record(record);
        const std::size_t index = record.summary.info.scenario_index;
        expects(index >= lease.begin && index < lease.end,
                "fabric coordinator: shard_done outside its lease's range");
        // Checkpoint first (matching the single-process sink order:
        // durable before merged), every arrival — compaction's last-wins
        // rule collapses duplicates exactly as it does for a re-run shard.
        // The line goes to disk as the worker rendered it: it just parsed,
        // and the handshake pinned the worker's renderer (docs/fabric.md).
        if (checkpoint != nullptr) checkpoint->append_line(line);
        if (table.complete(index)) {
          frontier.submit(index, std::move(record));
          ++stats_.shards_merged;
        } else {
          // The re-lease race: another worker already delivered this index.
          // Determinism makes both copies bit-identical, so dropping the
          // late one loses nothing.
          ++stats_.duplicate_shards;
          log("duplicate completion of shard " + std::to_string(index) +
              " (re-lease race; merged copy wins)");
        }
        break;
      }
      case FrameType::lease_done: {
        const auto held = held_lease(conn, decode_lease_id(frame.payload));
        table.finish(held->first);
        conn.leases.erase(held);
        break;
      }
      default:
        expects(false, "fabric coordinator: unexpected frame from worker");
    }
  };

  // One recv from `conn`, then every complete frame it buffered; throws on
  // torn frames and protocol violations (the caller buries the worker).
  auto serve = [&](Conn& conn) {
    if (!conn.reader.fill()) {
      bury(conn, "closed its connection");
      return;
    }
    FrameView frame;
    while (!conn.dead && !table.all_complete() && conn.reader.next(frame)) {
      handle_frame(conn, frame);
    }
  };

  while (!table.all_complete()) {
    // Expired leases (stalled or slow workers) go back to pending with
    // backoff; their holders keep running — late results dedupe, and the
    // holder's Conn keeps the lease until its lease_done.
    for (const Lease& lease : table.expire(now_ms())) {
      ++stats_.leases_expired;
      log("lease " + std::to_string(lease.id) + " [" +
          std::to_string(lease.begin) + ", " + std::to_string(lease.end) +
          ") expired without heartbeat; re-leasing");
    }

    // Push re-queued work to parked workers instead of waiting for them to
    // ask again (they block after idle by design).
    for (std::unique_ptr<Conn>& conn : conns) {
      if (conn->dead || conn->state != Conn::State::parked) continue;
      if (table.pending_count() == 0) break;
      try {
        try_grant(*conn);
      } catch (const sim::ContractViolation&) {
        bury(*conn, "died while being granted a lease");
      }
    }
    conns.erase(std::remove_if(conns.begin(), conns.end(),
                               [](const std::unique_ptr<Conn>& conn) {
                                 return conn->dead;
                               }),
                conns.end());
    if (table.all_complete()) break;
    expects(!conns.empty() || listener != nullptr,
            "fabric coordinator: every worker is gone (and no listener "
            "remains) with shards still pending");

    std::vector<pollfd> fds;
    std::vector<Conn*> fd_conns;
    if (listener != nullptr) {
      fds.push_back(pollfd{listener->fd(), POLLIN, 0});
      fd_conns.push_back(nullptr);
    }
    for (std::unique_ptr<Conn>& conn : conns) {
      fds.push_back(pollfd{conn->transport->fd(), POLLIN, 0});
      fd_conns.push_back(conn.get());
    }
    int timeout = -1;
    if (const auto deadline = table.next_deadline_ms(); deadline.has_value()) {
      const std::uint64_t now = now_ms();
      timeout = *deadline <= now
                    ? 0
                    : static_cast<int>(std::min<std::uint64_t>(
                          *deadline - now, 60'000));
    }
    const int ready = ::poll(fds.data(), fds.size(), timeout);
    expects(ready >= 0 || errno == EINTR, "fabric coordinator: poll failed");
    if (ready <= 0) continue;  // timeout: loop to expire leases

    for (std::size_t i = 0; i < fds.size(); ++i) {
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      if (fd_conns[i] == nullptr) {
        auto conn = std::make_unique<Conn>(listener->accept());
        conn->id = next_worker_id++;
        conns.push_back(std::move(conn));
        continue;
      }
      Conn& conn = *fd_conns[i];
      if (conn.dead) continue;
      try {
        serve(conn);
      } catch (const sim::ContractViolation& violation) {
        // Torn frame / malformed record: that worker is compromised, the
        // campaign is not. Loud, buried, work re-leased.
        log(std::string("worker ") + std::to_string(conn.id) +
            " sent a torn or invalid frame: " + violation.what());
        bury(conn, "is being dropped after a torn frame");
      }
      if (table.all_complete()) break;
    }
    conns.erase(std::remove_if(conns.begin(), conns.end(),
                               [](const std::unique_ptr<Conn>& conn) {
                                 return conn->dead;
                               }),
                conns.end());
  }

  // Campaign complete: release the fleet (best effort — a worker killed
  // between its last shard and here is indistinguishable from one that
  // left) and seal the merge + checkpoint.
  for (std::unique_ptr<Conn>& conn : conns) {
    try {
      write_frame(*conn->transport, FrameType::shutdown);
    } catch (const sim::ContractViolation&) {
      // Already gone; the work is done, nothing to re-lease.
    }
  }
  frontier.finalize();
  report.stage.merge = frontier.fold_seconds();
  if (checkpoint != nullptr) {
    checkpoint.reset();  // flush before the compaction rewrite
    report::compact_checkpoint(spec.checkpoint_path);
  }
  log("campaign complete: " + std::to_string(report.totals.completed) +
      "/" + std::to_string(shard_count) + " shards merged, " +
      std::to_string(stats_.leases_granted) + " leases, " +
      std::to_string(stats_.duplicate_shards) + " duplicates");
  return report;
}

}  // namespace acute::fabric
