// Learning Ethernet switch (the testbed's wired fabric, Fig. 2).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "net/link.hpp"
#include "net/node.hpp"

namespace acute::net {

class Switch : public Node {
 public:
  explicit Switch(NodeId id) { reset(id); }

  /// The one setup path (sim/resettable.hpp): no ports, empty learning
  /// table. Port and table storage stay warm.
  void reset(NodeId id) {
    id_ = id;
    ports_.clear();
    table_.clear();
    forwarded_count_ = 0;
    flooded_count_ = 0;
  }

  /// Registers a link as one of the switch ports. The link must have this
  /// switch as one endpoint.
  void attach_port(Link& link);

  void receive(Packet&& packet, Link* ingress) override;

  [[nodiscard]] NodeId id() const override { return id_; }

  /// Number of (address -> port) entries learned so far.
  [[nodiscard]] std::size_t learned_count() const { return table_.size(); }

  [[nodiscard]] std::uint64_t forwarded_count() const {
    return forwarded_count_;
  }
  [[nodiscard]] std::uint64_t flooded_count() const { return flooded_count_; }

 private:
  NodeId id_ = 0;
  std::vector<Link*> ports_;
  // Learned (address -> port) entries. A handful of nodes sit behind this
  // switch, so a flat vector beats a node-based map and re-learning after
  // a reset allocates nothing once the capacity is warm.
  std::vector<std::pair<NodeId, Link*>> table_;
  std::uint64_t forwarded_count_ = 0;
  std::uint64_t flooded_count_ = 0;
};

}  // namespace acute::net
