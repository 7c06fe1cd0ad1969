#ifndef CONCORD_TXN_SHARD_ROUTER_H_
#define CONCORD_TXN_SHARD_ROUTER_H_

#include <utility>
#include <vector>

#include "common/ids.h"
#include "common/result.h"
#include "common/status.h"
#include "txn/placement.h"
#include "txn/server_service.h"

namespace concord::txn {

/// The workstation's view of the server plane: one ServerService per
/// server node, plus the routing rules that pick the node for each
/// request.
///
///  - DOV-addressed requests (checkout) route by the shard index
///    encoded in the DOV id — the id is the address, no lookup, never
///    stale.
///  - DA-addressed requests (checkin, and the Begin-of-DOP home
///    lookup) route by the DA's home node, resolved through the
///    workstation's PlacementClient cache. A stale cache surfaces as
///    kWrongShard from the contacted node; the client-TM forgets the
///    entry and retries.
///
/// The degenerate single-service router (every request to the one
/// node) reproduces the pre-sharding behaviour exactly and never
/// consults a placement client. Copyable by design: non-owning
/// pointers, held by value in the client-TM.
class ShardRouter {
 public:
  ShardRouter() = default;
  /// Single-node plane: everything routes to `service`.
  explicit ShardRouter(ServerService* single) {
    nodes_.emplace_back(single->server_node(), single);
  }
  /// Sharded plane: `nodes` in shard-index order (index 0 = the
  /// coordinator); `placement` resolves DA homes (may be null for a
  /// one-entry list).
  ShardRouter(std::vector<std::pair<NodeId, ServerService*>> nodes,
              PlacementClient* placement)
      : nodes_(std::move(nodes)), placement_(placement) {}

  size_t node_count() const { return nodes_.size(); }
  NodeId node_at(size_t shard) const { return nodes_[shard].first; }
  NodeId coordinator() const { return nodes_.front().first; }

  ServerService* service(NodeId node) const {
    for (const auto& [id, svc] : nodes_) {
      if (id == node) return svc;
    }
    return nodes_.front().second;
  }

  /// Owning node of `dov` straight from the id (out-of-range shard
  /// indices clamp to the coordinator, which answers NotFound).
  NodeId NodeOfDov(DovId dov) const {
    return nodes_[DovShardClamped(dov, nodes_.size())].first;
  }

  /// Pins `da`'s home to the node at `shard` without consulting any
  /// placement authority — static topology configuration for planes
  /// that have no placement service (a concord_client pointed at a
  /// fixed set of concordd processes). Static homes take precedence
  /// over the placement cache and are never forgotten by kWrongShard.
  Status SetStaticHome(DaId da, size_t shard) {
    if (shard >= nodes_.size()) {
      return Status::InvalidArgument("shard index " + std::to_string(shard) +
                                     " out of range (plane has " +
                                     std::to_string(nodes_.size()) +
                                     " nodes)");
    }
    for (auto& [known, node] : static_homes_) {
      if (known == da) {
        node = nodes_[shard].first;
        return Status::OK();
      }
    }
    static_homes_.emplace_back(da, nodes_[shard].first);
    return Status::OK();
  }

  /// Home node of `da` (static pin, else placement cache with one
  /// fetch RPC on a cold miss). Single-node planes and DAs unknown to
  /// the authority route to the coordinator.
  Result<NodeId> HomeOf(DaId da) {
    for (const auto& [known, node] : static_homes_) {
      if (known == da) return node;
    }
    if (nodes_.size() == 1 || placement_ == nullptr) return coordinator();
    auto home = placement_->HomeOf(da);
    if (home.ok()) return *home;
    if (home.status().IsNotFound()) return coordinator();
    return home.status();
  }

  /// Drops the cached placement of `da` after a kWrongShard reply.
  void ForgetPlacement(DaId da) {
    if (placement_ != nullptr) placement_->Forget(da);
  }

 private:
  std::vector<std::pair<NodeId, ServerService*>> nodes_;
  PlacementClient* placement_ = nullptr;
  /// Statically pinned DA homes (copyable with the router; tiny —
  /// linear scan beats a map for the handful of DAs a client drives).
  std::vector<std::pair<DaId, NodeId>> static_homes_;
};

}  // namespace concord::txn

#endif  // CONCORD_TXN_SHARD_ROUTER_H_
