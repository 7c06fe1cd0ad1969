#ifndef CONCORD_NET_RPC_SERVER_H_
#define CONCORD_NET_RPC_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/sync.h"
#include "net/address.h"
#include "net/connection.h"
#include "net/event_loop.h"
#include "rpc/dedup_cache.h"

namespace concord::net {

struct RpcServerStats {
  uint64_t requests_received = 0;
  uint64_t requests_executed = 0;
  uint64_t dedup_hits = 0;
  uint64_t duplicate_in_flight = 0;
  uint64_t protocol_errors = 0;
};

/// Socket-facing RPC server: accepts framed connections on one listen
/// address, decodes request envelopes, and executes registered method
/// handlers with at-most-once semantics per (client_id, call_id).
///
/// Threading: run to completion. The server runs `worker_threads`
/// event-loop threads, and loop 0 also owns the listener, which hands
/// each accepted connection to one loop (round robin). That loop reads
/// the connection's requests, checks the shared DedupCache, runs the
/// handler and writes the reply, so a request never changes thread. A
/// handler that blocks holds up the other connections of its loop (on
/// loop 0, new connections too), never those of another loop.
///
/// The in-flight table is shared by all loops under a mutex: a retry
/// that arrives on another connection while the call is still running
/// attaches to that execution instead of re-executing, and the reply
/// is posted to the loop of each waiting connection.
///
/// At-most-once holds per server incarnation: the dedup table is in
/// memory, so a kill -9 erases it and a retried call from before the
/// crash may re-execute. The transaction layer is what makes that safe
/// (idempotent Decide, WAL-recovered prepared state); see
/// docs/TRANSPORT.md.
class RpcServer {
 public:
  using Handler = std::function<Result<std::string>(const std::string&)>;

  struct Options {
    /// Event-loop threads, each running the handlers of its own
    /// connections (at least one).
    int worker_threads = 2;
    /// Per-client cached-reply bound (rpc::DedupCache).
    size_t dedup_capacity_per_peer = 1024;
  };

  explicit RpcServer(Address address)
      : RpcServer(std::move(address), Options()) {}
  RpcServer(Address address, Options options);
  ~RpcServer();
  RpcServer(const RpcServer&) = delete;
  RpcServer& operator=(const RpcServer&) = delete;

  /// Register before Start(); the method table is immutable afterwards.
  void RegisterMethod(std::string method, Handler handler);

  /// Binds, listens, and spins up the loop threads.
  Status Start();

  /// Graceful: stops accepting, lets each loop finish the handler it
  /// is running, sends kGoodbye on every open connection and joins the
  /// loop threads. Idempotent.
  void Shutdown();

  /// Valid after Start(); ephemeral TCP ports are resolved here.
  const Address& bound_address() const { return bound_; }

  RpcServerStats stats() const;
  const rpc::DedupCache& dedup() const { return dedup_; }

 private:
  /// One event-loop thread and the connections handed to it.
  struct Loop {
    EventLoop loop;
    std::thread thread;
    /// Touched only on `thread` (and after it is joined).
    std::unordered_map<uint64_t, std::unique_ptr<FramedConnection>> conns;
  };

  Loop& LoopOf(uint64_t conn_id) {
    return *loops_[conn_id % loops_.size()];
  }

  // Each runs on the thread of the loop named (loop 0 for the accept).
  void AcceptPending();
  void Adopt(Loop& loop, uint64_t conn_id, int fd);
  void OnFrame(Loop& loop, uint64_t conn_id, Frame frame);
  void Execute(Loop& loop, uint64_t client_id, uint64_t call_id,
               const std::string& method, const std::string& payload);
  void SendReply(Loop& loop, uint64_t conn_id, const std::string& encoded);
  /// Closes the connection; destruction waits one loop iteration,
  /// since this runs on the connection's own stack.
  void Drop(Loop& loop, uint64_t conn_id);

  const Address address_;
  const Options options_;
  Address bound_;
  int listen_fd_ = -1;
  bool started_ = false;
  bool shut_down_ = false;

  std::vector<std::unique_ptr<Loop>> loops_;
  uint64_t next_conn_id_ = 1;  // loop 0 only
  std::unordered_map<std::string, Handler> methods_;

  rpc::DedupCache dedup_;

  /// Taken before the DedupCache's own mutex: a call is looked up in,
  /// and completed into, both tables under it.
  Mutex in_flight_mu_;
  /// (client, call) → connections waiting on the running execution.
  std::map<std::pair<uint64_t, uint64_t>, std::vector<uint64_t>> in_flight_
      GUARDED_BY(in_flight_mu_);

  std::atomic<uint64_t> requests_received_{0};
  std::atomic<uint64_t> requests_executed_{0};
  std::atomic<uint64_t> duplicate_in_flight_{0};
  std::atomic<uint64_t> protocol_errors_{0};
};

}  // namespace concord::net

#endif  // CONCORD_NET_RPC_SERVER_H_
