#ifndef CONCORD_NET_RPC_CLIENT_H_
#define CONCORD_NET_RPC_CLIENT_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/sync.h"
#include "net/address.h"
#include "net/connection.h"
#include "net/event_loop.h"

namespace concord::net {

struct RpcChannelStats {
  uint64_t calls = 0;
  uint64_t retries = 0;     // envelopes re-sent after a reconnect
  uint64_t reconnects = 0;  // successful connects after the first
  uint64_t timeouts = 0;
  uint64_t connect_failures = 0;
};

/// Client end of the socket RPC transport: one channel per server
/// address, carrying synchronous Call()s from any number of threads.
///
/// Each Call() records its pending call and writes the request frame on
/// the calling thread, under the channel mutex; a partial write leaves
/// the rest to the loop's POLLOUT handling. The channel's private event
/// loop reads the replies and hands each to its waiting caller, and it
/// does all connection management, which is fully automatic: the first call connects lazily; a broken connection
/// (peer death, network error, server kGoodbye) moves every unreplied
/// call back to the resend queue and reconnects with exponential
/// backoff (connect_backoff_initial_ms doubling to _max_ms). Because
/// call ids are monotonic and the server deduplicates on
/// (client_id, call_id), re-sending after reconnect is safe: a call
/// the server already executed is answered from its dedup cache, not
/// run twice. Each request piggybacks acked_below — the lowest call id
/// this channel may still retry — letting the server prune its cache.
///
/// A Call that outlives its deadline fails with kUnavailable and is
/// never retried again by this channel (its id is then below
/// acked_below); the caller decides what an in-doubt outcome means —
/// exactly the contract ClientTm already implements for the simulated
/// transport.
class RpcChannel {
 public:
  struct Options {
    int64_t call_timeout_ms = 10000;
    int64_t connect_backoff_initial_ms = 10;
    int64_t connect_backoff_max_ms = 1000;
  };

  /// `client_id` must be unique among clients of the target server —
  /// it keys the server's at-most-once table.
  RpcChannel(uint64_t client_id, Address server)
      : RpcChannel(client_id, std::move(server), Options()) {}
  RpcChannel(uint64_t client_id, Address server, Options options);
  ~RpcChannel();
  RpcChannel(const RpcChannel&) = delete;
  RpcChannel& operator=(const RpcChannel&) = delete;

  /// Synchronous call; thread-safe. OK with the reply payload,
  /// the handler's typed error, or kUnavailable on timeout/shutdown.
  Result<std::string> Call(const std::string& method,
                           const std::string& payload);

  /// Fails outstanding calls, closes the connection, joins the loop
  /// thread. Idempotent; also run by the destructor.
  void Shutdown();

  RpcChannelStats stats() const;
  uint64_t client_id() const { return client_id_; }

 private:
  enum class LinkState { kDisconnected, kConnecting, kConnected };

  /// One in-flight call, shared between the calling thread (sends,
  /// waits) and the loop thread (resends, fulfills).
  struct PendingCall {
    std::string method;
    std::string payload;
    Mutex mu;
    CondVar cv;
    bool done GUARDED_BY(mu) = false;
    Status status GUARDED_BY(mu) = Status::OK();
    std::string reply GUARDED_BY(mu);
  };

  // Loop thread.
  void EnsureConnected() REQUIRES(mu_);
  void OnConnectResult(int fd) EXCLUDES(mu_);
  void ScheduleReconnect() REQUIRES(mu_);
  void OnConnectionClosed(Status reason) EXCLUDES(mu_);
  void ConnectionLost(Status reason) REQUIRES(mu_);
  void OnFrame(Frame frame) EXCLUDES(mu_);
  // Any thread.
  void SendRequest(uint64_t call_id, const PendingCall& call) REQUIRES(mu_);
  uint64_t AckedBelow() const REQUIRES(mu_);
  static void Fulfill(const std::shared_ptr<PendingCall>& call, Status status,
                      std::string reply);

  const uint64_t client_id_;
  const Address server_;
  const Options options_;

  EventLoop loop_;
  std::thread loop_thread_;

  /// Guards the link and the calls on it. Callers register and send
  /// under it; the loop thread connects, resends and completes calls
  /// under it. Taken before a FramedConnection's and a PendingCall's
  /// own mutex.
  mutable Mutex mu_;
  bool shut_down_ GUARDED_BY(mu_) = false;
  uint64_t next_call_id_ GUARDED_BY(mu_) = 1;
  LinkState state_ GUARDED_BY(mu_) = LinkState::kDisconnected;
  std::unique_ptr<FramedConnection> conn_ GUARDED_BY(mu_);
  /// Ordered: resend after reconnect walks ids low → high.
  std::map<uint64_t, std::shared_ptr<PendingCall>> outstanding_
      GUARDED_BY(mu_);

  // Loop-thread-only.
  int connect_fd_ = -1;
  std::vector<std::unique_ptr<FramedConnection>> dead_conns_;
  int64_t backoff_ms_ = 0;
  EventLoop::TimerId reconnect_timer_ = 0;
  bool connected_once_ = false;

  std::atomic<uint64_t> calls_{0};
  std::atomic<uint64_t> retries_{0};
  std::atomic<uint64_t> reconnects_{0};
  std::atomic<uint64_t> timeouts_{0};
  std::atomic<uint64_t> connect_failures_{0};
};

}  // namespace concord::net

#endif  // CONCORD_NET_RPC_CLIENT_H_
