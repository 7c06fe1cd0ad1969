#include "net/rpc_client.h"

#include <poll.h>

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "net/wire.h"

namespace concord::net {

RpcChannel::RpcChannel(uint64_t client_id, Address server, Options options)
    : client_id_(client_id),
      server_(std::move(server)),
      options_(options),
      backoff_ms_(options.connect_backoff_initial_ms) {
  loop_thread_ = std::thread([this] { loop_.Run(); });
}

RpcChannel::~RpcChannel() { Shutdown(); }

void RpcChannel::Shutdown() {
  {
    MutexLock lock(&mu_);
    if (shut_down_) return;
    shut_down_ = true;
    for (auto& [id, call] : outstanding_) {
      (void)id;
      Fulfill(call, Status::Unavailable("rpc channel shut down"), "");
    }
    outstanding_.clear();
  }
  loop_.Post([this] {
    if (reconnect_timer_ != 0) {
      loop_.CancelTimer(reconnect_timer_);
      reconnect_timer_ = 0;
    }
    if (connect_fd_ >= 0) {
      loop_.UnregisterFd(connect_fd_);
      CloseFd(connect_fd_);
      connect_fd_ = -1;
    }
    MutexLock lock(&mu_);
    if (conn_ != nullptr) {
      conn_->SendFrame(FrameType::kGoodbye, "bye");
      conn_->Close();
    }
  });
  loop_.Stop();
  loop_thread_.join();
}

RpcChannelStats RpcChannel::stats() const {
  RpcChannelStats s;
  s.calls = calls_.load(std::memory_order_relaxed);
  s.retries = retries_.load(std::memory_order_relaxed);
  s.reconnects = reconnects_.load(std::memory_order_relaxed);
  s.timeouts = timeouts_.load(std::memory_order_relaxed);
  s.connect_failures = connect_failures_.load(std::memory_order_relaxed);
  return s;
}

void RpcChannel::Fulfill(const std::shared_ptr<PendingCall>& call,
                         Status status, std::string reply) {
  {
    MutexLock lock(&call->mu);
    if (call->done) return;
    call->done = true;
    call->status = std::move(status);
    call->reply = std::move(reply);
  }
  call->cv.NotifyAll();
}

Result<std::string> RpcChannel::Call(const std::string& method,
                                     const std::string& payload) {
  auto call = std::make_shared<PendingCall>();
  call->method = method;
  call->payload = payload;
  uint64_t call_id;
  {
    MutexLock lock(&mu_);
    if (shut_down_) return Status::Unavailable("rpc channel shut down");
    call_id = next_call_id_++;
    outstanding_[call_id] = call;
    if (state_ == LinkState::kConnected) {
      SendRequest(call_id, *call);
    } else if (state_ == LinkState::kDisconnected) {
      // Connecting is the loop's job; the call goes out with the
      // resend once the link is up.
      loop_.Post([this] {
        MutexLock lock(&mu_);
        EnsureConnected();
      });
    }
  }
  calls_.fetch_add(1, std::memory_order_relaxed);

  bool done;
  {
    MutexLock lock(&call->mu);
    done = call->cv.WaitFor(&call->mu, options_.call_timeout_ms,
                            [&call]() REQUIRES(call->mu) { return call->done; });
  }
  if (!done) {
    timeouts_.fetch_add(1, std::memory_order_relaxed);
    // Abandon: once erased, this id is never retried, so it drops
    // below acked_below and the server may forget it.
    {
      MutexLock lock(&mu_);
      outstanding_.erase(call_id);
    }
    return Status::Unavailable("rpc call timed out after " +
                               std::to_string(options_.call_timeout_ms) +
                               "ms (in doubt)");
  }
  MutexLock lock(&call->mu);
  if (!call->status.ok()) return call->status;
  return call->reply;
}

uint64_t RpcChannel::AckedBelow() const {
  // Call ids are monotonic; everything below the lowest id still
  // outstanding is complete (replied or abandoned) and will never be
  // retried by this channel.
  if (outstanding_.empty()) return next_call_id_;
  return outstanding_.begin()->first;
}

void RpcChannel::SendRequest(uint64_t call_id, const PendingCall& call) {
  RequestEnvelope request;
  request.client_id = client_id_;
  request.call_id = call_id;
  request.acked_below = AckedBelow();
  request.method = call.method;
  request.payload = call.payload;
  if (conn_->SendFrame(FrameType::kRequest, EncodeRequestEnvelope(request))) {
    // Bytes are left over and only the loop may watch for POLLOUT. The
    // task looks the connection up again: this one may be gone by then.
    loop_.Post([this] {
      MutexLock lock(&mu_);
      if (conn_ != nullptr) conn_->WatchWritable();
    });
  }
}

void RpcChannel::EnsureConnected() {
  if (state_ != LinkState::kDisconnected || reconnect_timer_ != 0 ||
      shut_down_) {
    return;
  }
  auto fd = StartConnect(server_);
  if (!fd.ok()) {
    connect_failures_.fetch_add(1, std::memory_order_relaxed);
    ScheduleReconnect();
    return;
  }
  state_ = LinkState::kConnecting;
  connect_fd_ = *fd;
  loop_.RegisterFd(connect_fd_, POLLOUT,
                   [this, fd = *fd](short) { OnConnectResult(fd); });
}

void RpcChannel::OnConnectResult(int fd) {
  loop_.UnregisterFd(fd);
  connect_fd_ = -1;
  Status st = FinishConnect(fd);
  MutexLock lock(&mu_);
  if (!st.ok()) {
    CloseFd(fd);
    connect_failures_.fetch_add(1, std::memory_order_relaxed);
    state_ = LinkState::kDisconnected;
    ScheduleReconnect();
    return;
  }
  state_ = LinkState::kConnected;
  backoff_ms_ = options_.connect_backoff_initial_ms;
  if (connected_once_) {
    reconnects_.fetch_add(1, std::memory_order_relaxed);
  }
  connected_once_ = true;
  conn_ = std::make_unique<FramedConnection>(&loop_, fd);
  conn_->set_on_frame([this](Frame frame) { OnFrame(std::move(frame)); });
  conn_->set_on_closed(
      [this](Status reason) { OnConnectionClosed(std::move(reason)); });
  conn_->Start();
  // Re-send every unreplied call, lowest id first. The server's dedup
  // table answers the ones it already executed.
  for (const auto& [id, call] : outstanding_) SendRequest(id, *call);
  if (!outstanding_.empty() && reconnects_.load(std::memory_order_relaxed) > 0) {
    retries_.fetch_add(outstanding_.size(), std::memory_order_relaxed);
  }
}

void RpcChannel::ScheduleReconnect() {
  if (shut_down_ || reconnect_timer_ != 0) return;
  if (outstanding_.empty()) return;  // reconnect lazily on the next call
  int64_t delay = backoff_ms_;
  backoff_ms_ = std::min(backoff_ms_ * 2, options_.connect_backoff_max_ms);
  reconnect_timer_ = loop_.AddTimer(delay, [this] {
    reconnect_timer_ = 0;
    MutexLock lock(&mu_);
    EnsureConnected();
  });
}

void RpcChannel::OnConnectionClosed(Status reason) {
  MutexLock lock(&mu_);
  ConnectionLost(std::move(reason));
}

void RpcChannel::ConnectionLost(Status reason) {
  state_ = LinkState::kDisconnected;
  // Runs on the connection's own stack — defer the destruction.
  dead_conns_.push_back(std::move(conn_));
  loop_.Post([this] { dead_conns_.clear(); });
  if (!reason.ok()) {
    CONCORD_DEBUG("net", "connection to " << server_.ToString() << " lost: "
                                          << reason.message());
  }
  ScheduleReconnect();
}

void RpcChannel::OnFrame(Frame frame) {
  if (frame.type == FrameType::kGoodbye) {
    // The server is going away; the close path handles reconnects.
    return;
  }
  MutexLock lock(&mu_);
  if (frame.type != FrameType::kReply) {
    conn_->Close();
    ConnectionLost(Status::ProtocolViolation("unexpected frame type"));
    return;
  }
  auto reply = DecodeReplyEnvelope(frame.payload);
  if (!reply.ok()) {
    conn_->Close();
    ConnectionLost(reply.status());
    return;
  }
  auto it = outstanding_.find(reply->call_id);
  if (it == outstanding_.end()) return;  // abandoned (timed out) call
  Fulfill(it->second, std::move(reply->status), std::move(reply->payload));
  outstanding_.erase(it);
}

}  // namespace concord::net
