#include "net/rpc_server.h"

#include <poll.h>

#include <algorithm>
#include <optional>

#include "common/logging.h"
#include "net/wire.h"

namespace concord::net {

RpcServer::RpcServer(Address address, Options options)
    : address_(std::move(address)),
      options_(options),
      dedup_(options.dedup_capacity_per_peer) {
  for (int i = 0; i < std::max(1, options_.worker_threads); ++i) {
    loops_.push_back(std::make_unique<Loop>());
  }
}

RpcServer::~RpcServer() { Shutdown(); }

void RpcServer::RegisterMethod(std::string method, Handler handler) {
  methods_[std::move(method)] = std::move(handler);
}

Status RpcServer::Start() {
  CONCORD_ASSIGN_OR_RETURN(listen_fd_, ListenOn(address_, 64, &bound_));
  // Registration happens before Run(), so this is still "loop thread"
  // territory by the EventLoop contract.
  loops_[0]->loop.RegisterFd(listen_fd_, POLLIN,
                             [this](short) { AcceptPending(); });
  for (auto& loop : loops_) {
    loop->thread = std::thread([loop = loop.get()] { loop->loop.Run(); });
  }
  started_ = true;
  CONCORD_INFO("net", "rpc server listening on " << bound_.ToString());
  return Status::OK();
}

void RpcServer::Shutdown() {
  if (!started_ || shut_down_) return;
  shut_down_ = true;
  // Loop 0 goes first: once it is joined nothing more is accepted, and
  // every connection it handed off is queued on its loop ahead of that
  // loop's goodbye. Peers told goodbye retry instead of failing.
  for (size_t i = 0; i < loops_.size(); ++i) {
    Loop& loop = *loops_[i];
    loop.loop.Post([this, &loop, i] {
      if (i == 0) loop.loop.UnregisterFd(listen_fd_);
      for (auto& [id, conn] : loop.conns) {
        (void)id;
        conn->SendFrame(FrameType::kGoodbye, "bye");
      }
    });
    loop.loop.Stop();
    loop.thread.join();
  }
  for (auto& loop : loops_) loop->conns.clear();
  CloseFd(listen_fd_);
  listen_fd_ = -1;
}

RpcServerStats RpcServer::stats() const {
  RpcServerStats s;
  s.requests_received = requests_received_.load(std::memory_order_relaxed);
  s.requests_executed = requests_executed_.load(std::memory_order_relaxed);
  s.dedup_hits = dedup_.stats().hits;
  s.duplicate_in_flight =
      duplicate_in_flight_.load(std::memory_order_relaxed);
  s.protocol_errors = protocol_errors_.load(std::memory_order_relaxed);
  return s;
}

void RpcServer::AcceptPending() {
  for (;;) {
    auto fd = AcceptOn(listen_fd_);
    if (!fd.ok()) {
      if (!fd.status().IsUnavailable()) {
        CONCORD_WARN("net", "accept failed: " << fd.status().message());
      }
      return;
    }
    uint64_t conn_id = next_conn_id_++;
    Loop& owner = LoopOf(conn_id);
    if (&owner == loops_[0].get()) {
      Adopt(owner, conn_id, *fd);
    } else {
      owner.loop.Post(
          [this, &owner, conn_id, fd = *fd] { Adopt(owner, conn_id, fd); });
    }
  }
}

void RpcServer::Adopt(Loop& loop, uint64_t conn_id, int fd) {
  auto conn = std::make_unique<FramedConnection>(&loop.loop, fd);
  conn->set_on_frame([this, &loop, conn_id](Frame frame) {
    OnFrame(loop, conn_id, std::move(frame));
  });
  conn->set_on_closed([this, &loop, conn_id](Status reason) {
    // Framing violations (bad magic/type/length/CRC) surface here —
    // the decoder tears the connection down before any frame exists.
    if (reason.IsProtocolViolation()) {
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    }
    // A reply still owed to this connection finds it gone and is
    // dropped; connection ids are never reused.
    loop.loop.Post([&loop, conn_id] { loop.conns.erase(conn_id); });
  });
  conn->Start();
  loop.conns[conn_id] = std::move(conn);
}

void RpcServer::Drop(Loop& loop, uint64_t conn_id) {
  auto it = loop.conns.find(conn_id);
  if (it != loop.conns.end()) it->second->Close();
  loop.loop.Post([&loop, conn_id] { loop.conns.erase(conn_id); });
}

void RpcServer::OnFrame(Loop& loop, uint64_t conn_id, Frame frame) {
  if (frame.type == FrameType::kGoodbye) return;  // EOF follows
  auto conn_it = loop.conns.find(conn_id);
  if (conn_it == loop.conns.end()) return;
  FramedConnection* conn = conn_it->second.get();
  if (frame.type != FrameType::kRequest) {
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    Drop(loop, conn_id);
    return;
  }
  auto request = DecodeRequestEnvelope(frame.payload);
  if (!request.ok()) {
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    CONCORD_WARN("net", "tearing down connection: "
                            << request.status().message());
    Drop(loop, conn_id);
    return;
  }
  requests_received_.fetch_add(1, std::memory_order_relaxed);
  if (request->acked_below > 0) {
    dedup_.PruneBelow(request->client_id, request->acked_below);
  }
  std::pair<uint64_t, uint64_t> key{request->client_id, request->call_id};
  std::optional<std::string> cached;
  {
    MutexLock lock(&in_flight_mu_);
    // Still executing (e.g. the client reconnected and retried while
    // another loop runs the original): attach to that execution.
    auto in_flight_it = in_flight_.find(key);
    if (in_flight_it != in_flight_.end()) {
      duplicate_in_flight_.fetch_add(1, std::memory_order_relaxed);
      auto& waiters = in_flight_it->second;
      if (std::find(waiters.begin(), waiters.end(), conn_id) ==
          waiters.end()) {
        waiters.push_back(conn_id);
      }
      return;
    }
    // At-most-once: a completed call replays its recorded reply.
    // Completion records the reply before it leaves in_flight_, so
    // under this lock a call is found in one table or the other.
    cached = dedup_.Lookup(request->client_id, request->call_id);
    if (!cached) in_flight_.emplace(key, std::vector<uint64_t>{conn_id});
  }
  if (cached) {
    conn->SendFrame(FrameType::kReply, *cached);
    return;
  }
  Execute(loop, request->client_id, request->call_id, request->method,
          request->payload);
}

void RpcServer::Execute(Loop& loop, uint64_t client_id, uint64_t call_id,
                        const std::string& method,
                        const std::string& payload) {
  ReplyEnvelope reply;
  reply.call_id = call_id;
  auto method_it = methods_.find(method);
  if (method_it == methods_.end()) {
    reply.status = Status::NotFound("unknown rpc method '" + method + "'");
  } else {
    auto result = method_it->second(payload);
    if (result.ok()) {
      reply.payload = std::move(*result);
    } else {
      reply.status = result.status();
    }
  }
  requests_executed_.fetch_add(1, std::memory_order_relaxed);
  std::string encoded = EncodeReplyEnvelope(reply);
  std::vector<uint64_t> waiters;
  {
    MutexLock lock(&in_flight_mu_);
    // Record first, send second: if the send races a connection drop
    // the client's retry still finds the recorded outcome.
    dedup_.Insert(client_id, call_id, encoded);
    auto it = in_flight_.find({client_id, call_id});
    waiters = std::move(it->second);
    in_flight_.erase(it);
  }
  for (uint64_t waiter : waiters) {
    Loop& owner = LoopOf(waiter);
    if (&owner == &loop) {
      SendReply(loop, waiter, encoded);
    } else {
      owner.loop.Post([this, &owner, waiter, encoded] {
        SendReply(owner, waiter, encoded);
      });
    }
  }
}

void RpcServer::SendReply(Loop& loop, uint64_t conn_id,
                          const std::string& encoded) {
  auto it = loop.conns.find(conn_id);
  if (it == loop.conns.end()) return;
  it->second->SendFrame(FrameType::kReply, encoded);
}

}  // namespace concord::net
