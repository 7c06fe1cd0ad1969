#include "net/connection.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "net/address.h"

namespace concord::net {

FramedConnection::FramedConnection(EventLoop* loop, int fd)
    : loop_(loop), fd_(fd) {}

FramedConnection::~FramedConnection() { Close(); }

void FramedConnection::Start() {
  int fd;
  {
    MutexLock lock(&mu_);
    fd = fd_;
  }
  loop_->RegisterFd(fd, POLLIN, [this](short events) { HandleEvents(events); });
}

void FramedConnection::Close() {
  int fd;
  {
    MutexLock lock(&mu_);
    fd = fd_;
    fd_ = -1;
    outbound_.clear();
    outbound_offset_ = 0;
  }
  if (fd < 0) return;
  loop_->UnregisterFd(fd);
  CloseFd(fd);
}

bool FramedConnection::closed() const {
  MutexLock lock(&mu_);
  return fd_ < 0;
}

void FramedConnection::Fail(Status reason) {
  if (closed()) return;
  Close();
  if (on_closed_) {
    // The handler may destroy this connection; detach it first and
    // touch nothing afterwards.
    ClosedHandler handler = std::move(on_closed_);
    on_closed_ = nullptr;
    handler(std::move(reason));
  }
}

void FramedConnection::WatchWritable() {
  MutexLock lock(&mu_);
  WatchWritableLocked();
}

void FramedConnection::WatchWritableLocked() {
  if (fd_ < 0) return;
  short events = POLLIN;
  if (outbound_.size() > outbound_offset_) events |= POLLOUT;
  loop_->UpdateEvents(fd_, events);
}

void FramedConnection::HandleEvents(short events) {
  // Read first even on POLLERR/POLLHUP: the kernel may still hold
  // buffered bytes (including the peer's goodbye frame).
  if (events & (POLLIN | POLLERR | POLLHUP)) {
    HandleReadable();
    if (closed()) return;
  }
  if (events & POLLOUT) {
    HandleWritable();
  }
}

void FramedConnection::HandleReadable() {
  // Only this thread closes the fd, so the copy stays valid until a
  // handler closes us — checked after every frame.
  int fd;
  {
    MutexLock lock(&mu_);
    fd = fd_;
  }
  if (fd < 0) return;
  char buf[16384];
  for (;;) {
    ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n > 0) {
      decoder_.Feed(std::string_view(buf, static_cast<size_t>(n)));
      for (;;) {
        auto frame = decoder_.Next();
        if (!frame.ok()) {
          if (frame.status().IsUnavailable()) break;  // need more bytes
          Fail(frame.status());
          return;
        }
        if (frame->type == FrameType::kGoodbye) {
          peer_said_goodbye_ = true;
        }
        if (on_frame_) on_frame_(std::move(*frame));
        if (closed()) return;  // handler closed us
      }
      continue;
    }
    if (n == 0) {
      Fail(peer_said_goodbye_
               ? Status::OK()
               : Status::Unavailable("peer closed connection"));
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    if (errno == EINTR) continue;
    Fail(Status::Unavailable(std::string("read: ") + std::strerror(errno)));
    return;
  }
}

Status FramedConnection::FlushLocked() {
  while (outbound_.size() > outbound_offset_) {
    ssize_t n = ::send(fd_, outbound_.data() + outbound_offset_,
                       outbound_.size() - outbound_offset_, MSG_NOSIGNAL);
    if (n > 0) {
      outbound_offset_ += static_cast<size_t>(n);
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    return Status::Unavailable(std::string("write: ") + std::strerror(errno));
  }
  if (outbound_offset_ == outbound_.size()) {
    outbound_.clear();
    outbound_offset_ = 0;
  } else if (outbound_offset_ > 65536) {
    outbound_.erase(0, outbound_offset_);
    outbound_offset_ = 0;
  }
  return Status::OK();
}

void FramedConnection::HandleWritable() {
  Status written;
  {
    MutexLock lock(&mu_);
    if (fd_ < 0) return;
    written = FlushLocked();
    if (written.ok()) WatchWritableLocked();
  }
  if (!written.ok()) Fail(std::move(written));
}

bool FramedConnection::SendFrame(FrameType type, std::string_view payload) {
  MutexLock lock(&mu_);
  if (fd_ < 0) return false;
  AppendFrame(&outbound_, type, payload);
  if (!FlushLocked().ok()) {
    // The read side now sees EOF, so the loop reports the close.
    ::shutdown(fd_, SHUT_RDWR);
    return false;
  }
  if (outbound_.size() == outbound_offset_) return false;
  if (!loop_->OnLoopThread()) return true;
  WatchWritableLocked();
  return false;
}

}  // namespace concord::net
