#ifndef CONCORD_NET_CONNECTION_H_
#define CONCORD_NET_CONNECTION_H_

#include <functional>
#include <string>
#include <string_view>

#include "common/status.h"
#include "common/sync.h"
#include "net/event_loop.h"
#include "net/frame.h"

namespace concord::net {

/// One established stream socket carrying frames, owned by an
/// EventLoop. The loop thread does all reading: the connection
/// registers its fd, reassembles inbound frames through a FrameDecoder
/// and fires the handlers. Writing is open to any thread: SendFrame
/// appends to an outbound buffer and writes what the socket takes at
/// once, under a mutex that also guards the fd against a concurrent
/// close; a partial write leaves the rest queued behind a POLLOUT watch
/// that only the loop thread arms.
///
/// Lifecycle: the owner constructs with an fd it already owns (accepted
/// or connected), then Start() registers with the loop. Close() (or a
/// read/write/framing error seen on the loop → on_closed) unregisters
/// and closes the fd. on_closed is invoked at most once, on the loop
/// thread, with no lock of this connection held; after it fires the
/// owner is expected to destroy the connection (possibly re-entrantly
/// from the callback, which is safe — the connection touches no
/// members after invoking it).
class FramedConnection {
 public:
  using FrameHandler = std::function<void(Frame frame)>;
  /// `reason` is OK for a clean peer close after kGoodbye, else the
  /// read/write/framing error.
  using ClosedHandler = std::function<void(Status reason)>;

  FramedConnection(EventLoop* loop, int fd);
  ~FramedConnection();
  FramedConnection(const FramedConnection&) = delete;
  FramedConnection& operator=(const FramedConnection&) = delete;

  void set_on_frame(FrameHandler handler) { on_frame_ = std::move(handler); }
  void set_on_closed(ClosedHandler handler) {
    on_closed_ = std::move(handler);
  }

  /// Loop thread: registers with the event loop. Call after the
  /// handlers are set.
  void Start();

  /// Any thread: queues one frame and writes as much as the socket
  /// accepts now. Never fires on_closed — a write error shuts the
  /// socket down, and the loop's read path reports the close. Returns
  /// true when bytes stay queued and the caller is off the loop
  /// thread: the owner must then have the loop call WatchWritable().
  bool SendFrame(FrameType type, std::string_view payload) EXCLUDES(mu_);

  /// Loop thread: watches POLLOUT while output is queued.
  void WatchWritable() EXCLUDES(mu_);

  /// Loop thread: unregisters and closes the fd without invoking
  /// on_closed (the owner already knows).
  void Close() EXCLUDES(mu_);

  bool closed() const EXCLUDES(mu_);

 private:
  void HandleEvents(short events);
  /// Reads until EAGAIN, dispatching complete frames.
  void HandleReadable();
  /// Loop thread, on POLLOUT: flushes until EAGAIN or empty.
  void HandleWritable() EXCLUDES(mu_);
  /// Writes queued bytes until EAGAIN or empty.
  Status FlushLocked() REQUIRES(mu_);
  void WatchWritableLocked() REQUIRES(mu_);
  /// Tears down and fires on_closed exactly once.
  void Fail(Status reason);

  EventLoop* const loop_;
  mutable Mutex mu_;
  /// Guarded so a writer off the loop never writes to a descriptor a
  /// concurrent Close() has handed back to the kernel.
  int fd_ GUARDED_BY(mu_);
  std::string outbound_ GUARDED_BY(mu_);
  size_t outbound_offset_ GUARDED_BY(mu_) = 0;
  // Loop-thread-only.
  FrameDecoder decoder_;
  bool peer_said_goodbye_ = false;
  FrameHandler on_frame_;
  ClosedHandler on_closed_;
};

}  // namespace concord::net

#endif  // CONCORD_NET_CONNECTION_H_
