// Minimal POSIX TCP helpers for the serving subsystem.
//
// Wraps the socket calls the prediction server needs — bounded,
// Status-returning, EINTR-safe — so src/serve/ contains no raw ::socket()
// plumbing. Two families coexist:
//
//   * blocking-with-poll (SendAll/RecvSome/WaitReadable): what the loopback
//     test/bench clients use — one request at a time, no event loop;
//   * edge-of-readiness non-blocking (RecvNb/SendNb/AcceptNb) plus EpollSet
//     and EventFd: the per-shard reactor hot path. Non-blocking calls never
//     sleep; readiness comes from epoll, and cross-thread wakeups (shutdown)
//     come from an eventfd instead of any periodic poll.

#ifndef PNR_COMMON_NET_H_
#define PNR_COMMON_NET_H_

#include <sys/epoll.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>

#include "common/status.h"

namespace pnr {

/// Owning file descriptor (closes on destruction). Move-only.
class UniqueFd {
 public:
  UniqueFd() = default;
  explicit UniqueFd(int fd) : fd_(fd) {}
  UniqueFd(UniqueFd&& other) noexcept : fd_(other.release()) {}
  UniqueFd& operator=(UniqueFd&& other) noexcept {
    if (this != &other) {
      Reset();
      fd_ = other.release();
    }
    return *this;
  }
  UniqueFd(const UniqueFd&) = delete;
  UniqueFd& operator=(const UniqueFd&) = delete;
  ~UniqueFd() { Reset(); }

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  int release() {
    const int fd = fd_;
    fd_ = -1;
    return fd;
  }
  /// Closes the descriptor (if any).
  void Reset();

 private:
  int fd_ = -1;
};

/// Opens a TCP listener on 127.0.0.1:`port` (SO_REUSEADDR). `port` 0 binds
/// an ephemeral port; `*bound_port` receives the actual port either way.
/// With `reuse_port`, SO_REUSEPORT is set before bind so several listeners
/// (one per serving shard) can share the port; the kernel then distributes
/// incoming connections across them by 4-tuple hash.
StatusOr<UniqueFd> ListenTcp(uint16_t port, int backlog, uint16_t* bound_port,
                             bool reuse_port = false);

/// Connects to 127.0.0.1:`port` (blocking). The client side used by tests
/// and the load generator.
StatusOr<UniqueFd> ConnectLoopback(uint16_t port);

/// Writes all of `data`, retrying short writes and EINTR. MSG_NOSIGNAL, so
/// a peer that closed mid-response yields IOError instead of SIGPIPE.
Status SendAll(int fd, std::string_view data);

/// Waits up to `timeout_ms` for `fd` to become readable. Returns true when
/// readable, false on timeout; Status error on poll failure.
StatusOr<bool> WaitReadable(int fd, int timeout_ms);

/// Reads at most `cap` bytes into `buf`. Returns the byte count, 0 at
/// orderly EOF. Blocks until data, EOF, or `timeout_ms` elapses (timeout
/// yields IOError "read timeout").
StatusOr<size_t> RecvSome(int fd, char* buf, size_t cap, int timeout_ms);

/// A pipe whose write end can wake a thread blocked in poll on the read
/// end — the shutdown signal for accept loops.
struct WakePipe {
  UniqueFd read_end;
  UniqueFd write_end;
  /// Writes one byte (best-effort; never blocks).
  void Wake() const;
};
StatusOr<WakePipe> MakeWakePipe();

/// Sets O_NONBLOCK on `fd`.
Status SetNonBlocking(int fd);

/// Outcome of one non-blocking transfer attempt. Exactly one of the flags
/// is meaningful when `bytes` is 0.
struct IoResult {
  size_t bytes = 0;
  bool would_block = false;  ///< EAGAIN/EWOULDBLOCK: retry after readiness
  bool eof = false;          ///< orderly peer shutdown (recv only)
};

/// Non-blocking read: returns immediately with whatever is buffered (EINTR
/// retried inline). Never sleeps; `would_block` means "nothing yet".
StatusOr<IoResult> RecvNb(int fd, char* buf, size_t cap);

/// Non-blocking write of as much of `data` as the socket accepts right now
/// (MSG_NOSIGNAL; EINTR retried inline). `bytes` may be short of
/// data.size(); `would_block` means the send buffer is full.
StatusOr<IoResult> SendNb(int fd, std::string_view data);

/// Non-blocking accept on an O_NONBLOCK listener. The accepted socket is
/// returned non-blocking with TCP_NODELAY set. `would_block` (reported via
/// Status code kUnavailable) means no pending connection; kNotFound means
/// the listener was closed.
StatusOr<UniqueFd> AcceptNb(int listen_fd);

/// An eventfd used as a cross-thread wakeup for a reactor blocked in
/// epoll_wait: Signal() from any thread, Drain() from the reactor once the
/// readiness fires. Replaces every periodic poll in the serving tier.
class EventFd {
 public:
  static StatusOr<EventFd> Create();
  int fd() const { return fd_.get(); }
  /// Increments the counter (async-signal-safe, never blocks).
  void Signal() const;
  /// Consumes the counter so level-triggered epoll stops reporting it.
  void Drain() const;

 private:
  UniqueFd fd_;
};

/// Thin RAII epoll set. Registrations carry a uint64 tag the reactor maps
/// back to its connection table.
class EpollSet {
 public:
  static StatusOr<EpollSet> Create();
  Status Add(int fd, uint32_t events, uint64_t tag);
  Status Mod(int fd, uint32_t events, uint64_t tag);
  Status Del(int fd);
  /// Waits up to `timeout_ms` (-1 = forever; EINTR retried) and fills
  /// `out[0..cap)`. Returns the number of ready events (0 on timeout).
  StatusOr<int> Wait(epoll_event* out, int cap, int timeout_ms);

 private:
  UniqueFd fd_;
};

}  // namespace pnr

#endif  // PNR_COMMON_NET_H_
