#include "common/net.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/eventfd.h>

#include <cstring>
#include <sys/socket.h>
#include <unistd.h>

#include "common/io_hooks.h"

namespace pnr {
namespace {

Status Errno(const std::string& what) {
  return Status::IOError(what + ": " + std::strerror(errno));
}

}  // namespace

void UniqueFd::Reset() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

StatusOr<UniqueFd> ListenTcp(uint16_t port, int backlog, uint16_t* bound_port,
                             bool reuse_port) {
  UniqueFd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) return Errno("socket");
  const int one = 1;
  ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (reuse_port &&
      ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEPORT, &one, sizeof(one)) !=
          0) {
    return Errno("setsockopt(SO_REUSEPORT)");
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    return Errno("bind");
  }
  if (::listen(fd.get(), backlog) != 0) return Errno("listen");
  if (bound_port != nullptr) {
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(fd.get(), reinterpret_cast<sockaddr*>(&bound), &len) !=
        0) {
      return Errno("getsockname");
    }
    *bound_port = ntohs(bound.sin_port);
  }
  return fd;
}

StatusOr<UniqueFd> ConnectLoopback(uint16_t port) {
  UniqueFd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) return Errno("socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  int rc;
  do {
    rc = ::connect(fd.get(), reinterpret_cast<sockaddr*>(&addr),
                   sizeof(addr));
  } while (rc != 0 && errno == EINTR);
  if (rc != 0) return Errno("connect");
  const int one = 1;
  ::setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

Status SendAll(int fd, std::string_view data) {
  while (!data.empty()) {
    const ssize_t n =
        io::Send(fd, data.data(), data.size(), MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("send");
    }
    data.remove_prefix(static_cast<size_t>(n));
  }
  return Status::OK();
}

StatusOr<bool> WaitReadable(int fd, int timeout_ms) {
  pollfd pfd{};
  pfd.fd = fd;
  pfd.events = POLLIN;
  for (;;) {
    const int rc = ::poll(&pfd, 1, timeout_ms);
    if (rc > 0) return true;  // readable, HUP, or error — recv reports which
    if (rc == 0) return false;
    if (errno == EINTR) continue;
    return Errno("poll");
  }
}

StatusOr<size_t> RecvSome(int fd, char* buf, size_t cap, int timeout_ms) {
  auto readable = WaitReadable(fd, timeout_ms);
  if (!readable.ok()) return readable.status();
  if (!*readable) return Status::IOError("read timeout");
  for (;;) {
    const ssize_t n = io::Recv(fd, buf, cap, 0);
    if (n >= 0) return static_cast<size_t>(n);
    if (errno == EINTR) continue;
    return Errno("recv");
  }
}

void WakePipe::Wake() const {
  const char byte = 1;
  [[maybe_unused]] ssize_t rc = ::write(write_end.get(), &byte, 1);
}

Status SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return Errno("fcntl(F_GETFL)");
  if (::fcntl(fd, F_SETFL, flags | O_NONBLOCK) != 0) {
    return Errno("fcntl(F_SETFL)");
  }
  return Status::OK();
}

StatusOr<IoResult> RecvNb(int fd, char* buf, size_t cap) {
  for (;;) {
    const ssize_t n = io::Recv(fd, buf, cap, 0);
    if (n > 0) return IoResult{static_cast<size_t>(n), false, false};
    if (n == 0) return IoResult{0, false, true};
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return IoResult{0, true, false};
    }
    return Errno("recv");
  }
}

StatusOr<IoResult> SendNb(int fd, std::string_view data) {
  IoResult result;
  while (result.bytes < data.size()) {
    const ssize_t n = io::Send(fd, data.data() + result.bytes,
                               data.size() - result.bytes, MSG_NOSIGNAL);
    if (n > 0) {
      result.bytes += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      result.would_block = true;
      return result;
    }
    return Errno("send");
  }
  return result;
}

StatusOr<UniqueFd> AcceptNb(int listen_fd) {
  for (;;) {
    const int fd = io::Accept(listen_fd);
    if (fd >= 0) {
      UniqueFd accepted(fd);
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      const Status nb = SetNonBlocking(fd);
      if (!nb.ok()) return nb;
      return accepted;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return Status::Unavailable("accept would block");
    }
    if (errno == EBADF || errno == EINVAL) {
      return Status::NotFound("listener closed");
    }
    return Errno("accept");
  }
}

StatusOr<EventFd> EventFd::Create() {
  const int fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (fd < 0) return Errno("eventfd");
  EventFd out;
  out.fd_ = UniqueFd(fd);
  return out;
}

void EventFd::Signal() const {
  const uint64_t one = 1;
  [[maybe_unused]] ssize_t rc = ::write(fd_.get(), &one, sizeof(one));
}

void EventFd::Drain() const {
  uint64_t counter = 0;
  [[maybe_unused]] ssize_t rc = ::read(fd_.get(), &counter, sizeof(counter));
}

StatusOr<EpollSet> EpollSet::Create() {
  const int fd = ::epoll_create1(EPOLL_CLOEXEC);
  if (fd < 0) return Errno("epoll_create1");
  EpollSet out;
  out.fd_ = UniqueFd(fd);
  return out;
}

namespace {

Status EpollCtl(int epfd, int op, int fd, uint32_t events, uint64_t tag) {
  epoll_event event{};
  event.events = events;
  event.data.u64 = tag;
  if (::epoll_ctl(epfd, op, fd, &event) != 0) return Errno("epoll_ctl");
  return Status::OK();
}

}  // namespace

Status EpollSet::Add(int fd, uint32_t events, uint64_t tag) {
  return EpollCtl(fd_.get(), EPOLL_CTL_ADD, fd, events, tag);
}

Status EpollSet::Mod(int fd, uint32_t events, uint64_t tag) {
  return EpollCtl(fd_.get(), EPOLL_CTL_MOD, fd, events, tag);
}

Status EpollSet::Del(int fd) {
  if (::epoll_ctl(fd_.get(), EPOLL_CTL_DEL, fd, nullptr) != 0) {
    return Errno("epoll_ctl(DEL)");
  }
  return Status::OK();
}

StatusOr<int> EpollSet::Wait(epoll_event* out, int cap, int timeout_ms) {
  for (;;) {
    const int rc = ::epoll_wait(fd_.get(), out, cap, timeout_ms);
    if (rc >= 0) return rc;
    if (errno == EINTR) continue;
    return Errno("epoll_wait");
  }
}

StatusOr<WakePipe> MakeWakePipe() {
  int fds[2];
  if (::pipe(fds) != 0) return Errno("pipe");
  WakePipe pipe;
  pipe.read_end = UniqueFd(fds[0]);
  pipe.write_end = UniqueFd(fds[1]);
  // Non-blocking write end: Wake from a signal context must never block.
  const int flags = ::fcntl(pipe.write_end.get(), F_GETFL, 0);
  ::fcntl(pipe.write_end.get(), F_SETFL, flags | O_NONBLOCK);
  return pipe;
}

}  // namespace pnr
