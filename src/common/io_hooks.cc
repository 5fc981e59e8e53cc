#include "common/io_hooks.h"

#include <sys/mman.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>

#include "testing/fault.h"

namespace pnr {
namespace io {
namespace {

using fault::Decide;
using fault::FaultDecision;
using fault::FaultOp;

// Transfer-style ops: EINTR and hard failures return -1 with errno set;
// short transfers clamp the count to 1 byte before the real call.
template <typename Call>
ssize_t Transfer(FaultOp op, size_t count, Call&& call) {
  int error_number = 0;
  switch (Decide(op, &error_number)) {
    case FaultDecision::kEintr:
    case FaultDecision::kFail:
      errno = error_number;
      return -1;
    case FaultDecision::kShort:
      return call(count > 1 ? 1 : count);
    case FaultDecision::kPass:
      break;
  }
  return call(count);
}

}  // namespace

ssize_t Read(int fd, void* buf, size_t count) {
  return Transfer(FaultOp::kRead, count,
                  [&](size_t n) { return ::read(fd, buf, n); });
}

ssize_t Write(int fd, const void* buf, size_t count) {
  return Transfer(FaultOp::kWrite, count,
                  [&](size_t n) { return ::write(fd, buf, n); });
}

ssize_t Recv(int fd, void* buf, size_t count, int flags) {
  return Transfer(FaultOp::kRecv, count,
                  [&](size_t n) { return ::recv(fd, buf, n, flags); });
}

ssize_t Send(int fd, const void* buf, size_t count, int flags) {
  return Transfer(FaultOp::kSend, count,
                  [&](size_t n) { return ::send(fd, buf, n, flags); });
}

int Accept(int listen_fd) {
  int error_number = 0;
  switch (Decide(FaultOp::kAccept, &error_number)) {
    case FaultDecision::kEintr:
    case FaultDecision::kFail:
      errno = error_number;
      return -1;
    default:
      return ::accept(listen_fd, nullptr, nullptr);
  }
}

void* Mmap(void* addr, size_t length, int prot, int flags, int fd,
           off_t offset) {
  int error_number = 0;
  switch (Decide(FaultOp::kMmap, &error_number)) {
    case FaultDecision::kEintr:
    case FaultDecision::kFail:
      errno = error_number == EINTR ? ENOMEM : error_number;
      return MAP_FAILED;
    default:
      return ::mmap(addr, length, prot, flags, fd, offset);
  }
}

bool AllocOk(size_t) {
  int error_number = 0;
  switch (Decide(FaultOp::kAlloc, &error_number)) {
    case FaultDecision::kEintr:
    case FaultDecision::kFail:
      errno = ENOMEM;
      return false;
    default:
      return true;
  }
}

}  // namespace io
}  // namespace pnr
