// The syscall boundary of the untrusted-input subsystems.
//
// common/net, common/file_io and data/mapped_file perform their I/O through
// these wrappers instead of calling read/recv/send/accept/mmap directly.
// Each wrapper first asks the fault injector (testing/fault.h) whether to
// fail the call, deliver EINTR, or truncate the transfer — which is how the
// fault tests prove the error paths actually retry, degrade, and drain.
// Without an installed plan that costs one branch per syscall.
//
// Callers treat these exactly like the syscalls they wrap: same return
// conventions, errors reported via errno.

#ifndef PNR_COMMON_IO_HOOKS_H_
#define PNR_COMMON_IO_HOOKS_H_

#include <sys/types.h>

#include <cstddef>

namespace pnr {
namespace io {

ssize_t Read(int fd, void* buf, size_t count);
ssize_t Write(int fd, const void* buf, size_t count);
ssize_t Recv(int fd, void* buf, size_t count, int flags);
ssize_t Send(int fd, const void* buf, size_t count, int flags);
int Accept(int listen_fd);
void* Mmap(void* addr, size_t length, int prot, int flags, int fd,
           off_t offset);
/// Admission check before a large buffer allocation; false simulates
/// allocation failure (errno = ENOMEM). Always true without a fault plan.
bool AllocOk(size_t bytes);

}  // namespace io
}  // namespace pnr

#endif  // PNR_COMMON_IO_HOOKS_H_
