#include "src/server/transport.h"

#include <fcntl.h>
#include <sys/socket.h>

namespace s3fifo {

bool ParseTransportKind(std::string_view name, TransportKind* out) {
  if (name == "auto") {
    *out = TransportKind::kAuto;
    return true;
  }
  if (name == "epoll") {
    *out = TransportKind::kEpoll;
    return true;
  }
  if (name == "uring" || name == "io_uring") {
    *out = TransportKind::kUring;
    return true;
  }
  return false;
}

const char* TransportKindName(TransportKind kind) {
  switch (kind) {
    case TransportKind::kAuto:
      return "auto";
    case TransportKind::kEpoll:
      return "epoll";
    case TransportKind::kUring:
      return "uring";
  }
  return "?";
}

FdReserve::~FdReserve() {
  if (fd_ >= 0) {
    close(fd_);
  }
}

void FdReserve::Open() { fd_ = open("/dev/null", O_RDONLY | O_CLOEXEC); }

bool FdReserve::Shed(int listen_fd, uint64_t* syscalls) {
  if (fd_ < 0) {
    return false;
  }
  close(fd_);
  const int fd = accept4(listen_fd, nullptr, nullptr, SOCK_CLOEXEC);
  if (fd >= 0) {
    close(fd);
    ++*syscalls;
  }
  Open();
  *syscalls += 3;
  return fd >= 0;
}

}  // namespace s3fifo
