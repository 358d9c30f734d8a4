// Readiness-model transport: edge-triggered epoll + per-fd nonblocking
// read/send syscalls. Always available: the server's fallback when io_uring
// is denied, and the load generator's only backend. The listener itself is
// level-triggered, so a connection accept4 cannot take at the fd limit is
// shed through the FdReserve rather than reported again and again.
#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <string.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <memory>
#include <vector>

#include "src/server/transport.h"

namespace s3fifo {

namespace {

class EpollTransport final : public Transport {
 public:
  struct EConn {
    int fd = -1;
    void* ud = nullptr;
    SendQueue sendq;
    bool read_paused = false;  // handler returned false from GetReadBuffer
    bool read_ready = false;   // an unconsumed EPOLLIN edge while paused
    bool dead = false;         // close deferred to the end of the dispatch
  };

  ~EpollTransport() override {
    if (epoll_fd_ >= 0) {
      close(epoll_fd_);
    }
    if (wake_fd_ >= 0) {
      close(wake_fd_);
    }
  }

  bool Init(Handler* handler, int listen_fd, std::string* error) override {
    handler_ = handler;
    listen_fd_ = listen_fd;
    epoll_fd_ = epoll_create1(EPOLL_CLOEXEC);
    wake_fd_ = eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (epoll_fd_ < 0 || wake_fd_ < 0) {
      if (error != nullptr) {
        *error = std::string("epoll/eventfd: ") + strerror(errno);
      }
      return false;
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.ptr = &wake_tag_;
    epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);
    if (listen_fd_ >= 0) {
      ev.events = EPOLLIN;
      ev.data.ptr = &listen_tag_;
      epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev);
      reserve_.Open();
    }
    return true;
  }

  bool Poll(int timeout_ms) override {
    constexpr int kMaxEvents = 64;
    epoll_event events[kMaxEvents];
    int n;
    do {
      n = epoll_wait(epoll_fd_, events, kMaxEvents, timeout_ms);
      counters_.syscalls++;
      counters_.waits++;
    } while (n < 0 && errno == EINTR);
    if (n < 0) {
      return false;
    }
    counters_.events += static_cast<uint64_t>(n);
    for (int i = 0; i < n; ++i) {
      const epoll_event& ev = events[i];
      if (ev.data.ptr == &wake_tag_) {
        uint64_t drain = 0;
        [[maybe_unused]] ssize_t r = read(wake_fd_, &drain, sizeof(drain));
        counters_.syscalls++;
        continue;
      }
      if (ev.data.ptr == &listen_tag_) {
        HandleAccept();
        continue;
      }
      auto* c = static_cast<EConn*>(ev.data.ptr);
      if (c->dead) {
        continue;  // closed earlier in this event block
      }
      if ((ev.events & (EPOLLHUP | EPOLLERR)) != 0) {
        CloseInternal(c, /*notify=*/true);
        continue;
      }
      if ((ev.events & EPOLLOUT) != 0) {
        if (!FlushSendQueue(c)) {
          continue;
        }
        if (c->sendq.empty()) {
          handler_->OnWritable(AsConn(c), c->ud);
          if (c->dead) {
            continue;
          }
        }
      }
      if ((ev.events & (EPOLLIN | EPOLLRDHUP)) != 0) {
        c->read_ready = true;
        ReadReady(c);
      }
    }
    conns_.DeliverClosures(handler_);
    return true;
  }

  void Wake() override {
    const uint64_t one = 1;
    [[maybe_unused]] ssize_t n = write(wake_fd_, &one, sizeof(one));
  }

  Conn* Adopt(int fd, void* ud) override {
    auto* c = new EConn;
    c->fd = fd;
    c->ud = ud;
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLOUT | EPOLLET | EPOLLRDHUP;
    ev.data.ptr = c;
    if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      counters_.syscalls++;
      close(fd);
      delete c;
      return nullptr;
    }
    counters_.syscalls++;
    conns_.Add(c);
    return AsConn(c);
  }

  void Send(Conn* conn, std::vector<char>* data) override {
    EConn* c = FromConn(conn);
    if (data->empty() || c->dead) {
      return;
    }
    c->sendq.Push(data, &send_bufs_);
    // Try immediately: with edge-triggered EPOLLOUT, the writable edge for a
    // never-full socket never fires — flush eagerly, fall back to the edge
    // only on EAGAIN.
    FlushSendQueue(c);
  }

  size_t SendQueueBytes(const Conn* conn) const override {
    return FromConn(conn)->sendq.bytes();
  }

  void ResumeRead(Conn* conn) override {
    EConn* c = FromConn(conn);
    if (!c->read_paused || c->dead) {
      return;
    }
    c->read_paused = false;
    if (c->read_ready) {
      // The edge already fired while paused; re-enter the read loop now, no
      // new EPOLLIN will announce the buffered data.
      ReadReady(c);
    }
  }

  void Close(Conn* conn) override {
    CloseInternal(FromConn(conn), /*notify=*/false);
  }

  const TransportCounters& counters() const override { return counters_; }
  const char* name() const override { return "epoll"; }

 private:
  static Conn* AsConn(EConn* c) { return reinterpret_cast<Conn*>(c); }
  static EConn* FromConn(Conn* c) { return reinterpret_cast<EConn*>(c); }
  static const EConn* FromConn(const Conn* c) {
    return reinterpret_cast<const EConn*>(c);
  }

  void HandleAccept() {
    while (true) {
      const int fd =
          accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
      counters_.syscalls++;
      if (fd < 0) {
        if ((errno == EMFILE || errno == ENFILE) &&
            reserve_.Shed(listen_fd_, &counters_.syscalls)) {
          continue;  // shed one; more may be queued
        }
        return;  // EAGAIN or transient error: nothing more to accept now
      }
      const int one = 1;
      setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      counters_.syscalls++;
      Conn* conn = Adopt(fd, nullptr);
      if (conn == nullptr) {
        continue;
      }
      FromConn(conn)->ud = handler_->OnAccept(conn);
    }
  }

  // Sends until EAGAIN or the queue drains. False if the connection died
  // (already closed and OnClose delivered).
  bool FlushSendQueue(EConn* c) {
    while (!c->sendq.empty()) {
      // MSG_NOSIGNAL: a client that vanished mid-response must surface as
      // EPIPE (we close the connection), not SIGPIPE the whole process.
      const ssize_t n = send(c->fd, c->sendq.front_data(),
                             c->sendq.front_size(), MSG_NOSIGNAL);
      counters_.syscalls++;
      if (n > 0) {
        c->sendq.Advance(static_cast<size_t>(n), &send_bufs_);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        return true;  // the EPOLLOUT edge will resume
      }
      if (n < 0 && errno == EINTR) {
        continue;
      }
      CloseInternal(c, /*notify=*/true);
      return false;
    }
    return true;
  }

  // Reads until EAGAIN, pushing bytes through the handler as they land (the
  // handler parses and may Send/Close re-entrantly).
  void ReadReady(EConn* c) {
    while (!c->dead) {
      char* buf = nullptr;
      size_t cap = 0;
      if (!handler_->GetReadBuffer(AsConn(c), c->ud, &buf, &cap)) {
        c->read_paused = true;  // read_ready stays set for ResumeRead
        return;
      }
      const ssize_t n = read(c->fd, buf, cap);
      counters_.syscalls++;
      if (n > 0) {
        handler_->OnData(AsConn(c), c->ud, static_cast<size_t>(n));
        continue;
      }
      if (n == 0) {
        CloseInternal(c, /*notify=*/true);
        return;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        c->read_ready = false;
        return;
      }
      if (errno == EINTR) {
        continue;
      }
      CloseInternal(c, /*notify=*/true);
      return;
    }
  }

  void CloseInternal(EConn* c, bool notify) {
    if (c->dead) {
      return;
    }
    c->dead = true;
    epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, c->fd, nullptr);
    close(c->fd);
    counters_.syscalls += 2;
    c->fd = -1;
    conns_.Retire(c, notify);
  }

  Handler* handler_ = nullptr;
  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  // Distinct addresses used as epoll_event tags for non-connection fds.
  char listen_tag_ = 0;
  char wake_tag_ = 0;
  FdReserve reserve_;
  ConnTable<EConn> conns_;
  SendBufferPool send_bufs_;
  TransportCounters counters_;
};

}  // namespace

std::unique_ptr<Transport> MakeEpollTransport() {
  return std::make_unique<EpollTransport>();
}

}  // namespace s3fifo
