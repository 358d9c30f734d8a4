// Pluggable data plane for the cache server.
//
// A Transport owns the event loop mechanics of one worker thread — accepting
// connections, moving bytes between sockets and the protocol layer, and
// waking up for shutdown — behind one interface with two backends:
//
//  * epoll (src/server/epoll_transport.cc): the readiness model. Per-fd
//    nonblocking read/write syscalls driven by edge-triggered epoll. Always
//    available; the fallback when io_uring is denied, and the only backend
//    of the load generator (a measuring instrument needs one fixed client).
//
//  * io_uring (src/server/uring_transport.cc): the completion model. One
//    multishot accept per listener, one multishot recv per connection
//    delivering into a registered provided-buffer ring, sends queued as
//    SQEs, and one io_uring_enter per loop iteration that submits them and
//    waits. Probed at runtime (io_uring_setup may be denied by the kernel or
//    a seccomp sandbox); CacheServer::Start then falls back to epoll.
//
// The protocol layer implements Transport::Handler. The contract is
// completion-shaped because epoll can emulate completions cheaply while the
// reverse (readiness on top of io_uring) would forfeit the batching:
//
//  * incoming bytes are pushed: the transport asks the handler for writable
//    space (GetReadBuffer) and commits bytes into it (OnData). The handler
//    parses during OnData; views into its own buffer stay valid. Returning
//    false from GetReadBuffer pauses reading (backpressure) until
//    ResumeRead().
//
//  * outgoing bytes are owned by the transport: Send() swaps the caller's
//    buffer into the transport's per-connection SendQueue (no copy, and the
//    bytes stay stable while the kernel may still be reading them — an
//    io_uring send SQE references them asynchronously). OnWritable fires
//    when the queue fully drains.
//
// Both backends keep their connections in a ConnTable, which defers freeing
// (and OnClose) of a closed connection to the end of the dispatch batch, and
// shed connections they cannot accept at the fd limit through an FdReserve.
//
// Threading: a Transport instance belongs to one thread. Only Wake() may be
// called from other threads.
#ifndef SRC_SERVER_TRANSPORT_H_
#define SRC_SERVER_TRANSPORT_H_

#include <unistd.h>

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace s3fifo {

enum class TransportKind : uint8_t { kAuto, kEpoll, kUring };

// "auto" | "epoll" | "uring" (also accepts "io_uring").
bool ParseTransportKind(std::string_view name, TransportKind* out);
const char* TransportKindName(TransportKind kind);

// Data-plane efficiency counters, maintained by the owning thread (plain
// fields — publish through atomics to read them from elsewhere). Together
// they make syscalls/op and batching observable without perf(1).
struct TransportCounters {
  uint64_t syscalls = 0;     // every kernel crossing made by the data plane
  uint64_t waits = 0;        // blocking waits (epoll_wait / enter+GETEVENTS)
  uint64_t events = 0;       // readiness events or CQEs dispatched
  uint64_t sqes = 0;         // io_uring: SQEs submitted
  uint64_t sqe_batches = 0;  // io_uring: enter calls that submitted >=1 SQE
  uint64_t recv_merges = 0;  // io_uring: multishot recv CQEs that kept the
                             // recv armed (no re-arm SQE needed)
};

class Transport {
 public:
  // Opaque per-connection handle owned by the transport.
  struct Conn;

  class Handler {
   public:
    virtual ~Handler() = default;
    // A connection was accepted. Returns the opaque state (`ud`) passed to
    // every later callback for this connection; may not be null.
    virtual void* OnAccept(Conn* conn) = 0;
    // The transport has incoming bytes. Return >=1 byte of writable space,
    // or false to pause reading until ResumeRead() (the transport buffers or
    // defers the data; TCP flow control eventually takes over).
    virtual bool GetReadBuffer(Conn* conn, void* ud, char** buf,
                               size_t* cap) = 0;
    // `n` bytes were written into the space returned by the immediately
    // preceding GetReadBuffer call. Parse and execute here; calling Send()
    // and Close() on any conn of this transport is allowed.
    virtual void OnData(Conn* conn, void* ud, size_t n) = 0;
    // The send queue drained to empty (all queued output reached the
    // kernel). Check close-after-flush and backpressure watermarks here.
    virtual void OnWritable(Conn* conn, void* ud) = 0;
    // Peer closed or the connection errored; the transport already closed
    // the fd and will free its Conn. Release `ud`.
    virtual void OnClose(Conn* conn, void* ud) = 0;
  };

  virtual ~Transport() = default;

  // `listen_fd`: a bound, listening, nonblocking socket (caller keeps
  // ownership), or -1 for a client-only epoll transport (the load
  // generator's); io_uring requires a listener. Creates the wake eventfd and
  // (io_uring) the ring + provided-buffer pool. False on failure with *error
  // set; an io_uring transport failing here is the cue to fall back to
  // epoll.
  virtual bool Init(Handler* handler, int listen_fd, std::string* error) = 0;

  // One event-loop iteration: waits up to `timeout_ms` (-1 = forever) for
  // work if none is pending, dispatches a batch of events through the
  // handler. Returns false only on unrecoverable transport failure.
  virtual bool Poll(int timeout_ms) = 0;

  // Thread-safe: interrupts a concurrent (or the next) Poll().
  virtual void Wake() = 0;

  // Adopts a connected nonblocking fd (accepted, or a load-generator client
  // connection). The transport owns the fd from here on.
  virtual Conn* Adopt(int fd, void* ud) = 0;

  // Queues `*data` for sending, swapping it into the transport (it comes
  // back empty, possibly with recycled capacity). The transport flushes as
  // the socket allows; OnWritable fires when everything queued has drained.
  virtual void Send(Conn* conn, std::vector<char>* data) = 0;

  // Bytes queued but not yet accepted by the kernel (watermark checks).
  virtual size_t SendQueueBytes(const Conn* conn) const = 0;

  // Re-enables reading after GetReadBuffer returned false.
  virtual void ResumeRead(Conn* conn) = 0;

  // Closes the connection now (pending unsent output is dropped — callers
  // drain via OnWritable first if they care). Does NOT call OnClose: the
  // caller initiated it and cleans up its own state.
  virtual void Close(Conn* conn) = 0;

  virtual const TransportCounters& counters() const = 0;
  virtual const char* name() const = 0;
};

std::unique_ptr<Transport> MakeEpollTransport();
// Null when io_uring support is compiled out (non-Linux). Does not probe:
// callers run IoUringAvailable once and pick the kind (CacheServer::Start).
std::unique_ptr<Transport> MakeUringTransport();

// Runtime probe: io_uring_setup + provided-buffer-ring registration. False
// with *why naming the errno (e.g. "io_uring_setup: EPERM (Operation not
// permitted)") when the kernel or a seccomp sandbox denies it.
bool IoUringAvailable(std::string* why);

// ---------------------------------------------------------------------------
// Building blocks shared by the backends. Non-virtual, and header-inline
// where they sit on the send and close paths of every connection.
// ---------------------------------------------------------------------------

// One spare fd per listening transport. An accept fails with EMFILE or
// ENFILE at the fd limit — even with an empty backlog, since the kernel
// allocates the fd first — and a backlogged connection keeps the listener
// ready, so a worker that just retries spins. Shed() spends the spare fd to
// accept the head of the backlog, closes that connection, and reopens the
// spare: the excess connection is refused instead of spun on.
class FdReserve {
 public:
  FdReserve() = default;
  FdReserve(const FdReserve&) = delete;
  FdReserve& operator=(const FdReserve&) = delete;
  ~FdReserve();

  // Takes the spare fd (a listening transport's Init calls this).
  void Open();
  // Sheds one backlogged connection of `listen_fd`, adding the syscalls
  // made to *syscalls. False if there was none to shed (the backlog is
  // empty) or no spare fd is held; the caller then stops accepting until
  // the listener is ready again.
  bool Shed(int listen_fd, uint64_t* syscalls);

 private:
  int fd_ = -1;
};

// Spare send buffers of one transport. Send() swaps the caller's bytes into
// a recycled buffer, so the caller gets capacity back instead of an empty
// vector and steady-state sending allocates nothing.
class SendBufferPool {
 public:
  std::vector<char> Take(std::vector<char>* data) {
    std::vector<char> owned;
    if (!free_.empty()) {
      owned = std::move(free_.back());
      free_.pop_back();
    }
    owned.swap(*data);
    data->clear();
    return owned;
  }

  void Recycle(std::vector<char>&& buf) {
    if (free_.size() < kMaxFree) {
      buf.clear();
      free_.push_back(std::move(buf));
    }
  }

 private:
  static constexpr size_t kMaxFree = 16;
  std::vector<std::vector<char>> free_;
};

// One connection's transport-owned output: whole buffers in send order, the
// front one sent up to an offset.
class SendQueue {
 public:
  bool empty() const { return bufs_.empty(); }
  // Bytes queued but not yet accepted by the kernel.
  size_t bytes() const { return bytes_; }
  // The unsent remainder of the front buffer (queue must be non-empty).
  const char* front_data() const { return bufs_.front().data() + front_off_; }
  size_t front_size() const { return bufs_.front().size() - front_off_; }

  void Push(std::vector<char>* data, SendBufferPool* pool) {
    bytes_ += data->size();
    bufs_.push_back(pool->Take(data));
  }

  // The kernel accepted `n` bytes from front_data().
  void Advance(size_t n, SendBufferPool* pool) {
    front_off_ += n;
    bytes_ -= n;
    if (front_off_ == bufs_.front().size()) {
      pool->Recycle(std::move(bufs_.front()));
      bufs_.pop_front();
      front_off_ = 0;
    }
  }

 private:
  std::deque<std::vector<char>> bufs_;
  size_t front_off_ = 0;
  size_t bytes_ = 0;
};

// A backend's connections: the live ones, and those closed during the
// current dispatch batch. `C` is the backend's per-connection state with
// `int fd` and `void* ud` members; its address doubles as the Transport::Conn
// handle. A closed connection stays allocated until DeliverClosures() (later
// events of the same batch may still point at it), and its OnClose waits
// with it: a death detected inside a handler-initiated Send() must not
// re-enter the handler while it still holds the connection.
template <typename C>
class ConnTable {
 public:
  ConnTable() = default;
  ConnTable(const ConnTable&) = delete;
  ConnTable& operator=(const ConnTable&) = delete;

  // Closes the live fds; destruction never notifies.
  ~ConnTable() {
    for (C* c : live_) {
      if (c->fd >= 0) {
        close(c->fd);
      }
      delete c;
    }
    for (auto& [c, notify] : dead_) {
      delete c;
    }
  }

  void Add(C* c) { live_.push_back(c); }

  // `c` (fd already closed) leaves the live set; freed by DeliverClosures,
  // which first calls OnClose if `notify`.
  void Retire(C* c, bool notify) {
    for (size_t i = 0; i < live_.size(); ++i) {
      if (live_[i] == c) {
        live_[i] = live_.back();
        live_.pop_back();
        break;
      }
    }
    dead_.push_back({c, notify});
  }

  void DeliverClosures(Transport::Handler* handler) {
    // OnClose may Close() other conns, growing dead_; index loop, no
    // iterators.
    for (size_t i = 0; i < dead_.size(); ++i) {
      if (dead_[i].second) {
        handler->OnClose(reinterpret_cast<Transport::Conn*>(dead_[i].first),
                         dead_[i].first->ud);
      }
    }
    for (auto& [c, notify] : dead_) {
      delete c;
    }
    dead_.clear();
  }

 private:
  std::vector<C*> live_;
  std::vector<std::pair<C*, bool>> dead_;  // (conn, deliver OnClose)
};

}  // namespace s3fifo

#endif  // SRC_SERVER_TRANSPORT_H_
