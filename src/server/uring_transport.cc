// Completion-model transport on raw io_uring syscalls (no liburing):
//
//  * one multishot ACCEPT per listener — accepted fds arrive as CQEs, no
//    accept4 loop. At the fd limit the accept fails at once, backlog or
//    not: the transport sheds a backlogged connection through the FdReserve
//    and re-arms the accept only after a POLL on the listener fires;
//  * one multishot RECV per connection, delivering into a registered
//    provided-buffer ring (IORING_REGISTER_PBUF_RING) — received bytes show
//    up in CQEs tagged with a buffer id, no per-fd read syscalls and no
//    buffer pinned per idle connection;
//  * sends queued as SQEs referencing the transport-owned send queue (the
//    Send() ownership transfer exists exactly so these bytes stay stable
//    while the kernel reads them asynchronously);
//  * the shutdown eventfd armed as an IORING_OP_READ on the ring, so Wake()
//    is just an eventfd write and the wake costs no extra wait primitives;
//  * one io_uring_enter(GETEVENTS) per idle loop iteration submits every
//    SQE queued since the last one AND waits for one completion — the per-fd
//    syscall storm of the readiness model collapses into batched crossings.
//
// Close protocol: a connection may have up to two operations in flight (the
// multishot recv and one send). Closing shuts the socket down to provoke
// their completions and frees the state only after the last CQE referencing
// it has drained — user_data always stays valid.
#include "src/server/transport.h"

#if defined(__linux__) && __has_include(<linux/io_uring.h>)
#define S3FIFO_HAVE_IO_URING 1
#else
#define S3FIFO_HAVE_IO_URING 0
#endif

#if S3FIFO_HAVE_IO_URING

#include <errno.h>
#include <linux/io_uring.h>
#include <linux/time_types.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <string.h>
#include <sys/eventfd.h>
#include <sys/mman.h>
#include <sys/socket.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <atomic>
#include <deque>
#include <memory>
#include <vector>

namespace s3fifo {

namespace {

int SysUringSetup(unsigned entries, io_uring_params* p) {
  return static_cast<int>(syscall(__NR_io_uring_setup, entries, p));
}

int SysUringEnter(int fd, unsigned to_submit, unsigned min_complete,
                  unsigned flags, const void* arg, size_t argsz) {
  return static_cast<int>(syscall(__NR_io_uring_enter, fd, to_submit,
                                  min_complete, flags, arg, argsz));
}

int SysUringRegister(int fd, unsigned opcode, void* arg, unsigned nr_args) {
  return static_cast<int>(syscall(__NR_io_uring_register, fd, opcode, arg,
                                  nr_args));
}

const char* ErrnoName(int err) {
  switch (err) {
    case EPERM: return "EPERM";
    case ENOSYS: return "ENOSYS";
    case EACCES: return "EACCES";
    case EINVAL: return "EINVAL";
    case ENOMEM: return "ENOMEM";
    default: return "errno";
  }
}

class UringTransport final : public Transport {
 public:
  // Provided-buffer pool: enough that a full pipelining burst never starves
  // the multishot recvs, small enough to keep per-worker memory modest.
  static constexpr unsigned kBufCount = 32;  // power of two
  static constexpr unsigned kBufSize = 4 * 1024;
  static constexpr unsigned kSqEntries = 1024;
  static constexpr unsigned kCqEntries = 4096;
  static constexpr unsigned kBufGroup = 0;

  // user_data encoding: connection ops carry the UConn* with the op kind in
  // the low bits (allocations are >= 8-byte aligned); singleton ops use
  // small sentinel values no pointer can alias.
  static constexpr uint64_t kTagMask = 7;
  static constexpr uint64_t kTagRecv = 0;
  static constexpr uint64_t kTagSend = 1;
  static constexpr uint64_t kUdAccept = 2;
  static constexpr uint64_t kUdWake = 3;
  static constexpr uint64_t kUdListenPoll = 4;

  struct Holdover {
    uint16_t bid;
    uint32_t off;
    uint32_t len;
  };

  struct UConn {
    int fd = -1;
    void* ud = nullptr;
    SendQueue sendq;
    bool send_inflight = false;  // a send SQE is queued or submitted
    bool recv_armed = false;     // the multishot recv is live
    bool recv_starved = false;   // recv died with ENOBUFS; re-arm on recycle
    bool read_paused = false;    // handler backpressure
    bool closing = false;        // waiting for in-flight CQEs to drain
    bool dead = false;           // fd closed; queued for delete + OnClose
    bool notify = false;         // deliver OnClose once dead
    // Received provided buffers not yet accepted by the handler, in arrival
    // order; retained (not recycled) until consumed.
    std::deque<Holdover> holdover;
  };

  ~UringTransport() override {
    if (ring_fd_ >= 0) {
      close(ring_fd_);
    }
    if (wake_fd_ >= 0) {
      close(wake_fd_);
    }
    if (sq_ring_ptr_ != nullptr) {
      munmap(sq_ring_ptr_, sq_ring_bytes_);
    }
    if (cq_ring_ptr_ != nullptr && cq_ring_ptr_ != sq_ring_ptr_) {
      munmap(cq_ring_ptr_, cq_ring_bytes_);
    }
    if (sqes_ != nullptr) {
      munmap(sqes_, sqes_bytes_);
    }
    if (buf_ring_ != nullptr) {
      munmap(buf_ring_, buf_ring_bytes_);
    }
    if (buf_base_ != nullptr) {
      munmap(buf_base_, kBufCount * static_cast<size_t>(kBufSize));
    }
  }

  bool Init(Handler* handler, int listen_fd, std::string* error) override {
    handler_ = handler;
    listen_fd_ = listen_fd;
    auto fail = [&](const char* what) {
      if (error != nullptr) {
        *error = std::string(what) + ": " + ErrnoName(errno) + " (" +
                 strerror(errno) + ")";
      }
      return false;
    };
    if (listen_fd_ < 0) {
      errno = EINVAL;
      return fail("io_uring transport needs a listener");
    }

    io_uring_params p{};
    p.flags = IORING_SETUP_CQSIZE | IORING_SETUP_CLAMP;
    p.cq_entries = kCqEntries;
#if defined(IORING_SETUP_DEFER_TASKRUN) && defined(IORING_SETUP_SINGLE_ISSUER)
    // Deferred task-work is the difference between a readiness-loop-grade
    // ping-pong latency and a slow one: without it every completion is
    // posted by interrupting the submitter (TWA_SIGNAL IPIs, which also
    // make sibling threads' syscalls EINTR), with it completions are
    // processed inside our own io_uring_enter. SINGLE_ISSUER pins the ring
    // to one task, so create the ring disabled here and enable it from the
    // polling thread on its first Poll — the enabling task becomes the
    // issuer.
    p.flags |= IORING_SETUP_SINGLE_ISSUER | IORING_SETUP_DEFER_TASKRUN |
               IORING_SETUP_R_DISABLED;
    ring_fd_ = SysUringSetup(kSqEntries, &p);
    if (ring_fd_ < 0 && errno == EINVAL) {
      // Pre-6.1 kernel: fall back to signal-delivered task-work.
      p.flags = IORING_SETUP_CQSIZE | IORING_SETUP_CLAMP;
      ring_fd_ = SysUringSetup(kSqEntries, &p);
    } else {
      needs_enable_ = ring_fd_ >= 0;
    }
#else
    ring_fd_ = SysUringSetup(kSqEntries, &p);
#endif
    if (ring_fd_ < 0) {
      return fail("io_uring_setup");
    }
    const unsigned features = p.features;
    // The timed-wait path needs EXT_ARG; any kernel with provided-buffer
    // rings (5.19) has it (5.11). Refuse odd kernels: the caller falls back.
    if ((features & IORING_FEAT_EXT_ARG) == 0 ||
        (features & IORING_FEAT_NODROP) == 0) {
      errno = ENOSYS;
      return fail("io_uring features");
    }

    // Map the rings. With FEAT_SINGLE_MMAP the SQ and CQ rings share one
    // mapping.
    sq_ring_bytes_ = p.sq_off.array + p.sq_entries * sizeof(unsigned);
    cq_ring_bytes_ = p.cq_off.cqes + p.cq_entries * sizeof(io_uring_cqe);
    if ((features & IORING_FEAT_SINGLE_MMAP) != 0) {
      sq_ring_bytes_ = cq_ring_bytes_ =
          sq_ring_bytes_ > cq_ring_bytes_ ? sq_ring_bytes_ : cq_ring_bytes_;
    }
    sq_ring_ptr_ = mmap(nullptr, sq_ring_bytes_, PROT_READ | PROT_WRITE,
                        MAP_SHARED | MAP_POPULATE, ring_fd_, IORING_OFF_SQ_RING);
    if (sq_ring_ptr_ == MAP_FAILED) {
      sq_ring_ptr_ = nullptr;
      return fail("mmap(sq_ring)");
    }
    if ((features & IORING_FEAT_SINGLE_MMAP) != 0) {
      cq_ring_ptr_ = sq_ring_ptr_;
    } else {
      cq_ring_ptr_ = mmap(nullptr, cq_ring_bytes_, PROT_READ | PROT_WRITE,
                          MAP_SHARED | MAP_POPULATE, ring_fd_,
                          IORING_OFF_CQ_RING);
      if (cq_ring_ptr_ == MAP_FAILED) {
        cq_ring_ptr_ = nullptr;
        return fail("mmap(cq_ring)");
      }
    }
    sqes_bytes_ = p.sq_entries * sizeof(io_uring_sqe);
    sqes_ = static_cast<io_uring_sqe*>(mmap(nullptr, sqes_bytes_,
                                            PROT_READ | PROT_WRITE,
                                            MAP_SHARED | MAP_POPULATE, ring_fd_,
                                            IORING_OFF_SQES));
    if (sqes_ == MAP_FAILED) {
      sqes_ = nullptr;
      return fail("mmap(sqes)");
    }
    auto* sq_base = static_cast<char*>(sq_ring_ptr_);
    sq_head_ = reinterpret_cast<unsigned*>(sq_base + p.sq_off.head);
    sq_tail_ = reinterpret_cast<unsigned*>(sq_base + p.sq_off.tail);
    sq_mask_ = *reinterpret_cast<unsigned*>(sq_base + p.sq_off.ring_mask);
    sq_entries_ = *reinterpret_cast<unsigned*>(sq_base + p.sq_off.ring_entries);
    sq_array_ = reinterpret_cast<unsigned*>(sq_base + p.sq_off.array);
    auto* cq_base = static_cast<char*>(cq_ring_ptr_);
    cq_head_ = reinterpret_cast<unsigned*>(cq_base + p.cq_off.head);
    cq_tail_ = reinterpret_cast<unsigned*>(cq_base + p.cq_off.tail);
    cq_mask_ = *reinterpret_cast<unsigned*>(cq_base + p.cq_off.ring_mask);
    cqes_ = reinterpret_cast<io_uring_cqe*>(cq_base + p.cq_off.cqes);

    // Provided-buffer ring + the buffer pool it indexes.
    buf_ring_bytes_ = kBufCount * sizeof(io_uring_buf);
    buf_ring_ = static_cast<io_uring_buf*>(
        mmap(nullptr, buf_ring_bytes_, PROT_READ | PROT_WRITE,
             MAP_ANONYMOUS | MAP_PRIVATE, -1, 0));
    if (buf_ring_ == MAP_FAILED) {
      buf_ring_ = nullptr;
      return fail("mmap(buf_ring)");
    }
    buf_base_ = static_cast<char*>(mmap(nullptr,
                                        kBufCount * static_cast<size_t>(kBufSize),
                                        PROT_READ | PROT_WRITE,
                                        MAP_ANONYMOUS | MAP_PRIVATE, -1, 0));
    if (buf_base_ == MAP_FAILED) {
      buf_base_ = nullptr;
      return fail("mmap(buffers)");
    }
    io_uring_buf_reg reg{};
    reg.ring_addr = reinterpret_cast<uint64_t>(buf_ring_);
    reg.ring_entries = kBufCount;
    reg.bgid = kBufGroup;
    if (SysUringRegister(ring_fd_, IORING_REGISTER_PBUF_RING, &reg, 1) < 0) {
      return fail("io_uring_register(PBUF_RING)");
    }
    buf_tail_ = 0;
    for (unsigned bid = 0; bid < kBufCount; ++bid) {
      PushBufferEntry(static_cast<uint16_t>(bid));
    }
    PublishBufferTail();
    free_bufs_ = kBufCount;

    wake_fd_ = eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (wake_fd_ < 0) {
      return fail("eventfd");
    }
    ArmWakeRead();
    ArmAccept();
    reserve_.Open();
    return true;
  }

  bool Poll(int timeout_ms) override {
#if defined(IORING_SETUP_DEFER_TASKRUN) && defined(IORING_SETUP_SINGLE_ISSUER)
    if (needs_enable_) {
      // First Poll: this thread claims the ring (see Init). Every
      // io_uring_enter afterwards must come from here — and does: one
      // thread owns each transport's event loop by contract.
      needs_enable_ = false;
      if (SysUringRegister(ring_fd_, IORING_REGISTER_ENABLE_RINGS, nullptr,
                           0) < 0) {
        return false;
      }
      counters_.syscalls++;
    }
#endif
    if (DispatchCompletions() == 0) {
      if (!EnterAndWait(timeout_ms)) {
        return false;
      }
      DispatchCompletions();
    }
    // SQEs queued by this batch's handlers ride along with the next Poll's
    // combined submit-and-wait — no flush syscall here.
    conns_.DeliverClosures(handler_);
    return true;
  }

  void Wake() override {
    const uint64_t one = 1;
    [[maybe_unused]] ssize_t n = write(wake_fd_, &one, sizeof(one));
  }

  Conn* Adopt(int fd, void* ud) override {
    auto* c = new UConn;
    c->fd = fd;
    c->ud = ud;
    conns_.Add(c);
    ArmRecv(c);
    return AsConn(c);
  }

  void Send(Conn* conn, std::vector<char>* data) override {
    UConn* c = FromConn(conn);
    if (data->empty() || c->dead || c->closing) {
      return;
    }
    c->sendq.Push(data, &send_bufs_);
    if (!c->send_inflight) {
      SubmitSend(c);
    }
  }

  size_t SendQueueBytes(const Conn* conn) const override {
    return FromConn(conn)->sendq.bytes();
  }

  void ResumeRead(Conn* conn) override {
    UConn* c = FromConn(conn);
    if (!c->read_paused || c->dead || c->closing) {
      return;
    }
    c->read_paused = false;
    DrainHoldover(c);
    if (!c->read_paused && c->recv_starved && free_bufs_ > 0 && !c->dead &&
        !c->closing) {
      c->recv_starved = false;
      ArmRecv(c);
    }
  }

  void Close(Conn* conn) override {
    CloseInternal(FromConn(conn), /*notify=*/false);
  }

  const TransportCounters& counters() const override { return counters_; }
  const char* name() const override { return "uring"; }

 private:
  static Conn* AsConn(UConn* c) { return reinterpret_cast<Conn*>(c); }
  static UConn* FromConn(Conn* c) { return reinterpret_cast<UConn*>(c); }
  static const UConn* FromConn(const Conn* c) {
    return reinterpret_cast<const UConn*>(c);
  }

  // --- submission-queue plumbing -------------------------------------------

  io_uring_sqe* GetSqe() {
    unsigned head = std::atomic_ref<unsigned>(*sq_head_)
                        .load(std::memory_order_acquire);
    if (sq_local_tail_ - head >= sq_entries_) {
      FlushSubmissions();  // SQ full: hand what we have to the kernel now
      head = std::atomic_ref<unsigned>(*sq_head_)
                 .load(std::memory_order_acquire);
      if (sq_local_tail_ - head >= sq_entries_) {
        return nullptr;  // kernel refused to drain; caller treats as fatal
      }
    }
    const unsigned idx = sq_local_tail_ & sq_mask_;
    io_uring_sqe* sqe = &sqes_[idx];
    memset(sqe, 0, sizeof(*sqe));
    sq_array_[idx] = idx;
    sq_local_tail_++;
    std::atomic_ref<unsigned>(*sq_tail_)
        .store(sq_local_tail_, std::memory_order_release);
    return sqe;
  }

  unsigned PendingSubmissions() const {
    return sq_local_tail_ - std::atomic_ref<unsigned>(*sq_head_)
                                .load(std::memory_order_acquire);
  }

  void FlushSubmissions() {
    const unsigned pending = PendingSubmissions();
    if (pending == 0) {
      return;
    }
    const int r = SysUringEnter(ring_fd_, pending, 0, 0, nullptr, 0);
    counters_.syscalls++;
    if (r > 0) {
      counters_.sqe_batches++;
      counters_.sqes += static_cast<uint64_t>(r);
    }
  }

  // Submits everything queued and waits for one completion, at most
  // `timeout_ms` (-1 = forever).
  bool EnterAndWait(int timeout_ms) {
    const unsigned to_submit = PendingSubmissions();
    unsigned flags = IORING_ENTER_GETEVENTS;
    io_uring_getevents_arg arg{};
    __kernel_timespec ts{};
    const void* argp = nullptr;
    size_t argsz = 0;
    if (timeout_ms >= 0) {
      ts.tv_sec = timeout_ms / 1000;
      ts.tv_nsec = static_cast<long long>(timeout_ms % 1000) * 1000000;
      arg.ts = reinterpret_cast<uint64_t>(&ts);
      argp = &arg;
      argsz = sizeof(arg);
      flags |= IORING_ENTER_EXT_ARG;
    }
    int r;
    do {
      r = SysUringEnter(ring_fd_, to_submit, 1, flags, argp, argsz);
    } while (r < 0 && errno == EINTR);
    counters_.syscalls++;
    counters_.waits++;
    if (r >= 0) {
      if (r > 0) {
        counters_.sqe_batches++;
        counters_.sqes += static_cast<uint64_t>(r);
      }
      return true;
    }
    // ETIME: the timed wait elapsed (SQEs were still submitted). EBUSY /
    // EAGAIN: completion-side pressure; back off to dispatch what's there.
    return errno == ETIME || errno == EBUSY || errno == EAGAIN;
  }

  // --- operation arming ----------------------------------------------------

  void ArmWakeRead() {
    io_uring_sqe* sqe = GetSqe();
    if (sqe == nullptr) {
      return;
    }
    sqe->opcode = IORING_OP_READ;
    sqe->fd = wake_fd_;
    sqe->addr = reinterpret_cast<uint64_t>(&wake_buf_);
    sqe->len = sizeof(wake_buf_);
    sqe->user_data = kUdWake;
  }

  void ArmAccept() {
    io_uring_sqe* sqe = GetSqe();
    if (sqe == nullptr) {
      return;
    }
    sqe->opcode = IORING_OP_ACCEPT;
    sqe->fd = listen_fd_;
    sqe->ioprio = IORING_ACCEPT_MULTISHOT;
    sqe->accept_flags = SOCK_CLOEXEC;
    sqe->user_data = kUdAccept;
  }

  // One-shot readiness wait on the listener, armed instead of the accept
  // while out of fds (see file comment).
  void ArmListenPoll() {
    io_uring_sqe* sqe = GetSqe();
    if (sqe == nullptr) {
      return;
    }
    sqe->opcode = IORING_OP_POLL_ADD;
    sqe->fd = listen_fd_;
    sqe->poll32_events = POLLIN;
    sqe->user_data = kUdListenPoll;
  }

  void ArmRecv(UConn* c) {
    io_uring_sqe* sqe = GetSqe();
    if (sqe == nullptr) {
      return;
    }
    sqe->opcode = IORING_OP_RECV;
    sqe->fd = c->fd;
    sqe->ioprio = IORING_RECV_MULTISHOT;
    sqe->flags = IOSQE_BUFFER_SELECT;
    sqe->buf_group = kBufGroup;
    sqe->user_data = reinterpret_cast<uint64_t>(c) | kTagRecv;
    c->recv_armed = true;
  }

  void SubmitSend(UConn* c) {
    if (c->sendq.empty() || c->send_inflight || c->dead) {
      return;
    }
    io_uring_sqe* sqe = GetSqe();
    if (sqe == nullptr) {
      return;
    }
    sqe->opcode = IORING_OP_SEND;
    sqe->fd = c->fd;
    sqe->addr = reinterpret_cast<uint64_t>(c->sendq.front_data());
    sqe->len = static_cast<unsigned>(c->sendq.front_size());
    sqe->msg_flags = MSG_NOSIGNAL;
    sqe->user_data = reinterpret_cast<uint64_t>(c) | kTagSend;
    c->send_inflight = true;
  }

  // --- provided-buffer ring ------------------------------------------------

  // The provided-buffer ring is an array of io_uring_buf starting at offset 0
  // of the registered mapping; the ring tail overlays entry 0's resv field.
  // Do NOT go through io_uring_buf_ring::bufs here: its C++ expansion of
  // __DECLARE_FLEX_ARRAY places the array at offset 8 (the empty struct that
  // is size 0 in C has size 1 in C++ and gets padded), silently shifting
  // every entry away from where the kernel reads them.
  void PushBufferEntry(uint16_t bid) {
    io_uring_buf* entry = &buf_ring_[buf_tail_ & (kBufCount - 1)];
    entry->addr = reinterpret_cast<uint64_t>(buf_base_ +
                                             static_cast<size_t>(bid) * kBufSize);
    entry->len = kBufSize;
    entry->bid = bid;
    buf_tail_++;
  }

  void PublishBufferTail() {
    std::atomic_ref<__u16>(buf_ring_[0].resv)
        .store(static_cast<uint16_t>(buf_tail_), std::memory_order_release);
  }

  void RecycleBuffer(uint16_t bid) {
    PushBufferEntry(bid);
    PublishBufferTail();
    free_bufs_++;
    if (!starved_.empty()) {
      ReArmStarved();
    }
  }

  void ReArmStarved() {
    size_t kept = 0;
    for (size_t i = 0; i < starved_.size(); ++i) {
      UConn* c = starved_[i];
      if (c->dead || c->closing || !c->recv_starved) {
        continue;  // resolved or gone; drop from the list
      }
      if (c->read_paused || free_bufs_ == 0) {
        starved_[kept++] = c;  // not eligible yet; keep waiting
        continue;
      }
      c->recv_starved = false;
      ArmRecv(c);
    }
    starved_.resize(kept);
  }

  // --- completion dispatch -------------------------------------------------

  unsigned DispatchCompletions() {
    unsigned n = 0;
    unsigned head = *cq_head_;
    for (;;) {
      const unsigned tail = std::atomic_ref<unsigned>(*cq_tail_)
                                .load(std::memory_order_acquire);
      if (head == tail) {
        break;
      }
      while (head != tail) {
        const io_uring_cqe cqe = cqes_[head & cq_mask_];
        head++;
        std::atomic_ref<unsigned>(*cq_head_)
            .store(head, std::memory_order_release);
        HandleCqe(cqe);
        n++;
      }
    }
    counters_.events += n;
    // An ENOBUFS completion can sit in the CQ behind the very completions
    // whose buffers refill the pool: those recycles run ReArmStarved while
    // starved_ is still empty, and with the pool already full no later
    // recycle will ever re-arm the recv. Sweep once per batch.
    if (!starved_.empty() && free_bufs_ > 0) {
      ReArmStarved();
    }
    return n;
  }

  void HandleCqe(const io_uring_cqe& cqe) {
    switch (cqe.user_data & kTagMask) {
      case kUdWake:
        if (cqe.user_data == kUdWake) {
          ArmWakeRead();  // one-shot read: re-arm for the next Wake()
          return;
        }
        break;
      case kUdAccept:
        if (cqe.user_data == kUdAccept) {
          HandleAcceptCqe(cqe);
          return;
        }
        break;
      case kUdListenPoll:
        if (cqe.user_data == kUdListenPoll) {
          ArmAccept();
          return;
        }
        break;
      default:
        break;
    }
    auto* c = reinterpret_cast<UConn*>(cqe.user_data & ~kTagMask);
    if ((cqe.user_data & kTagMask) == kTagSend) {
      HandleSendCqe(c, cqe);
    } else {
      HandleRecvCqe(c, cqe);
    }
  }

  void HandleAcceptCqe(const io_uring_cqe& cqe) {
    const bool more = (cqe.flags & IORING_CQE_F_MORE) != 0;
    if (cqe.res >= 0) {
      const int fd = cqe.res;
      const int one = 1;
      setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      counters_.syscalls++;
      Conn* conn = Adopt(fd, nullptr);
      FromConn(conn)->ud = handler_->OnAccept(conn);
    } else if (cqe.res == -EMFILE || cqe.res == -ENFILE) {
      reserve_.Shed(listen_fd_, &counters_.syscalls);
      if (!more) {
        ArmListenPoll();  // not the accept: it would fail again at once
      }
      return;
    }
    if (!more) {
      ArmAccept();  // multishot terminated (error or resource pressure)
    }
  }

  void HandleRecvCqe(UConn* c, const io_uring_cqe& cqe) {
    const bool more = (cqe.flags & IORING_CQE_F_MORE) != 0;
    if (!more) {
      c->recv_armed = false;
    }
    if (cqe.res > 0) {
      if (more) {
        counters_.recv_merges++;
      }
      const auto bid =
          static_cast<uint16_t>(cqe.flags >> IORING_CQE_BUFFER_SHIFT);
      free_bufs_--;
      if (c->dead || c->closing) {
        RecycleBuffer(bid);
      } else {
        DeliverBuffer(c, bid, static_cast<uint32_t>(cqe.res));
      }
      if (!more && !c->dead && !c->closing) {
        // Multishot ended without error (often buffer-pool pressure raced
        // the flag): re-arm unless we are out of buffers.
        if (free_bufs_ > 0 && !c->read_paused) {
          ArmRecv(c);
        } else {
          c->recv_starved = true;
          starved_.push_back(c);
        }
      }
      MaybeFinishClose(c);
      return;
    }
    if (cqe.res == -ENOBUFS) {
      if (!c->dead && !c->closing) {
        c->recv_starved = true;
        starved_.push_back(c);
      }
      MaybeFinishClose(c);
      return;
    }
    if (c->dead || c->closing) {
      MaybeFinishClose(c);
      return;
    }
    // res == 0: orderly EOF. res < 0: ECONNRESET and friends.
    CloseInternal(c, /*notify=*/true);
  }

  void HandleSendCqe(UConn* c, const io_uring_cqe& cqe) {
    c->send_inflight = false;
    if (c->dead || c->closing) {
      MaybeFinishClose(c);
      return;
    }
    if (cqe.res <= 0) {
      CloseInternal(c, /*notify=*/true);  // EPIPE/ECONNRESET/...
      return;
    }
    c->sendq.Advance(static_cast<size_t>(cqe.res), &send_bufs_);
    if (!c->sendq.empty()) {
      SubmitSend(c);  // short send or further queued buffers
    } else {
      handler_->OnWritable(AsConn(c), c->ud);
    }
  }

  // Pushes a received provided buffer through the handler; on backpressure
  // the (rest of the) buffer is retained in arrival order until ResumeRead.
  void DeliverBuffer(UConn* c, uint16_t bid, uint32_t len) {
    if (c->read_paused || !c->holdover.empty()) {
      c->holdover.push_back({bid, 0, len});
      return;
    }
    const uint32_t delivered = DeliverBytes(c, bid, 0, len);
    if (c->dead || c->closing) {
      // The handler closed the conn mid-delivery; CloseInternal already
      // recycled the holdover queue, this buffer goes back too.
      RecycleBuffer(bid);
      return;
    }
    if (delivered < len) {
      c->holdover.push_back({bid, delivered, len - delivered});
      return;
    }
    RecycleBuffer(bid);
  }

  // Returns how many bytes the handler accepted; sets read_paused on refusal.
  uint32_t DeliverBytes(UConn* c, uint16_t bid, uint32_t off, uint32_t len) {
    const char* src = buf_base_ + static_cast<size_t>(bid) * kBufSize;
    uint32_t done = 0;
    while (done < len && !c->dead && !c->closing) {
      char* dst = nullptr;
      size_t cap = 0;
      if (!handler_->GetReadBuffer(AsConn(c), c->ud, &dst, &cap)) {
        c->read_paused = true;
        return done;
      }
      const uint32_t take =
          cap < len - done ? static_cast<uint32_t>(cap) : len - done;
      memcpy(dst, src + off + done, take);
      handler_->OnData(AsConn(c), c->ud, take);
      done += take;
    }
    return done;
  }

  void DrainHoldover(UConn* c) {
    while (!c->holdover.empty() && !c->read_paused && !c->dead &&
           !c->closing) {
      Holdover h = c->holdover.front();
      const uint32_t delivered = DeliverBytes(c, h.bid, h.off, h.len);
      if (c->dead || c->closing) {
        return;  // CloseInternal already recycled the whole holdover queue
      }
      if (delivered < h.len) {
        c->holdover.front().off = h.off + delivered;
        c->holdover.front().len = h.len - delivered;
        return;  // paused again mid-buffer
      }
      c->holdover.pop_front();
      RecycleBuffer(h.bid);
    }
  }

  // --- close protocol ------------------------------------------------------

  unsigned OutstandingOps(const UConn* c) const {
    return (c->send_inflight ? 1u : 0u) + (c->recv_armed ? 1u : 0u);
  }

  void CloseInternal(UConn* c, bool notify) {
    if (c->dead || c->closing) {
      return;
    }
    c->notify = notify;
    // Give back every retained provided buffer.
    while (!c->holdover.empty()) {
      RecycleBuffer(c->holdover.front().bid);
      c->holdover.pop_front();
    }
    if (c->recv_starved) {
      // Remove eagerly: the conn may be freed before the next starved sweep
      // runs, and a stale entry would dangle.
      c->recv_starved = false;
      for (size_t i = 0; i < starved_.size(); ++i) {
        if (starved_[i] == c) {
          starved_[i] = starved_.back();
          starved_.pop_back();
          break;
        }
      }
    }
    if (OutstandingOps(c) == 0) {
      FinishClose(c);
      return;
    }
    // In-flight recv/send CQEs still reference this conn: provoke their
    // completion and free only after the last one drains.
    c->closing = true;
    shutdown(c->fd, SHUT_RDWR);
    counters_.syscalls++;
  }

  void MaybeFinishClose(UConn* c) {
    if (c->closing && !c->dead && OutstandingOps(c) == 0) {
      FinishClose(c);
    }
  }

  void FinishClose(UConn* c) {
    c->dead = true;
    c->closing = false;
    close(c->fd);
    counters_.syscalls++;
    c->fd = -1;
    conns_.Retire(c, c->notify);
  }

  Handler* handler_ = nullptr;
  int listen_fd_ = -1;
  int ring_fd_ = -1;
  int wake_fd_ = -1;
  bool needs_enable_ = false;  // ring created R_DISABLED; first Poll enables
  uint64_t wake_buf_ = 0;

  void* sq_ring_ptr_ = nullptr;
  void* cq_ring_ptr_ = nullptr;
  size_t sq_ring_bytes_ = 0;
  size_t cq_ring_bytes_ = 0;
  io_uring_sqe* sqes_ = nullptr;
  size_t sqes_bytes_ = 0;
  unsigned* sq_head_ = nullptr;
  unsigned* sq_tail_ = nullptr;
  unsigned* sq_array_ = nullptr;
  unsigned sq_mask_ = 0;
  unsigned sq_entries_ = 0;
  unsigned sq_local_tail_ = 0;
  unsigned* cq_head_ = nullptr;
  unsigned* cq_tail_ = nullptr;
  unsigned cq_mask_ = 0;
  io_uring_cqe* cqes_ = nullptr;

  io_uring_buf* buf_ring_ = nullptr;  // registered pbuf ring entry array
  size_t buf_ring_bytes_ = 0;
  char* buf_base_ = nullptr;
  unsigned buf_tail_ = 0;
  unsigned free_bufs_ = 0;

  FdReserve reserve_;
  ConnTable<UConn> conns_;
  std::vector<UConn*> starved_;
  SendBufferPool send_bufs_;
  TransportCounters counters_;
};

}  // namespace

std::unique_ptr<Transport> MakeUringTransport() {
  return std::make_unique<UringTransport>();
}

bool IoUringAvailable(std::string* why) {
  io_uring_params p{};
  const int fd = SysUringSetup(8, &p);
  if (fd < 0) {
    if (why != nullptr) {
      *why = std::string("io_uring_setup: ") + ErrnoName(errno) + " (" +
             strerror(errno) + ")";
    }
    return false;
  }
  bool ok = (p.features & IORING_FEAT_EXT_ARG) != 0 &&
            (p.features & IORING_FEAT_NODROP) != 0;
  if (!ok && why != nullptr) {
    *why = "io_uring present but lacks EXT_ARG/NODROP (kernel too old)";
  }
  if (ok) {
    // The data plane is only usable with provided-buffer rings (5.19+).
    void* ring = mmap(nullptr, sizeof(io_uring_buf) * 16, PROT_READ | PROT_WRITE,
                      MAP_ANONYMOUS | MAP_PRIVATE, -1, 0);
    if (ring == MAP_FAILED) {
      ok = false;
      if (why != nullptr) {
        *why = std::string("mmap: ") + strerror(errno);
      }
    } else {
      io_uring_buf_reg reg{};
      reg.ring_addr = reinterpret_cast<uint64_t>(ring);
      reg.ring_entries = 16;
      reg.bgid = 0;
      if (SysUringRegister(fd, IORING_REGISTER_PBUF_RING, &reg, 1) < 0) {
        ok = false;
        if (why != nullptr) {
          *why = std::string("io_uring_register(PBUF_RING): ") +
                 ErrnoName(errno) + " (" + strerror(errno) + ")";
        }
      }
      munmap(ring, sizeof(io_uring_buf) * 16);
    }
  }
  close(fd);
  return ok;
}

}  // namespace s3fifo

#else  // !S3FIFO_HAVE_IO_URING

namespace s3fifo {

std::unique_ptr<Transport> MakeUringTransport() { return nullptr; }

bool IoUringAvailable(std::string* why) {
  if (why != nullptr) {
    *why = "io_uring support not compiled in (non-Linux build)";
  }
  return false;
}

}  // namespace s3fifo

#endif  // S3FIFO_HAVE_IO_URING
