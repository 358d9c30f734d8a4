#include "src/server/cache_server.h"

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <unordered_map>

#include "src/concurrent/concurrent_s3fifo.h"
#include "src/server/protocol.h"
#include "src/server/ring_buffer.h"
#include "src/server/transport.h"

namespace s3fifo {

namespace {

constexpr const char* kVersionLine = "VERSION s3fifo-server 1.0\r\n";

void AppendStat(std::vector<char>& out, std::string_view name, uint64_t v) {
  AppendStr(out, "STAT ");
  AppendStr(out, name);
  out.push_back(' ');
  AppendU64(out, v);
  AppendStr(out, "\r\n");
}

struct Connection {
  Transport::Conn* tconn = nullptr;
  RingBuffer in{16 * 1024, kConnInputBytes};
  std::vector<char> out;  // response bytes not yet handed to the transport
  bool want_close = false;     // close once everything queued has drained
  bool parse_blocked = false;  // backpressure: unsent output above watermark
  bool read_paused = false;    // we returned false from GetReadBuffer
  bool pumping = false;        // re-entrancy guard (ResumeRead -> OnData)
  ParseOutput parsed;

  // Scratch for the fused get batch (reused every flush).
  std::vector<uint64_t> batch_ids;
  std::vector<std::string_view> batch_keys;
  std::vector<uint8_t> batch_hits;
  // Per get command in the batch: the batch index one past its last key,
  // which is where its END goes.
  std::vector<uint32_t> batch_op_ends;
};

// Renders the fused batch's responses into the connection's output as
// GetBatch reports hits, in batch order: each hit is one contiguous append
// of "VALUE <key> 0 <size>\r\n<value>\r\n", copied straight from cache
// memory while the cache's read guard still protects it, and every get
// that ends before the hit first gets its END.
struct RenderSink final : public ValueSink {
  explicit RenderSink(Connection& conn) : c(conn) {}

  // Renders END for every get whose keys all lie before batch `index`.
  void EndGetsBefore(uint32_t index) {
    while (next_op < c.batch_op_ends.size() && c.batch_op_ends[next_op] <= index) {
      AppendStr(c.out, "END\r\n");
      ++next_op;
    }
  }

  void OnValue(uint32_t index, const char* data, uint32_t size) override {
    EndGetsBefore(index);
    ++hits;
    const std::string_view key = c.batch_keys[index];
    char size_buf[20];
    const char* size_digits = FormatU64Before(size_buf + sizeof(size_buf), size);
    const size_t size_len = static_cast<size_t>(size_buf + sizeof(size_buf) - size_digits);
    const size_t at = c.out.size();
    c.out.resize(at + 6 + key.size() + 3 + size_len + 2 + size + 2);
    char* p = c.out.data() + at;
    const auto put = [&p](const char* src, size_t len) {
      std::memcpy(p, src, len);
      p += len;
    };
    put("VALUE ", 6);
    put(key.data(), key.size());
    put(" 0 ", 3);
    put(size_digits, size_len);
    put("\r\n", 2);
    put(data, size);
    put("\r\n", 2);
  }

  Connection& c;
  size_t next_op = 0;  // first get whose END is not rendered yet
  uint64_t hits = 0;
};

}  // namespace

// ---------------------------------------------------------------------------
// Per-worker state: one transport, one listener, the protocol handler.
// ---------------------------------------------------------------------------

struct CacheServer::Worker final : public Transport::Handler {
  CacheServer* server = nullptr;
  unsigned index = 0;
  int listen_fd = -1;
  std::unique_ptr<Transport> transport;
  std::unordered_map<Connection*, std::unique_ptr<Connection>> conns;

  // Relaxed striped counters; folded by TotalStats().
  std::atomic<uint64_t> connections_accepted{0};
  std::atomic<uint64_t> cmd_get{0};
  std::atomic<uint64_t> cmd_set{0};
  std::atomic<uint64_t> cmd_delete{0};
  std::atomic<uint64_t> get_hits{0};
  std::atomic<uint64_t> get_misses{0};
  std::atomic<uint64_t> batches{0};
  std::atomic<uint64_t> batched_gets{0};
  std::atomic<uint64_t> parse_errors{0};
  std::atomic<uint64_t> bytes_read{0};
  std::atomic<uint64_t> bytes_written{0};
  // Snapshots of the transport's (thread-local) counters, published after
  // every Poll so stats served by other workers stay near-exact.
  std::atomic<uint64_t> t_syscalls{0};
  std::atomic<uint64_t> t_waits{0};
  std::atomic<uint64_t> t_events{0};
  std::atomic<uint64_t> t_sqes{0};
  std::atomic<uint64_t> t_sqe_batches{0};
  std::atomic<uint64_t> t_recv_merges{0};

  void Bump(std::atomic<uint64_t>& c, uint64_t v = 1) {
    c.store(c.load(std::memory_order_relaxed) + v, std::memory_order_relaxed);
  }

  void PublishTransportCounters() {
    if (transport == nullptr) {
      return;
    }
    const TransportCounters& tc = transport->counters();
    t_syscalls.store(tc.syscalls, std::memory_order_relaxed);
    t_waits.store(tc.waits, std::memory_order_relaxed);
    t_events.store(tc.events, std::memory_order_relaxed);
    t_sqes.store(tc.sqes, std::memory_order_relaxed);
    t_sqe_batches.store(tc.sqe_batches, std::memory_order_relaxed);
    t_recv_merges.store(tc.recv_merges, std::memory_order_relaxed);
  }

  // --- Transport::Handler --------------------------------------------------

  void* OnAccept(Transport::Conn* tconn) override {
    Bump(connections_accepted);
    auto conn = std::make_unique<Connection>();
    conn->tconn = tconn;
    Connection* c = conn.get();
    conns.emplace(c, std::move(conn));
    return c;
  }

  bool GetReadBuffer(Transport::Conn* /*tconn*/, void* ud, char** buf,
                     size_t* cap) override {
    auto* c = static_cast<Connection*>(ud);
    if (!c->in.EnsureWritable(4096)) {
      if (!c->parse_blocked && !c->pumping) {
        // Buffer at capacity yet the parser is not backpressured: a single
        // frame fills the whole buffer without parsing fatal. Cannot happen
        // with the current limits (kMaxLineLen, kMaxValueBytes are both well
        // under the buffer cap); drop the connection to bound memory if a
        // future limit change breaks that.
        CloseConn(c);
        return false;
      }
      // Full of commands we may not execute yet (the parser is blocked, or
      // a Pump further up the stack resumed reading and parses once the
      // read returns): pause reading. The next drain unblocks the parser,
      // frees space, and resumes (ResumeRead).
      c->read_paused = true;
      return false;
    }
    *buf = c->in.WritePtr();
    *cap = c->in.WriteCapacity();
    return true;
  }

  void OnData(Transport::Conn* /*tconn*/, void* ud, size_t n) override {
    auto* c = static_cast<Connection*>(ud);
    c->in.CommitWrite(n);
    Bump(bytes_read, static_cast<uint64_t>(n));
    Pump(c);
  }

  void OnWritable(Transport::Conn* /*tconn*/, void* ud) override {
    auto* c = static_cast<Connection*>(ud);
    if (c->want_close) {
      CloseConn(c);
      return;
    }
    if (c->parse_blocked && OutPending(c) <= server->config_.out_high_watermark) {
      c->parse_blocked = false;
      Pump(c);
    }
  }

  void OnClose(Transport::Conn* /*tconn*/, void* ud) override {
    conns.erase(static_cast<Connection*>(ud));
  }

  // --- protocol pump -------------------------------------------------------

  size_t OutPending(const Connection* c) const {
    return c->out.size() + transport->SendQueueBytes(c->tconn);
  }

  // Server-initiated close: the transport never calls OnClose for these.
  void CloseConn(Connection* c) {
    transport->Close(c->tconn);
    conns.erase(c);
  }

  // Hands the rendered output to the transport. False if the connection was
  // closed (want_close with nothing left queued).
  bool FlushOut(Connection* c) {
    if (!c->out.empty()) {
      Bump(bytes_written, static_cast<uint64_t>(c->out.size()));
      transport->Send(c->tconn, &c->out);  // comes back empty
    }
    if (c->want_close && transport->SendQueueBytes(c->tconn) == 0) {
      CloseConn(c);
      return false;
    }
    return true;
  }

  // Alternates parse and flush until neither can make progress: parsing
  // stops at the out high watermark, and room freed by a drain re-enables
  // parsing (OnWritable re-enters here). Resumes paused reads once the
  // parser catches up.
  void Pump(Connection* c) {
    if (c->pumping) {
      return;  // ResumeRead below re-entered OnData; outer loop continues
    }
    c->pumping = true;
    for (;;) {
      ProcessInput(c);
      if (!FlushOut(c)) {
        return;  // connection freed
      }
      if (c->parse_blocked &&
          OutPending(c) <= server->config_.out_high_watermark) {
        c->parse_blocked = false;
        continue;
      }
      if (c->read_paused && !c->parse_blocked && c->in.EnsureWritable(4096)) {
        c->read_paused = false;
        transport->ResumeRead(c->tconn);  // may push more bytes via OnData
        if (c->in.size() > 0) {
          continue;
        }
      }
      break;
    }
    c->pumping = false;
  }

  // Executes the fused get batch through the cache's pipelined path; the
  // sink renders one "VALUE…/END" group per original get command, in order.
  void FlushGetBatch(Connection& c) {
    const uint32_t n = static_cast<uint32_t>(c.batch_ids.size());
    if (n == 0) {
      return;
    }
    c.batch_hits.resize(n);
    RenderSink sink(c);
    server->cache_->GetBatch(c.batch_ids.data(), n, c.batch_hits.data(), &sink);
    sink.EndGetsBefore(n);
    Bump(batches);
    Bump(batched_gets, n);
    Bump(get_hits, sink.hits);
    Bump(get_misses, n - sink.hits);
    c.batch_ids.clear();
    c.batch_keys.clear();
    c.batch_op_ends.clear();
  }

  // Parses and executes everything buffered on the connection. Respects the
  // out-buffer high watermark (backpressure) and the batch cap.
  void ProcessInput(Connection* c) {
    ConcurrentCache& cache = *server->cache_;
    const ServerConfig& config = server->config_;
    c->parsed.Clear();
    while (!c->want_close) {
      if (OutPending(c) > config.out_high_watermark) {
        c->parse_blocked = true;  // resume after the next drain
        break;
      }
      const size_t op_watermark = c->parsed.ops.size();
      const ParseResult r = ParseCommand(c->in.view(), c->parsed);
      if (r.status == ParseStatus::kNeedMore) {
        break;
      }
      if (r.status == ParseStatus::kError || r.status == ParseStatus::kFatal) {
        FlushGetBatch(*c);
        AppendStr(c->out, r.error);
        Bump(parse_errors);
        c->in.Consume(r.consumed);
        if (r.status == ParseStatus::kFatal) {
          c->want_close = true;
        }
        continue;
      }
      const ParsedOp op = c->parsed.ops[op_watermark];
      c->in.Consume(r.consumed);
      switch (op.type) {
        case CmdType::kGet: {
          Bump(cmd_get, op.key_count);
          for (uint32_t k = 0; k < op.key_count; ++k) {
            const std::string_view key = c->parsed.keys[op.key_begin + k];
            c->batch_ids.push_back(KeyToId(key));
            c->batch_keys.push_back(key);
          }
          c->batch_op_ends.push_back(static_cast<uint32_t>(c->batch_ids.size()));
          if (c->batch_ids.size() >= config.max_batch) {
            FlushGetBatch(*c);
          }
          break;
        }
        case CmdType::kSet: {
          FlushGetBatch(*c);
          Bump(cmd_set);
          const std::string_view key = c->parsed.keys[op.key_begin];
          const bool stored = cache.Set(KeyToId(key), op.value.data(),
                                        static_cast<uint32_t>(op.value.size()));
          if (!op.noreply) {
            AppendStr(c->out,
                      stored ? "STORED\r\n" : "SERVER_ERROR not supported\r\n");
          }
          break;
        }
        case CmdType::kDelete: {
          FlushGetBatch(*c);
          Bump(cmd_delete);
          const std::string_view key = c->parsed.keys[op.key_begin];
          const bool removed = cache.Delete(KeyToId(key));
          if (!op.noreply) {
            AppendStr(c->out, removed ? "DELETED\r\n" : "NOT_FOUND\r\n");
          }
          break;
        }
        case CmdType::kStats: {
          FlushGetBatch(*c);
          // Fold in this worker's own transport counters first; the other
          // workers' snapshots lag by at most one Poll iteration.
          PublishTransportCounters();
          const ServerStats s = server->TotalStats();
          AppendStat(c->out, "cmd_get", s.cmd_get);
          AppendStat(c->out, "cmd_set", s.cmd_set);
          AppendStat(c->out, "cmd_delete", s.cmd_delete);
          AppendStat(c->out, "get_hits", s.get_hits);
          AppendStat(c->out, "get_misses", s.get_misses);
          AppendStat(c->out, "batches", s.batches);
          AppendStat(c->out, "batched_gets", s.batched_gets);
          AppendStat(c->out, "parse_errors", s.parse_errors);
          AppendStat(c->out, "bytes_read", s.bytes_read);
          AppendStat(c->out, "bytes_written", s.bytes_written);
          AppendStat(c->out, "total_connections", s.connections_accepted);
          AppendStat(c->out, "threads", config.workers);
          AppendStat(c->out, "curr_items", cache.ApproxSize());
          {
            const ConcurrentCacheStats cs = cache.Stats();
            AppendStat(c->out, "cache_hits", cs.hits);
            AppendStat(c->out, "cache_misses", cs.misses);
          }
          AppendStr(c->out, "STAT transport ");
          AppendStr(c->out, server->transport_name_);
          AppendStr(c->out, "\r\n");
          AppendStat(c->out, "transport_syscalls", s.transport_syscalls);
          AppendStat(c->out, "transport_waits", s.transport_waits);
          AppendStat(c->out, "transport_events", s.transport_events);
          AppendStat(c->out, "transport_sqes", s.transport_sqes);
          AppendStat(c->out, "transport_sqe_batches", s.transport_sqe_batches);
          AppendStat(c->out, "transport_cqe_per_wait_x100",
                     s.transport_waits == 0
                         ? 0
                         : s.transport_events * 100 / s.transport_waits);
          AppendStat(c->out, "transport_recv_merges", s.transport_recv_merges);
          AppendStr(c->out, "END\r\n");
          break;
        }
        case CmdType::kVersion:
          FlushGetBatch(*c);
          AppendStr(c->out, kVersionLine);
          break;
        case CmdType::kQuit:
          FlushGetBatch(*c);
          c->want_close = true;
          break;
      }
    }
    FlushGetBatch(*c);
  }
};

// ---------------------------------------------------------------------------
// Construction / teardown
// ---------------------------------------------------------------------------

CacheServer::CacheServer(const ServerConfig& config, ConcurrentCache* cache)
    : config_(config), cache_(cache) {
  config_.workers = std::max(1u, config_.workers);
}

CacheServer::CacheServer(const ServerConfig& config)
    : CacheServer(config, nullptr) {
  owned_cache_ = std::make_unique<ConcurrentS3Fifo>(config_.cache);
  cache_ = owned_cache_.get();
}

CacheServer::~CacheServer() { Stop(); }

bool CacheServer::BindListener(Worker& w, std::string* error) {
  auto fail = [&](const char* what) {
    if (error != nullptr) {
      *error = std::string(what) + ": " + strerror(errno);
    }
    return false;
  };
  w.listen_fd = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (w.listen_fd < 0) {
    return fail("socket");
  }
  const int one = 1;
  setsockopt(w.listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (setsockopt(w.listen_fd, SOL_SOCKET, SO_REUSEPORT, &one, sizeof(one)) != 0) {
    return fail("setsockopt(SO_REUSEPORT)");
  }
  // Before listen(), so the window scale offered in the SYN-ACK matches.
  if (setsockopt(w.listen_fd, SOL_SOCKET, SO_RCVBUF, &kListenerRcvBufBytes,
                 sizeof(kListenerRcvBufBytes)) != 0) {
    return fail("setsockopt(SO_RCVBUF)");
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port_);  // worker 0 binds config port (possibly 0)
  if (inet_pton(AF_INET, config_.host.c_str(), &addr.sin_addr) != 1) {
    errno = EINVAL;
    return fail("inet_pton");
  }
  if (bind(w.listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    return fail("bind");
  }
  if (listen(w.listen_fd, config_.listen_backlog) != 0) {
    return fail("listen");
  }
  if (port_ == 0) {
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (getsockname(w.listen_fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
      return fail("getsockname");
    }
    port_ = ntohs(bound.sin_port);
  }
  return true;
}

bool CacheServer::SetupWorkers(TransportKind kind, std::string* error) {
  port_ = config_.port;
  for (unsigned i = 0; i < config_.workers; ++i) {
    auto w = std::make_unique<Worker>();
    w->server = this;
    w->index = i;
    if (!BindListener(*w, error)) {
      workers_.push_back(std::move(w));  // so teardown closes the partial fds
      return false;
    }
    w->transport = kind == TransportKind::kUring ? MakeUringTransport()
                                                 : MakeEpollTransport();
    std::string terr;
    if (!w->transport->Init(w.get(), w->listen_fd, &terr)) {
      if (error != nullptr) {
        *error = std::string(w->transport->name()) + " init: " + terr;
      }
      workers_.push_back(std::move(w));
      return false;
    }
    workers_.push_back(std::move(w));
  }
  return true;
}

void CacheServer::TeardownWorkers() {
  for (auto& w : workers_) {
    w->transport.reset();  // closes connection fds, the ring, the eventfd
    w->conns.clear();
    if (w->listen_fd >= 0) {
      close(w->listen_fd);
      w->listen_fd = -1;
    }
  }
  workers_.clear();
}

bool CacheServer::Start(std::string* error) {
  if (running_.exchange(true)) {
    return true;
  }
  stop_.store(false);
  workers_.clear();
  transport_note_.clear();

  // The one place kAuto is resolved: probe io_uring once for all workers.
  TransportKind kind = config_.transport;
  if (kind != TransportKind::kEpoll) {
    std::string why;
    if (IoUringAvailable(&why)) {
      kind = TransportKind::kUring;
    } else if (kind == TransportKind::kAuto) {
      kind = TransportKind::kEpoll;
      transport_note_ = "transport=auto: io_uring unavailable (" + why +
                        "), falling back to epoll";
    } else {
      if (error != nullptr) {
        *error = "transport=uring: io_uring unavailable (" + why + ")";
      }
      Stop();
      return false;
    }
  }
  std::string setup_error;
  if (!SetupWorkers(kind, &setup_error)) {
    if (kind == TransportKind::kUring &&
        config_.transport == TransportKind::kAuto) {
      // The probe passed but a full ring init failed (e.g. locked-memory
      // limits): redo every worker on epoll so the fleet is homogeneous.
      TeardownWorkers();
      transport_note_ = "transport=auto: io_uring init failed (" + setup_error +
                        "), falling back to epoll";
      kind = TransportKind::kEpoll;
      if (!SetupWorkers(kind, &setup_error)) {
        if (error != nullptr) {
          *error = setup_error;
        }
        Stop();
        return false;
      }
    } else {
      if (error != nullptr) {
        *error = setup_error;
      }
      Stop();
      return false;
    }
  }
  transport_name_ = TransportKindName(kind);
  threads_.reserve(workers_.size());
  for (auto& w : workers_) {
    threads_.emplace_back([this, worker = w.get()] { RunWorker(*worker); });
  }
  return true;
}

void CacheServer::Stop() {
  if (!running_.exchange(false)) {
    return;
  }
  stop_.store(true);
  for (auto& w : workers_) {
    if (w->transport != nullptr) {
      w->transport->Wake();
    }
  }
  for (auto& t : threads_) {
    if (t.joinable()) {
      t.join();
    }
  }
  threads_.clear();
  // Keep the workers (their final counters back TotalStats after Stop), but
  // release every kernel resource.
  for (auto& w : workers_) {
    w->transport.reset();
    w->conns.clear();
    if (w->listen_fd >= 0) {
      close(w->listen_fd);
      w->listen_fd = -1;
    }
  }
}

ServerStats CacheServer::TotalStats() const {
  ServerStats s;
  for (const auto& w : workers_) {
    s.connections_accepted += w->connections_accepted.load(std::memory_order_relaxed);
    s.cmd_get += w->cmd_get.load(std::memory_order_relaxed);
    s.cmd_set += w->cmd_set.load(std::memory_order_relaxed);
    s.cmd_delete += w->cmd_delete.load(std::memory_order_relaxed);
    s.get_hits += w->get_hits.load(std::memory_order_relaxed);
    s.get_misses += w->get_misses.load(std::memory_order_relaxed);
    s.batches += w->batches.load(std::memory_order_relaxed);
    s.batched_gets += w->batched_gets.load(std::memory_order_relaxed);
    s.parse_errors += w->parse_errors.load(std::memory_order_relaxed);
    s.bytes_read += w->bytes_read.load(std::memory_order_relaxed);
    s.bytes_written += w->bytes_written.load(std::memory_order_relaxed);
    s.transport_syscalls += w->t_syscalls.load(std::memory_order_relaxed);
    s.transport_waits += w->t_waits.load(std::memory_order_relaxed);
    s.transport_events += w->t_events.load(std::memory_order_relaxed);
    s.transport_sqes += w->t_sqes.load(std::memory_order_relaxed);
    s.transport_sqe_batches += w->t_sqe_batches.load(std::memory_order_relaxed);
    s.transport_recv_merges += w->t_recv_merges.load(std::memory_order_relaxed);
  }
  return s;
}

// ---------------------------------------------------------------------------
// Event loop
// ---------------------------------------------------------------------------

void CacheServer::RunWorker(Worker& w) {
  while (!stop_.load(std::memory_order_acquire)) {
    if (!w.transport->Poll(-1)) {
      break;
    }
    w.PublishTransportCounters();
  }
  w.PublishTransportCounters();
}

}  // namespace s3fifo
