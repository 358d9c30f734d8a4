#include "kv.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sched.h>
#include <signal.h>
#include <sys/epoll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <charconv>
#include <cstring>
#include <string_view>
#include <unordered_map>

#include "util.h"

namespace perfbench {

// ---------------------------------------------------------------------------
// Streams and request bytes
// ---------------------------------------------------------------------------

uint64_t KvStream::Fingerprint() const {
  uint64_t h = num_keys;
  for (const KvRequest& r : reqs) {
    h = Mix(h ^ (static_cast<uint64_t>(r.key) << 24 ^ static_cast<uint64_t>(r.op) << 16 ^
                 r.set_len));
  }
  return h;
}

KvStream StreamFromTrace(const s3fifo::Trace& trace, uint32_t fixed_set_len) {
  KvStream s;
  std::unordered_map<uint64_t, uint32_t> dense;
  dense.reserve(trace.size() / 4);
  s.reqs.reserve(trace.size());
  for (const s3fifo::Request& r : trace.requests()) {
    const auto [it, inserted] = dense.try_emplace(r.id, static_cast<uint32_t>(dense.size()));
    KvRequest k;
    k.key = it->second;
    k.op = r.op == s3fifo::OpType::kGet   ? KvOp::kGet
           : r.op == s3fifo::OpType::kSet ? KvOp::kSet
                                          : KvOp::kDelete;
    k.set_len = fixed_set_len != 0 ? fixed_set_len : r.size;
    s.reqs.push_back(k);
  }
  // First-seen order tracks popularity; an odd multiplier modulo a power of
  // two spreads popular objects over the whole key range instead.
  uint32_t mask = 1;
  while (mask < dense.size()) {
    mask <<= 1;
  }
  s.num_keys = mask;
  for (KvRequest& r : s.reqs) {
    r.key = static_cast<uint32_t>((r.key * 0x9E3779B1ULL + 0x7F4A7C15ULL) & (mask - 1));
  }
  return s;
}

void SetPattern(uint32_t key, uint32_t tag, uint32_t len, char* out) {
  uint32_t v = (key * 7u + tag * 13u) % 251u;
  for (uint32_t j = 0; j < len; ++j) {
    out[j] = static_cast<char>(v + 1);
    v = v == 250 ? 0 : v + 1;
  }
}

namespace {

void AppendStr(std::vector<char>* out, std::string_view s) {
  out->insert(out->end(), s.begin(), s.end());
}

void AppendU64(std::vector<char>* out, uint64_t v) {
  char buf[24];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  out->insert(out->end(), buf, res.ptr);
}

}  // namespace

void RenderRequest(const KvRequest& r, uint32_t tag, std::vector<char>* out) {
  switch (r.op) {
    case KvOp::kGet:
      AppendStr(out, "get ");
      AppendU64(out, r.key);
      AppendStr(out, "\r\n");
      break;
    case KvOp::kSet: {
      AppendStr(out, "set ");
      AppendU64(out, r.key);
      AppendStr(out, " 0 0 ");
      AppendU64(out, r.set_len);
      AppendStr(out, "\r\n");
      const size_t at = out->size();
      out->resize(at + r.set_len);
      SetPattern(r.key, tag, r.set_len, out->data() + at);
      AppendStr(out, "\r\n");
      break;
    }
    case KvOp::kDelete:
      AppendStr(out, "delete ");
      AppendU64(out, r.key);
      AppendStr(out, "\r\n");
      break;
  }
}

// ---------------------------------------------------------------------------
// Server process
// ---------------------------------------------------------------------------

namespace {

int ConnectLoopback(uint16_t port, bool nonblocking, std::string* error) {
  const int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    *error = std::string("socket: ") + strerror(errno);
    return -1;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  int rc;
  do {
    rc = connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  } while (rc != 0 && errno == EINTR);
  if (rc != 0) {
    *error = std::string("connect: ") + strerror(errno);
    close(fd);
    return -1;
  }
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  if (nonblocking) {
    fcntl(fd, F_SETFL, fcntl(fd, F_GETFL) | O_NONBLOCK);
  } else {
    timeval tv{5, 0};
    setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  }
  return fd;
}

// Reads one '\n'-terminated line from a blocking fd, waiting at most
// `timeout_ms`.
bool ReadLine(int fd, int timeout_ms, std::string* line) {
  line->clear();
  const int64_t deadline = NowNs() + static_cast<int64_t>(timeout_ms) * 1000000;
  char c;
  while (NowNs() < deadline) {
    const ssize_t n = read(fd, &c, 1);
    if (n == 1) {
      if (c == '\n') {
        return true;
      }
      *line += c;
    } else if (n == 0) {
      return false;
    } else if (errno != EINTR && errno != EAGAIN) {
      return false;
    } else if (errno == EAGAIN) {
      usleep(1000);
    }
  }
  return false;
}

}  // namespace

ServerProcess::~ServerProcess() { Stop(); }

bool ServerProcess::Start(const std::string& binary, const ServerSpec& spec,
                          std::string* error) {
  int out_pipe[2];
  int err_pipe[2];
  if (pipe2(out_pipe, O_CLOEXEC) != 0 || pipe2(err_pipe, O_CLOEXEC) != 0) {
    *error = std::string("pipe: ") + strerror(errno);
    return false;
  }
  const std::vector<std::string> args = {binary,
                                         "--port",
                                         "0",
                                         "--workers",
                                         std::to_string(spec.workers),
                                         "--capacity",
                                         std::to_string(spec.capacity),
                                         "--value-bytes",
                                         std::to_string(spec.value_bytes)};
  std::vector<char*> argv;
  for (const std::string& a : args) {
    argv.push_back(const_cast<char*>(a.c_str()));
  }
  argv.push_back(nullptr);
  const pid_t parent = getpid();
  pid_ = fork();
  if (pid_ < 0) {
    *error = std::string("fork: ") + strerror(errno);
    return false;
  }
  if (pid_ == 0) {
    // The server must not outlive the benchmark, whatever ends it.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) {
      _exit(127);
    }
    if (spec.cpu >= 0) {
      cpu_set_t set;
      CPU_ZERO(&set);
      CPU_SET(spec.cpu, &set);
      sched_setaffinity(0, sizeof(set), &set);
    }
    dup2(out_pipe[1], STDOUT_FILENO);
    dup2(err_pipe[1], STDERR_FILENO);
    execv(argv[0], argv.data());
    _exit(127);
  }
  close(out_pipe[1]);
  close(err_pipe[1]);
  out_fd_ = out_pipe[0];
  err_fd_ = err_pipe[0];
  fcntl(out_fd_, F_SETFL, fcntl(out_fd_, F_GETFL) | O_NONBLOCK);
  fcntl(err_fd_, F_SETFL, fcntl(err_fd_, F_GETFL) | O_NONBLOCK);

  // "listening on 127.0.0.1:PORT (workers=.. transport=NAME)"
  std::string line;
  if (!ReadLine(out_fd_, 10000, &line)) {
    std::string err_line;
    ReadLine(err_fd_, 100, &err_line);
    *error = "server did not report its port: " + err_line;
    Stop();
    return false;
  }
  const size_t colon = line.find(':');
  const size_t tp = line.find("transport=");
  if (line.rfind("listening on ", 0) != 0 || colon == std::string::npos ||
      tp == std::string::npos) {
    *error = "unexpected server banner: " + line;
    Stop();
    return false;
  }
  port_ = static_cast<uint16_t>(std::strtoul(line.c_str() + colon + 1, nullptr, 10));
  transport_ = line.substr(tp + 10);
  while (!transport_.empty() && (transport_.back() == ')' || transport_.back() == '\r')) {
    transport_.pop_back();
  }
  // The fallback note, if any, was written to stderr before the banner.
  ReadLine(err_fd_, 1, &note_);
  return true;
}

void ServerProcess::Stop() {
  if (pid_ > 0) {
    kill(pid_, SIGTERM);
    int status = 0;
    const int64_t deadline = NowNs() + 10LL * 1000000000;
    while (waitpid(pid_, &status, WNOHANG) == 0) {
      if (NowNs() > deadline) {
        kill(pid_, SIGKILL);
        waitpid(pid_, &status, 0);
        break;
      }
      usleep(2000);
    }
    pid_ = -1;
  }
  for (int* fd : {&out_fd_, &err_fd_}) {
    if (*fd >= 0) {
      close(*fd);
      *fd = -1;
    }
  }
}

uint64_t StatU64(const StatsMap& s, const char* name) {
  const auto it = s.find(name);
  return it == s.end() ? 0 : std::strtoull(it->second.c_str(), nullptr, 10);
}

ControlConn::~ControlConn() {
  if (fd_ >= 0) {
    close(fd_);
  }
}

bool ControlConn::Connect(uint16_t port, std::string* error) {
  fd_ = ConnectLoopback(port, /*nonblocking=*/false, error);
  return fd_ >= 0;
}

bool ControlConn::Stats(StatsMap* out) {
  out->clear();
  static constexpr char kCmd[] = "stats\r\n";
  if (write(fd_, kCmd, sizeof(kCmd) - 1) != static_cast<ssize_t>(sizeof(kCmd) - 1)) {
    return false;
  }
  std::string buf;
  char tmp[4096];
  while (buf.size() < 5 || buf.compare(buf.size() - 5, 5, "END\r\n") != 0) {
    const ssize_t n = read(fd_, tmp, sizeof(tmp));
    if (n <= 0) {
      if (n < 0 && errno == EINTR) {
        continue;
      }
      return false;
    }
    buf.append(tmp, static_cast<size_t>(n));
  }
  size_t pos = 0;
  while (pos < buf.size()) {
    const size_t eol = buf.find("\r\n", pos);
    const std::string line = buf.substr(pos, eol - pos);
    pos = eol + 2;
    if (line.rfind("STAT ", 0) == 0) {
      const size_t sp = line.find(' ', 5);
      (*out)[line.substr(5, sp - 5)] = line.substr(sp + 1);
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Load client
// ---------------------------------------------------------------------------

void Window::Reset(int64_t start, int64_t length_ns) {
  t0 = start;
  t1 = start + length_ns;
  completed = 0;
  lat_ns.clear();
  late_ns.clear();
  gets = hits = due_done = 0;
  last_done_ns = 0;
  client_cpu_ns = 0;
}

LoadClient::LoadClient(const KvStream& stream, uint32_t fill_bytes, unsigned conns)
    : stream_(stream), fill_bytes_(fill_bytes), conns_(conns), state_(stream.num_keys, 0) {
  for (uint32_t i = 0; i < stream_.reqs.size(); ++i) {
    conns_[Mix(stream_.reqs[i].key) % conns].ops.push_back(i);
  }
}

LoadClient::~LoadClient() {
  for (Conn& c : conns_) {
    if (c.fd >= 0) {
      close(c.fd);
    }
  }
  if (epfd_ >= 0) {
    close(epfd_);
  }
}

bool LoadClient::Connect(uint16_t port, std::string* error) {
  epfd_ = epoll_create1(EPOLL_CLOEXEC);
  if (epfd_ < 0) {
    *error = std::string("epoll_create1: ") + strerror(errno);
    return false;
  }
  for (size_t i = 0; i < conns_.size(); ++i) {
    Conn& c = conns_[i];
    c.fd = ConnectLoopback(port, /*nonblocking=*/true, error);
    if (c.fd < 0) {
      return false;
    }
    c.in.resize(1 << 20);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = i;
    if (epoll_ctl(epfd_, EPOLL_CTL_ADD, c.fd, &ev) != 0) {
      *error = std::string("epoll_ctl: ") + strerror(errno);
      return false;
    }
  }
  return true;
}

uint64_t LoadClient::StreamPosition() const {
  uint64_t pos = global_cursor_;
  for (const Conn& c : conns_) {
    if (c.cursor > 0) {
      pos = std::max<uint64_t>(pos, c.ops[c.cursor - 1] + 1);
    }
  }
  return pos;
}

void LoadClient::Error(const std::string& kind) {
  ++failed_;
  ++errors_[kind];
}

void LoadClient::KillConn(Conn& c, const char* why) {
  if (c.dead) {
    return;
  }
  c.dead = true;
  for (const Pending& p : c.pending) {
    state_[stream_.reqs[p.op_index].key] = 2;
    Error(why);
    ++completed_;
  }
  c.pending.clear();
  epoll_ctl(epfd_, EPOLL_CTL_DEL, c.fd, nullptr);
}

void LoadClient::Send(Conn& c, uint32_t op_index, int64_t t_ns) {
  const KvRequest& r = stream_.reqs[op_index];
  const uint32_t tag = r.op == KvOp::kSet ? next_tag_++ : 0;
  RenderRequest(r, tag, &c.out);
  c.pending.push_back(Pending{op_index, tag, t_ns});
  ++sent_;
}

bool LoadClient::Flush(Conn& c) {
  while (c.out_off < c.out.size()) {
    const ssize_t n = send(c.fd, c.out.data() + c.out_off, c.out.size() - c.out_off,
                           MSG_NOSIGNAL);
    if (n > 0) {
      c.out_off += static_cast<size_t>(n);
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else if (n < 0 && errno == EAGAIN) {
      break;
    } else {
      KillConn(c, "dropped_connection");
      return false;
    }
  }
  const bool drained = c.out_off == c.out.size();
  if (drained) {
    c.out.clear();
    c.out_off = 0;
  }
  epoll_event ev{};
  ev.events = EPOLLIN | (drained ? 0u : static_cast<uint32_t>(EPOLLOUT));
  ev.data.u64 = static_cast<uint64_t>(&c - conns_.data());
  epoll_ctl(epfd_, EPOLL_CTL_MOD, c.fd, &ev);
  return true;
}

void LoadClient::Complete(const Pending& p, bool ok, bool is_get, bool hit, int64_t now,
                          Window* window, bool open_loop) {
  ++completed_;
  if (hit) {
    ++hits_;
  }
  if (window == nullptr) {
    return;
  }
  // Throughput counts replies by arrival; latency and hits belong to the
  // window the request was due in (open loop) or answered in (closed loop).
  if (window->Contains(now)) {
    ++window->completed;
  }
  if (!window->Contains(open_loop ? p.t_ns : now)) {
    return;
  }
  if (open_loop) {
    ++window->due_done;
    window->last_done_ns = std::max(window->last_done_ns, now);
  }
  if (is_get && ok) {
    ++window->gets;
    window->hits += hit ? 1 : 0;
  }
  const int64_t lat = now - p.t_ns;
  window->lat_ns.push_back(
      static_cast<uint32_t>(std::min<int64_t>(std::max<int64_t>(lat, 0), UINT32_MAX)));
}

bool LoadClient::ParseOne(Conn& c, int64_t now, Window* window, bool open_loop) {
  const char* b = c.in.data() + c.in_begin;
  const size_t n = c.in_end - c.in_begin;
  const char* eol = static_cast<const char*>(memmem(b, n, "\r\n", 2));
  if (eol == nullptr) {
    if (n > 4096) {
      KillConn(c, "bad_response");
    }
    return false;
  }
  const Pending p = c.pending.front();
  const KvRequest& r = stream_.reqs[p.op_index];
  uint64_t& st = state_[r.key];
  const std::string_view line(b, static_cast<size_t>(eol - b));
  size_t consumed = line.size() + 2;
  bool ok = true;
  bool hit = false;
  if (r.op == KvOp::kGet) {
    if (line == "END") {
      if (st != 2) {
        st = 1;  // the miss filled it on demand
      }
    } else if (line.rfind("VALUE ", 0) == 0) {
      // VALUE <key> <flags> <bytes>
      const char* q = line.data() + 6;
      const char* end = line.data() + line.size();
      uint64_t key = 0;
      uint64_t flags = 0;
      uint64_t bytes = 0;
      auto r1 = std::from_chars(q, end, key);
      auto r2 = r1.ptr < end ? std::from_chars(r1.ptr + 1, end, flags) : r1;
      auto r3 = r2.ptr < end ? std::from_chars(r2.ptr + 1, end, bytes) : r2;
      if (r1.ec != std::errc() || r2.ec != std::errc() || r3.ec != std::errc() ||
          r3.ptr != end || bytes > (4u << 20)) {
        KillConn(c, "bad_response");
        return false;
      }
      if (n < consumed + bytes + 7) {
        return false;  // body or trailer not here yet
      }
      const char* body = b + consumed;
      if (std::memcmp(body + bytes, "\r\nEND\r\n", 7) != 0) {
        KillConn(c, "bad_response");
        return false;
      }
      consumed += bytes + 7;
      hit = true;
      if (key != r.key) {
        ok = false;
        Error("wrong_key");
      } else if (st == 0) {
        ok = false;
        Error("unexpected_hit");
      } else if (st == 1) {
        const char v = static_cast<char>(r.key & 0xff);
        bool same = bytes == fill_bytes_;
        for (uint64_t j = 0; same && j < bytes; ++j) {
          same = body[j] == v;
        }
        if (!same) {
          ok = false;
          Error("bad_body");
        }
      } else if (st != 2) {
        const uint32_t op_index = static_cast<uint32_t>(st);
        const uint32_t tag = static_cast<uint32_t>((st >> 32) - 1);
        const uint32_t len = stream_.reqs[op_index].set_len;
        body_.resize(len);
        SetPattern(r.key, tag, len, body_.data());
        if (bytes != len || std::memcmp(body, body_.data(), len) != 0) {
          ok = false;
          Error("bad_body");
        }
      }
    } else {
      ok = false;
      st = 2;
      Error("error_line");
    }
  } else if (r.op == KvOp::kSet) {
    if (line == "STORED") {
      st = (static_cast<uint64_t>(p.tag) + 1) << 32 | p.op_index;
    } else {
      ok = false;
      st = 2;
      Error("error_line");
    }
  } else {
    if (line == "DELETED" || line == "NOT_FOUND") {
      if (line == "DELETED" && st == 0) {
        ok = false;
        Error("unexpected_delete");
      }
      st = 0;
    } else {
      ok = false;
      st = 2;
      Error("error_line");
    }
  }
  c.in_begin += consumed;
  c.pending.pop_front();
  Complete(p, ok, r.op == KvOp::kGet, hit, now, window, open_loop);
  return true;
}

bool LoadClient::ReadAndParse(Conn& c, int64_t now, Window* window, bool open_loop) {
  for (;;) {
    if (c.in_begin == c.in_end) {
      c.in_begin = c.in_end = 0;
    } else if (c.in.size() - c.in_end < 65536) {
      std::memmove(c.in.data(), c.in.data() + c.in_begin, c.in_end - c.in_begin);
      c.in_end -= c.in_begin;
      c.in_begin = 0;
      if (c.in.size() - c.in_end < 65536) {
        c.in.resize(c.in.size() * 2);
      }
    }
    const ssize_t got = read(c.fd, c.in.data() + c.in_end, c.in.size() - c.in_end);
    if (got > 0) {
      c.in_end += static_cast<size_t>(got);
      while (!c.pending.empty() && !c.dead && ParseOne(c, now, window, open_loop)) {
      }
      if (c.dead) {
        return false;
      }
      if (c.pending.empty() && c.in_begin != c.in_end) {
        KillConn(c, "unsolicited_bytes");
        return false;
      }
      if (static_cast<size_t>(got) < 65536) {
        return true;
      }
    } else if (got < 0 && errno == EINTR) {
      continue;
    } else if (got < 0 && errno == EAGAIN) {
      return true;
    } else {
      KillConn(c, "dropped_connection");
      return false;
    }
  }
}

bool LoadClient::PollOnce(int64_t timeout_ns, Window* window, bool open_loop) {
  epoll_event events[8];
  timespec ts{static_cast<time_t>(timeout_ns / 1000000000), static_cast<long>(timeout_ns % 1000000000)};
  const int n = epoll_pwait2(epfd_, events, 8, timeout_ns < 0 ? nullptr : &ts, nullptr);
  if (n < 0) {
    return errno == EINTR;
  }
  const int64_t now = n > 0 ? NowNs() : 0;
  if (n > 0) {
    last_read_ns_ = now;
  }
  for (int i = 0; i < n; ++i) {
    Conn& c = conns_[events[i].data.u64];
    if (c.dead) {
      continue;
    }
    if (events[i].events & (EPOLLIN | EPOLLHUP | EPOLLERR)) {
      ReadAndParse(c, now, window, open_loop);
    }
    if (!c.dead && (events[i].events & EPOLLOUT)) {
      Flush(c);
    }
  }
  return true;
}

void LoadClient::Drain(Window* window, bool open_loop) {
  int64_t last_progress = NowNs();
  uint64_t last_completed = completed_;
  for (;;) {
    bool busy = false;
    for (Conn& c : conns_) {
      busy |= !c.dead && !c.pending.empty();
    }
    if (!busy) {
      return;
    }
    PollOnce(100 * 1000000, window, open_loop);
    if (completed_ != last_completed) {
      last_completed = completed_;
      last_progress = NowNs();
    } else if (NowNs() - last_progress > 5LL * 1000000000) {
      for (Conn& c : conns_) {
        KillConn(c, "timeout");
      }
      return;
    }
  }
}

void LoadClient::RunClosed(uint32_t depth, Window* window, const std::function<bool()>& stop,
                           int64_t poll_ns) {
  const int64_t cpu0 = ThreadCpuNs();
  int64_t next_poll = NowNs() + poll_ns;
  for (;;) {
    const int64_t now = NowNs();
    if (window != nullptr && now >= window->t1) {
      break;
    }
    if (stop && now >= next_poll) {
      if (stop()) {
        break;
      }
      next_poll = NowNs() + poll_ns;
    }
    bool alive = false;
    for (Conn& c : conns_) {
      if (c.dead) {
        continue;
      }
      alive = true;
      if (c.pending.size() < depth && !c.ops.empty()) {
        const int64_t t = NowNs();
        while (c.pending.size() < depth) {
          Send(c, c.ops[c.cursor], t);
          c.cursor = c.cursor + 1 == c.ops.size() ? 0 : c.cursor + 1;
        }
        if (window != nullptr && window->Contains(t)) {
          // Closed loop: how long the client took to refill after the
          // replies that freed these slots were read.
          window->late_ns.push_back(
              static_cast<uint32_t>(std::min<int64_t>(t - std::min(last_read_ns_, t), UINT32_MAX)));
        }
        Flush(c);
      }
    }
    if (!alive) {
      break;
    }
    int64_t timeout = 100 * 1000000;
    if (window != nullptr) {
      timeout = std::min(timeout, std::max<int64_t>(window->t1 - NowNs(), 0));
    }
    PollOnce(timeout, window, false);
  }
  if (window != nullptr) {
    window->client_cpu_ns = ThreadCpuNs() - cpu0;
  }
  Drain(window, false);
}

void LoadClient::RunOpen(double rate, Window* window) {
  const int64_t cpu0 = ThreadCpuNs();
  const double gap_ns = 1e9 / rate;
  global_cursor_ = std::max(global_cursor_, StreamPosition());
  uint64_t i = 0;
  const size_t n = stream_.reqs.size();
  std::vector<char> touched(conns_.size(), 0);
  for (;;) {
    int64_t now = NowNs();
    if (now >= window->t1) {
      break;
    }
    int64_t due = window->t0 + static_cast<int64_t>(static_cast<double>(i) * gap_ns);
    if (due <= now) {
      std::fill(touched.begin(), touched.end(), 0);
      while (due <= now && due < window->t1) {
        const uint32_t op_index = static_cast<uint32_t>((global_cursor_ + i) % n);
        const size_t ci = Mix(stream_.reqs[op_index].key) % conns_.size();
        Conn& c = conns_[ci];
        if (!c.dead) {
          Send(c, op_index, due);
          touched[ci] = 1;
          window->late_ns.push_back(static_cast<uint32_t>(std::min<int64_t>(now - due, UINT32_MAX)));
        }
        ++i;
        due = window->t0 + static_cast<int64_t>(static_cast<double>(i) * gap_ns);
      }
      for (size_t ci = 0; ci < conns_.size(); ++ci) {
        if (touched[ci] && !conns_[ci].dead) {
          Flush(conns_[ci]);
        }
      }
      now = NowNs();
    }
    PollOnce(std::max<int64_t>(std::min(due, window->t1) - now, 0), window, true);
  }
  global_cursor_ += i;
  window->client_cpu_ns = ThreadCpuNs() - cpu0;
  Drain(window, true);
}

}  // namespace perfbench
