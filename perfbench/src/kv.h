// The serving side of the benchmark: request streams, the s3fifo_server
// child process, and a single-threaded epoll load client that verifies
// every response it reads.
#ifndef PERFBENCH_KV_H_
#define PERFBENCH_KV_H_

#include <sys/types.h>

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "src/trace/trace.h"

namespace perfbench {

enum class KvOp : uint8_t { kGet, kSet, kDelete };

struct KvRequest {
  uint32_t key = 0;  // sent as its decimal string, which the server maps to the same id
  KvOp op = KvOp::kGet;
  uint32_t set_len = 0;  // body bytes of a set
};

// A request sequence the client replays cyclically. Keys are dense in
// [0, num_keys).
struct KvStream {
  std::vector<KvRequest> reqs;
  uint32_t num_keys = 0;
  uint64_t Fingerprint() const;
};

// Converts a generated trace to a stream: get/set/delete ops are kept,
// ids are renumbered densely in first-seen order, and set bodies take the
// request's size (or `fixed_set_len` when non-zero).
KvStream StreamFromTrace(const s3fifo::Trace& trace, uint32_t fixed_set_len);

// The bytes a client sends for `r`; set bodies carry `tag`'s pattern.
void RenderRequest(const KvRequest& r, uint32_t tag, std::vector<char>* out);
// The body a set of `key` with `tag` writes: never a constant run, so it
// cannot be confused with an on-demand fill (`key & 0xff` repeated).
void SetPattern(uint32_t key, uint32_t tag, uint32_t len, char* out);

struct ServerSpec {
  unsigned workers = 1;
  uint64_t capacity = 0;
  uint32_t value_bytes = 64;
  int cpu = -1;  // the CPU the server process is pinned to; -1: not pinned
};

// s3fifo_server as a child process on an ephemeral port with the default
// transport. Stop() (also run by the destructor) ends it with SIGTERM and
// waits for it.
class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  bool Start(const std::string& binary, const ServerSpec& spec, std::string* error);
  void Stop();

  pid_t pid() const { return pid_; }
  uint16_t port() const { return port_; }
  // Resolved data plane ("epoll"/"uring") and the fallback note, if any.
  const std::string& transport() const { return transport_; }
  const std::string& note() const { return note_; }

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
  int err_fd_ = -1;
  uint16_t port_ = 0;
  std::string transport_;
  std::string note_;
};

// The server's `stats` reply, name -> value.
using StatsMap = std::map<std::string, std::string>;
uint64_t StatU64(const StatsMap& s, const char* name);

// Blocking side connection used only for `stats`, outside the load loop.
class ControlConn {
 public:
  ControlConn() = default;
  ~ControlConn();
  ControlConn(const ControlConn&) = delete;
  ControlConn& operator=(const ControlConn&) = delete;
  bool Connect(uint16_t port, std::string* error);
  bool Stats(StatsMap* out);

 private:
  int fd_ = -1;
};

// Per-measurement record of the window [t0, t1).
struct Window {
  int64_t t0 = 0;
  int64_t t1 = 0;
  uint64_t completed = 0;         // replies that arrived in the window
  std::vector<uint32_t> lat_ns;   // every request answered (closed loop) or due (open loop) in it
  std::vector<uint32_t> late_ns;  // client send delay samples
  uint64_t gets = 0;
  uint64_t hits = 0;
  uint64_t due_done = 0;     // open loop: replies to requests due in the window
  int64_t last_done_ns = 0;  // open loop: when the last of them arrived
  int64_t client_cpu_ns = 0;

  void Reset(int64_t start, int64_t length_ns);
  bool Contains(int64_t t) const { return t >= t0 && t < t1; }
};

class LoadClient {
 public:
  LoadClient(const KvStream& stream, uint32_t fill_bytes, unsigned conns);
  ~LoadClient();
  LoadClient(const LoadClient&) = delete;
  LoadClient& operator=(const LoadClient&) = delete;

  bool Connect(uint16_t port, std::string* error);

  // Closed loop: every connection keeps `depth` requests in flight. Runs
  // until `stop` returns true (polled every `poll_ns`) or, with a window,
  // until the window ends; then drains. Latency is timed from the send.
  void RunClosed(uint32_t depth, Window* window, const std::function<bool()>& stop,
                 int64_t poll_ns);
  // Open loop: request i is due at start + i / rate whatever is in flight;
  // latency is timed from the due time. Runs for the window, then drains.
  void RunOpen(double rate, Window* window);

  // One past the furthest stream index sent so far: where the next
  // measurement continues the stream.
  uint64_t StreamPosition() const;

  uint64_t sent() const { return sent_; }
  uint64_t failed() const { return failed_; }
  uint64_t hits() const { return hits_; }
  const std::map<std::string, uint64_t>& errors() const { return errors_; }

 private:
  struct Pending {
    uint32_t op_index = 0;
    uint32_t tag = 0;
    int64_t t_ns = 0;  // send time (closed) or due time (open)
  };
  struct Conn {
    int fd = -1;
    std::vector<char> out;
    size_t out_off = 0;
    std::vector<char> in;
    size_t in_begin = 0;
    size_t in_end = 0;
    std::deque<Pending> pending;
    std::vector<uint32_t> ops;  // indices into the stream routed here
    size_t cursor = 0;
    bool dead = false;
  };

  void Send(Conn& c, uint32_t op_index, int64_t t_ns);
  bool Flush(Conn& c);
  bool ReadAndParse(Conn& c, int64_t now, Window* window, bool open_loop);
  // Parses one response; false when more bytes are needed.
  bool ParseOne(Conn& c, int64_t now, Window* window, bool open_loop);
  void Complete(const Pending& p, bool ok, bool is_get, bool hit, int64_t now, Window* window,
                bool open_loop);
  void Error(const std::string& kind);
  void KillConn(Conn& c, const char* why);
  void Drain(Window* window, bool open_loop);
  bool PollOnce(int64_t timeout_ns, Window* window, bool open_loop);

  const KvStream& stream_;
  const uint32_t fill_bytes_;
  std::vector<Conn> conns_;
  int epfd_ = -1;
  // Per key: 0 = absent (a get must miss), 1 = on-demand fill, 2 = unknown
  // after an error, else ((tag + 1) << 32 | op_index) of the last set.
  std::vector<uint64_t> state_;
  std::vector<char> body_;
  uint32_t next_tag_ = 0;
  uint64_t global_cursor_ = 0;
  int64_t last_read_ns_ = 0;  // when PollOnce last read replies
  uint64_t sent_ = 0;
  uint64_t completed_ = 0;
  uint64_t failed_ = 0;
  uint64_t hits_ = 0;
  std::map<std::string, uint64_t> errors_;
};

}  // namespace perfbench

#endif  // PERFBENCH_KV_H_
