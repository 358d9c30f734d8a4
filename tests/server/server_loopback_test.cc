// End-to-end tests for the cache server over loopback TCP, parameterized
// over both transport backends (epoll and io_uring — the uring leg skips,
// not fails, where the kernel denies io_uring_setup):
//  * protocol smoke (set/get/delete/stats, pipelining, noreply, fragmented
//    writes, protocol errors, quit);
//  * resource pressure: accepting at the fd limit, slow readers that
//    drive the server through output backpressure, paused reads and (under
//    io_uring) an exhausted provided-buffer pool, and a client that never
//    reads, whose parked input must stay within the server's limits;
//  * the §5.3 consistency check taken all the way through the network
//    stack: a deterministic trace replayed through a shards=1 server must
//    produce hit/miss counts IDENTICAL to the simulator's s3fifo policy —
//    the server's parsing, batching, and GetBatch pipeline may not change a
//    single eviction decision.
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <linux/sockios.h>
#include <sys/ioctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <arpa/inet.h>

#include <chrono>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "src/concurrent/concurrent_s3fifo.h"
#include "src/core/cache_factory.h"
#include "src/server/cache_server.h"
#include "src/server/loadgen.h"
#include "src/server/transport.h"
#include "src/sim/simulator.h"
#include "src/util/rng.h"
#include "src/util/zipf.h"
#include "src/workload/zipf_workload.h"

namespace s3fifo {
namespace {

// Minimal blocking client for the smoke tests.
class TestClient {
 public:
  explicit TestClient(uint16_t port) {
    fd_ = socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    connected_ =
        connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
    const int one = 1;
    setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
  ~TestClient() { close(fd_); }

  bool connected() const { return connected_; }

  void Send(std::string_view data) {
    size_t sent = 0;
    while (sent < data.size()) {
      const ssize_t n = send(fd_, data.data() + sent, data.size() - sent, 0);
      ASSERT_GT(n, 0);
      sent += static_cast<size_t>(n);
    }
  }

  // Reads until the accumulated response ends with `terminator` (or the
  // expected number of lines arrived); 2s timeout turns a hang into a fail.
  std::string ReadUntil(std::string_view suffix) {
    timeval tv{2, 0};
    setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    std::string buf;
    char chunk[4096];
    while (buf.size() < suffix.size() ||
           buf.compare(buf.size() - suffix.size(), suffix.size(), suffix) != 0) {
      const ssize_t n = recv(fd_, chunk, sizeof(chunk), 0);
      if (n < 0 && errno == EINTR) {
        // With an in-process io_uring server, task-work notifications can
        // interrupt this thread's syscalls; a timed recv is not restartable.
        continue;
      }
      if (n <= 0) {
        ADD_FAILURE() << "short read; got so far: " << buf;
        break;
      }
      buf.append(chunk, static_cast<size_t>(n));
    }
    return buf;
  }

  // True if the server closed the connection (EOF within the 2s timeout).
  bool AtEof() {
    timeval tv{2, 0};
    setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    char ch;
    ssize_t n;
    do {
      n = recv(fd_, &ch, 1, 0);
    } while (n < 0 && errno == EINTR);
    return n == 0;
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
};

ServerConfig SmallServerConfig(TransportKind transport) {
  ServerConfig config;
  config.workers = 1;
  config.cache.capacity_objects = 1000;
  config.cache.value_size = 8;
  config.cache.cache_shards = 1;
  config.transport = transport;
  return config;
}

// Every test in this file runs once per transport backend. A request for
// io_uring where the kernel (or a seccomp sandbox) denies it is a SKIP, not
// a failure — availability is probed, never assumed.
class TransportParamTest : public ::testing::TestWithParam<TransportKind> {
 protected:
  void SetUp() override {
    if (GetParam() == TransportKind::kUring) {
      std::string why;
      if (!IoUringAvailable(&why)) {
        GTEST_SKIP() << "io_uring unavailable: " << why;
      }
    }
  }
};

class CacheServerTest : public TransportParamTest {};
class ServerSimulatorParityTest : public TransportParamTest {};

std::string TransportParamName(
    const ::testing::TestParamInfo<TransportKind>& info) {
  return TransportKindName(info.param);
}

INSTANTIATE_TEST_SUITE_P(Transports, CacheServerTest,
                         ::testing::Values(TransportKind::kEpoll,
                                           TransportKind::kUring),
                         TransportParamName);
INSTANTIATE_TEST_SUITE_P(Transports, ServerSimulatorParityTest,
                         ::testing::Values(TransportKind::kEpoll,
                                           TransportKind::kUring),
                         TransportParamName);

TEST_P(CacheServerTest, SetGetDeleteRoundTrip) {
  CacheServer server(SmallServerConfig(GetParam()));
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  TestClient client(server.port());
  ASSERT_TRUE(client.connected());

  client.Send("set apple 0 0 5\r\ncrisp\r\n");
  EXPECT_EQ(client.ReadUntil("STORED\r\n"), "STORED\r\n");
  client.Send("get apple\r\n");
  EXPECT_EQ(client.ReadUntil("END\r\n"), "VALUE apple 0 5\r\ncrisp\r\nEND\r\n");
  client.Send("set apple 0 0 7\r\nreplace\r\n");
  EXPECT_EQ(client.ReadUntil("STORED\r\n"), "STORED\r\n");
  client.Send("get apple\r\n");
  EXPECT_EQ(client.ReadUntil("END\r\n"), "VALUE apple 0 7\r\nreplace\r\nEND\r\n");
  client.Send("delete apple\r\n");
  EXPECT_EQ(client.ReadUntil("DELETED\r\n"), "DELETED\r\n");
  client.Send("delete apple\r\n");
  EXPECT_EQ(client.ReadUntil("NOT_FOUND\r\n"), "NOT_FOUND\r\n");
  // A get after delete is an on-demand-fill miss: responds END (miss) and
  // re-admits the object with a generated payload.
  client.Send("get apple\r\n");
  EXPECT_EQ(client.ReadUntil("END\r\n"), "END\r\n");
  // The refilled object now hits, serving the generated 8-byte payload.
  client.Send("get apple\r\n");
  const std::string refill = client.ReadUntil("END\r\n");
  EXPECT_EQ(refill.rfind("VALUE apple 0 8\r\n", 0), 0u) << refill;
  EXPECT_EQ(refill.size(), std::string("VALUE apple 0 8\r\n").size() + 8 + 2 + 5);
  server.Stop();
}

TEST_P(CacheServerTest, PipelinedCommandsAnswerInOrder) {
  CacheServer server(SmallServerConfig(GetParam()));
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  TestClient client(server.port());
  ASSERT_TRUE(client.connected());

  // One write carrying many commands; responses must come back in command
  // order with the gets fused into server-side batches.
  client.Send("set a 0 0 1\r\nA\r\nset b 0 0 1\r\nB\r\n");
  client.ReadUntil("STORED\r\nSTORED\r\n");
  client.Send("get a\r\nget b\r\nget miss1\r\nget a b\r\nversion\r\n");
  const std::string resp = client.ReadUntil("VERSION s3fifo-server 1.0\r\n");
  EXPECT_EQ(resp,
            "VALUE a 0 1\r\nA\r\nEND\r\n"
            "VALUE b 0 1\r\nB\r\nEND\r\n"
            "END\r\n"
            "VALUE a 0 1\r\nA\r\nVALUE b 0 1\r\nB\r\nEND\r\n"
            "VERSION s3fifo-server 1.0\r\n");

  const ServerStats stats = server.TotalStats();
  EXPECT_EQ(stats.cmd_get, 5u);  // a, b, miss1, a, b
  EXPECT_GE(stats.batches, 1u);
  EXPECT_EQ(stats.batched_gets, 5u);
  server.Stop();
}

// Every get ends in exactly one END, placed after its own hits, whatever
// mix of hits and misses the fused batch holds and wherever max_batch cuts
// the stream: a first key that misses, an all-miss get between hit gets,
// a miss between two hits, and gets that straddle several flushes.
TEST_P(CacheServerTest, EndClosesEachGetAcrossMissesAndBatchCuts) {
  ServerConfig config = SmallServerConfig(GetParam());
  config.max_batch = 5;
  CacheServer server(config);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  TestClient client(server.port());
  ASSERT_TRUE(client.connected());

  client.Send("set a 0 0 1\r\nA\r\nset b 0 0 2\r\nBB\r\nset c 0 0 3\r\nCCC\r\n");
  EXPECT_EQ(client.ReadUntil("STORED\r\nSTORED\r\nSTORED\r\n"),
            "STORED\r\nSTORED\r\nSTORED\r\n");

  // Resident keys render their value; every other key is a first-time miss
  // (it gets admitted, and is never asked for again).
  const std::map<std::string, std::string> resident = {{"a", "A"}, {"b", "BB"}, {"c", "CCC"}};
  std::string request, expected;
  uint64_t hits = 0, misses = 0;
  auto get = [&](const std::vector<std::string>& keys) {
    request += "get";
    for (const std::string& key : keys) {
      request += " " + key;
      const auto it = resident.find(key);
      if (it == resident.end()) {
        ++misses;
        continue;
      }
      ++hits;
      expected += "VALUE " + key + " 0 " + std::to_string(it->second.size()) + "\r\n" +
                  it->second + "\r\n";
    }
    request += "\r\n";
    expected += "END\r\n";
  };
  get({"x1", "a"});        // the first key misses
  get({"b"});
  get({"x2", "x3"});       // all-miss get between hit gets
  get({"c"});
  get({"a", "x4", "b"});   // get a miss b
  for (int i = 0; i < 40; ++i) {  // straddles max_batch many times over
    const std::string m = "m" + std::to_string(i);
    switch (i % 4) {
      case 0: get({m, "c"}); break;
      case 1: get({m}); break;
      case 2: get({"a", m, "b"}); break;
      default: get({"c", "a", m + "x", m + "y", "b", "c"}); break;
    }
  }
  request += "version\r\n";
  expected += "VERSION s3fifo-server 1.0\r\n";
  client.Send(request);
  EXPECT_EQ(client.ReadUntil("VERSION s3fifo-server 1.0\r\n"), expected);

  const ServerStats stats = server.TotalStats();
  EXPECT_EQ(stats.get_hits, hits);
  EXPECT_EQ(stats.get_misses, misses);
  EXPECT_EQ(stats.cmd_get, hits + misses);
  server.Stop();
}

TEST_P(CacheServerTest, FragmentedWritesReassemble) {
  CacheServer server(SmallServerConfig(GetParam()));
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  TestClient client(server.port());
  ASSERT_TRUE(client.connected());

  // Send a set + get one byte at a time: the incremental parser must
  // reassemble across reads without consuming a torn frame.
  const std::string stream = "set torn 0 0 3\r\nxyz\r\nget torn\r\n";
  for (char ch : stream) {
    client.Send(std::string_view(&ch, 1));
  }
  EXPECT_EQ(client.ReadUntil("END\r\n"),
            "STORED\r\nVALUE torn 0 3\r\nxyz\r\nEND\r\n");
  server.Stop();
}

TEST_P(CacheServerTest, ProtocolErrorsDoNotDesynchronize) {
  CacheServer server(SmallServerConfig(GetParam()));
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  TestClient client(server.port());
  ASSERT_TRUE(client.connected());

  client.Send("bogus\r\nset k 0 0 1\r\nZ\r\nget k\r\n");
  EXPECT_EQ(client.ReadUntil("END\r\n"),
            "ERROR\r\nSTORED\r\nVALUE k 0 1\r\nZ\r\nEND\r\n");
  EXPECT_EQ(server.TotalStats().parse_errors, 1u);
  server.Stop();
}

TEST_P(CacheServerTest, NoreplySuppressesResponses) {
  CacheServer server(SmallServerConfig(GetParam()));
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  TestClient client(server.port());
  ASSERT_TRUE(client.connected());

  // noreply set and delete produce no response lines; the trailing get
  // proves the set still executed and nothing else was emitted before it.
  client.Send("set s 0 0 1 noreply\r\nS\r\ndelete missing noreply\r\nget s\r\n");
  EXPECT_EQ(client.ReadUntil("END\r\n"), "VALUE s 0 1\r\nS\r\nEND\r\n");
  server.Stop();
}

TEST_P(CacheServerTest, StatsReportServerCounters) {
  CacheServer server(SmallServerConfig(GetParam()));
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  TestClient client(server.port());
  ASSERT_TRUE(client.connected());

  client.Send("get one\r\nget one\r\nstats\r\n");
  // Three responses each end in END; accumulate until the stats block (the
  // only one with STAT lines) has fully arrived.
  std::string resp;
  do {
    resp += client.ReadUntil("END\r\n");
  } while (resp.find("STAT curr_items") == std::string::npos);
  EXPECT_NE(resp.find("STAT cmd_get 2\r\n"), std::string::npos);
  EXPECT_NE(resp.find("STAT get_hits 1\r\n"), std::string::npos);
  EXPECT_NE(resp.find("STAT get_misses 1\r\n"), std::string::npos);
  EXPECT_NE(resp.find("STAT curr_items 1\r\n"), std::string::npos);
  server.Stop();
}

TEST_P(CacheServerTest, QuitClosesTheConnection) {
  CacheServer server(SmallServerConfig(GetParam()));
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  TestClient client(server.port());
  ASSERT_TRUE(client.connected());

  client.Send("get x\r\nquit\r\n");
  EXPECT_EQ(client.ReadUntil("END\r\n"), "END\r\n");
  // After quit the server closes its side; the next read sees EOF.
  EXPECT_TRUE(client.AtEof());
  server.Stop();
}

// --- Resource pressure -----------------------------------------------------

// Lowers the process's soft RLIMIT_NOFILE to the lowest free fd number, so
// that no new fd can be allocated; restores the limit on destruction.
class FdLimitGuard {
 public:
  FdLimitGuard() {
    ok_ = getrlimit(RLIMIT_NOFILE, &saved_) == 0;
    const int probe = open("/dev/null", O_RDONLY | O_CLOEXEC);
    ok_ = ok_ && probe >= 0;
    if (!ok_) {
      return;
    }
    close(probe);
    rlimit lowered = saved_;
    lowered.rlim_cur = static_cast<rlim_t>(probe);
    ok_ = setrlimit(RLIMIT_NOFILE, &lowered) == 0;
  }
  ~FdLimitGuard() {
    if (ok_) {
      setrlimit(RLIMIT_NOFILE, &saved_);
    }
  }
  bool ok() const { return ok_; }

 private:
  rlimit saved_{};
  bool ok_ = false;
};

// Connections queued while the process is out of fds must not make the
// worker spin. A level-triggered epoll listener stays ready while accept4
// fails with EMFILE, and an io_uring accept re-armed at the limit fails
// again at once; both transports shed such a connection through a reserve
// fd instead (an io_uring accept armed before the limit dropped may accept
// and serve it). Either way the worker stays nearly idle and serves new
// connections once fds are available.
TEST_P(CacheServerTest, AcceptAtFdLimitDoesNotSpin) {
  CacheServer server(SmallServerConfig(GetParam()));
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  // Client sockets are fds too: create them before the limit drops.
  std::vector<int> clients;
  for (int i = 0; i < 4; ++i) {
    clients.push_back(socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
    ASSERT_GE(clients.back(), 0);
  }
  {
    FdLimitGuard guard;
    ASSERT_TRUE(guard.ok());
    for (const int fd : clients) {
      ASSERT_EQ(connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
                0);
    }
    const uint64_t before = server.TotalStats().transport_syscalls;
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    const uint64_t spent = server.TotalStats().transport_syscalls - before;
    EXPECT_LT(spent, 1000u) << "the worker spun on an undrainable backlog";
  }
  // Each queued connection was either shed (closed unserved) or accepted
  // and served; none may hang.
  for (const int fd : clients) {
    send(fd, "version\r\n", 9, MSG_NOSIGNAL);
    timeval tv{2, 0};
    setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    std::string reply;
    char chunk[64];
    ssize_t n;
    do {
      n = recv(fd, chunk, sizeof(chunk), 0);
      if (n > 0) {
        reply.append(chunk, static_cast<size_t>(n));
      }
    } while ((n > 0 && reply.find('\n') == std::string::npos) ||
             (n < 0 && errno == EINTR));
    const bool shed = n == 0 || (n < 0 && errno == ECONNRESET);
    EXPECT_TRUE(shed || reply == "VERSION s3fifo-server 1.0\r\n")
        << "a connection queued at the fd limit was neither served nor shed";
    close(fd);
  }
  TestClient fresh(server.port());
  ASSERT_TRUE(fresh.connected());
  fresh.Send("version\r\n");
  EXPECT_EQ(fresh.ReadUntil("\r\n"), "VERSION s3fifo-server 1.0\r\n");
  server.Stop();
}

// A pipelining client that does not read. Every connection's requests are
// pairs of gets for two keys with distinct values, so each pair must come
// back as the same response unit, complete and in order.
struct SlowReader {
  int fd = -1;
  std::string pair;      // "get A\r\nget B\r\n"
  std::string unit;      // the response to one pair
  std::string unsent;    // request bytes not yet accepted by the kernel
  uint64_t pairs = 0;    // pairs queued (sent or in `unsent`)
  uint64_t received = 0;

  void Queue(uint64_t n) {
    for (uint64_t i = 0; i < n; ++i) {
      unsent += pair;
    }
    pairs += n;
  }
  // Sends what the kernel takes now; false on a socket error.
  bool Flush() {
    while (!unsent.empty()) {
      const ssize_t n = send(fd, unsent.data(), unsent.size(), MSG_NOSIGNAL);
      if (n < 0) {
        return errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR;
      }
      unsent.erase(0, static_cast<size_t>(n));
    }
    return true;
  }
  bool done() const { return received == pairs * unit.size(); }
};

std::string ValueResponse(const std::string& key, const std::string& value) {
  return "VALUE " + key + " 0 " + std::to_string(value.size()) + "\r\n" +
         value + "\r\nEND\r\n";
}

// Slow readers against a small output watermark. 44 connections each queue
// a burst whose responses are four times the watermark; 4 more pipeline
// 4 MiB of small gets (or until the server stops reading them): their
// output fills the kernel, the parser blocks at the watermark, the input
// buffer fills and reading pauses. 48 connections outnumber io_uring's 32
// provided buffers, and paused connections hold theirs, so the uring backend
// runs its pool dry (ENOBUFS), keeps paused bytes as holdover, and must
// re-arm the starved receives as buffers return. Only then does every
// client read. Nothing may be lost, reordered or closed — in particular a
// resumed read that refills the whole input buffer before the parser runs
// must pause again, not close (and free) the connection under the parser,
// which on epoll needs the 4 MiB floods.
TEST_P(CacheServerTest, SlowReadersGetEveryResponseInOrder) {
  constexpr size_t kWatermark = 16 * 1024;
  constexpr int kBurstConns = 44;
  constexpr int kFloodConns = 4;
  // Past the server's 1 MiB input buffer plus the requests whose responses
  // fill a 4 MiB kernel send buffer (the Linux default maximum).
  constexpr uint64_t kFloodBytes = 4 << 20;
  ServerConfig config = SmallServerConfig(GetParam());
  config.out_high_watermark = kWatermark;
  CacheServer server(config);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  // Burst keys carry large values (few requests, many response bytes);
  // flood keys small ones (many request bytes, so the input fills too).
  const std::string big_a(1000, 'a'), big_b(1500, 'b');
  const std::string small_c = "c", small_d = "dd";
  {
    TestClient setup(server.port());
    ASSERT_TRUE(setup.connected());
    setup.Send("set 1 0 0 1000\r\n" + big_a + "\r\nset 2 0 0 1500\r\n" +
               big_b + "\r\nset 3 0 0 1\r\nc\r\nset 4 0 0 2\r\ndd\r\n");
    setup.ReadUntil("STORED\r\nSTORED\r\nSTORED\r\nSTORED\r\n");
  }

  std::vector<SlowReader> readers(kBurstConns + kFloodConns);
  for (size_t i = 0; i < readers.size(); ++i) {
    SlowReader& r = readers[i];
    r.fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    ASSERT_GE(r.fd, 0);
    // Small client buffers keep the kernel from absorbing the backlog.
    const int small_buf = 16 * 1024;
    setsockopt(r.fd, SOL_SOCKET, SO_RCVBUF, &small_buf, sizeof(small_buf));
    setsockopt(r.fd, SOL_SOCKET, SO_SNDBUF, &small_buf, sizeof(small_buf));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(server.port());
    inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    ASSERT_EQ(
        connect(r.fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
    fcntl(r.fd, F_SETFL, fcntl(r.fd, F_GETFL) | O_NONBLOCK);
    if (static_cast<int>(i) < kBurstConns) {
      r.pair = "get 1\r\nget 2\r\n";
      r.unit = ValueResponse("1", big_a) + ValueResponse("2", big_b);
    } else {
      r.pair = "get 3\r\nget 4\r\n";
      r.unit = ValueResponse("3", small_c) + ValueResponse("4", small_d);
    }
  }

  // Write phase: nobody reads yet.
  for (int i = 0; i < kBurstConns; ++i) {
    SlowReader& r = readers[i];
    r.Queue(4 * kWatermark / r.unit.size() + 1);
    ASSERT_TRUE(r.Flush());
  }
  for (int i = kBurstConns; i < kBurstConns + kFloodConns; ++i) {
    SlowReader& r = readers[i];
    bool stalled = false;
    while (!stalled && r.pairs * r.pair.size() < kFloodBytes) {
      if (r.unsent.empty()) {
        r.Queue(4096);
      }
      ASSERT_TRUE(r.Flush());
      pollfd pfd{r.fd, POLLOUT, 0};
      // Not writable for 100ms: the server has stopped reading.
      stalled = !r.unsent.empty() && poll(&pfd, 1, 100) == 0;
    }
  }

  // Read phase: drain every connection, finishing the unsent requests.
  uint64_t keys = 0;
  for (const SlowReader& r : readers) {
    keys += 2 * r.pairs;
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(120);
  std::vector<char> buf(64 * 1024);
  for (;;) {
    std::vector<pollfd> pfds;
    std::vector<SlowReader*> open;
    for (SlowReader& r : readers) {
      if (!r.done()) {
        const short out = r.unsent.empty() ? 0 : POLLOUT;
        pfds.push_back({r.fd, static_cast<short>(POLLIN | out), 0});
        open.push_back(&r);
      }
    }
    if (pfds.empty()) {
      break;
    }
    ASSERT_LT(std::chrono::steady_clock::now(), deadline) << "responses stalled";
    if (poll(pfds.data(), pfds.size(), 1000) <= 0) {
      continue;
    }
    for (size_t i = 0; i < pfds.size(); ++i) {
      SlowReader& r = *open[i];
      if ((pfds[i].revents & POLLOUT) != 0) {
        ASSERT_TRUE(r.Flush());
      }
      if ((pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) {
        continue;
      }
      const ssize_t n = recv(r.fd, buf.data(), buf.size(), 0);
      if (n < 0 && (errno == EAGAIN || errno == EINTR)) {
        continue;
      }
      ASSERT_GT(n, 0) << "server closed a slow reader after " << r.received
                      << " of " << r.pairs * r.unit.size() << " bytes";
      for (ssize_t k = 0; k < n; ++k, ++r.received) {
        ASSERT_EQ(buf[k], r.unit[r.received % r.unit.size()])
            << "response byte " << r.received << " out of order";
      }
      ASSERT_LE(r.received, r.pairs * r.unit.size()) << "extra response bytes";
    }
  }
  for (SlowReader& r : readers) {
    close(r.fd);
  }
  EXPECT_EQ(server.TotalStats().cmd_get, keys);
  server.Stop();
}

// A client that pipelines gets and never reads its responses may park in the
// server only what the server's own limits allow: the parser's input buffer,
// the listener-set kernel receive buffer (doubled by the kernel), and slack
// for io_uring's shared provided-buffer pool (128 KiB) plus the gets whose
// responses already went out. Parked bytes are those the client sent minus
// those still in its own send queue. Without SO_RCVBUF on the listener, the
// kernel autotunes the accepted socket's receive buffer while the server
// fills its input buffer, and the client parks MBs more.
TEST_P(CacheServerTest, NonReadingClientParksBoundedInput) {
  constexpr size_t kValueBytes = 64 * 1024;  // few gets fill every output path
  constexpr size_t kSlack = 256 * 1024;
  constexpr size_t kGiveUp = 64u << 20;
  CacheServer server(SmallServerConfig(GetParam()));
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  {
    TestClient setup(server.port());
    ASSERT_TRUE(setup.connected());
    setup.Send("set 1 0 0 " + std::to_string(kValueBytes) + "\r\n" +
               std::string(kValueBytes, 'v') + "\r\n");
    EXPECT_EQ(setup.ReadUntil("\r\n"), "STORED\r\n");
  }

  const int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(fd, 0);
  const int small_buf = 16 * 1024;
  setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &small_buf, sizeof(small_buf));
  setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &small_buf, sizeof(small_buf));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  fcntl(fd, F_SETFL, fcntl(fd, F_GETFL) | O_NONBLOCK);

  // Push gets until the socket stays unwritable for 200 ms.
  std::string chunk;
  while (chunk.size() < 64 * 1024) {
    chunk += "get 1\r\n";
  }
  size_t sent = 0;
  while (sent < kGiveUp) {
    const ssize_t n = send(fd, chunk.data(), chunk.size(), MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<size_t>(n);
      chunk.append(chunk, 0, static_cast<size_t>(n)).erase(0, static_cast<size_t>(n));
      continue;
    }
    ASSERT_TRUE(n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR))
        << "send: " << strerror(errno);
    pollfd pfd{fd, POLLOUT, 0};
    if (poll(&pfd, 1, 200) == 0) {
      break;
    }
  }
  int unsent = 0;
  ASSERT_EQ(ioctl(fd, SIOCOUTQ, &unsent), 0);
  const size_t parked = sent - static_cast<size_t>(unsent);
  const size_t bound =
      kConnInputBytes + 2 * static_cast<size_t>(kListenerRcvBufBytes) + kSlack;
  EXPECT_LE(parked, bound) << "the server's kernel receive buffer is not bounded";
  close(fd);
  server.Stop();
}

// --- The tentpole acceptance check -----------------------------------------

// Bit-exact parity: trace -> loadgen -> TCP -> parser -> per-connection
// batches -> ConcurrentS3Fifo(shards=1) must equal trace -> Simulate over
// the s3fifo policy, hit for hit. Decimal keys round-trip through KeyToId,
// a single connection preserves request order, and capacity is divisible by
// 10 so the prototype's ghost capacity (capacity - small) equals the
// simulator's (0.9 * capacity).
TEST_P(ServerSimulatorParityTest, HitCountsMatchSimulateBitExactly) {
  constexpr uint64_t kObjects = 20000;
  constexpr uint64_t kRequests = 60000;
  constexpr uint64_t kCapacity = 2000;

  // Deterministic get-only Zipf trace.
  ZipfDistribution zipf(kObjects, 1.0);
  Rng rng(97);
  std::vector<Request> reqs;
  reqs.reserve(kRequests);
  for (uint64_t i = 0; i < kRequests; ++i) {
    Request r;
    r.id = zipf.Sample(rng);
    reqs.push_back(r);
  }
  const Trace trace(std::move(reqs), "parity");

  // Reference: the simulator's s3fifo with the fingerprint ghost table.
  CacheConfig sc;
  sc.capacity = kCapacity;
  sc.params = "ghost_type=table";
  auto sim_cache = CreateCache("s3fifo", sc);
  const SimResult sim = Simulate(trace, *sim_cache);

  // Server: one worker, one shard, driven over loopback by one pipelined
  // connection.
  ServerConfig config;
  config.workers = 1;
  config.cache.capacity_objects = kCapacity;
  config.cache.value_size = 8;
  config.cache.cache_shards = 1;
  config.transport = GetParam();
  ConcurrentS3Fifo cache(config.cache);
  CacheServer server(config, &cache);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  LoadGenConfig lg;
  lg.port = server.port();
  lg.threads = 1;
  lg.connections = 1;
  lg.pipeline_depth = 32;
  const LoadGenResult r = RunLoadGen(lg, trace);
  ASSERT_TRUE(r.ok) << r.error;

  EXPECT_EQ(r.ops, kRequests);
  EXPECT_EQ(r.gets, kRequests);
  EXPECT_EQ(r.get_hits, sim.hits);
  EXPECT_EQ(kRequests - r.get_hits, sim.misses);

  // The server's own counters agree with what the client observed.
  const ServerStats stats = server.TotalStats();
  EXPECT_EQ(stats.get_hits, r.get_hits);
  EXPECT_EQ(stats.get_misses, kRequests - r.get_hits);
  EXPECT_EQ(stats.cmd_get, kRequests);
  server.Stop();
}

// The same parity must hold when requests flow through mget multi-key
// batches of varying size — key grouping changes GetBatch call shapes but
// may not change outcomes.
TEST_P(ServerSimulatorParityTest, MultiGetGroupingPreservesOutcomes) {
  constexpr uint64_t kObjects = 5000;
  constexpr uint64_t kRequests = 20000;
  constexpr uint64_t kCapacity = 500;

  ZipfDistribution zipf(kObjects, 1.0);
  Rng rng(13);
  std::vector<uint64_t> ids;
  ids.reserve(kRequests);
  for (uint64_t i = 0; i < kRequests; ++i) {
    ids.push_back(zipf.Sample(rng));
  }

  CacheConfig sc;
  sc.capacity = kCapacity;
  sc.params = "ghost_type=table";
  auto sim_cache = CreateCache("s3fifo", sc);
  uint64_t sim_hits = 0;
  for (const uint64_t id : ids) {
    Request r;
    r.id = id;
    sim_hits += sim_cache->Get(r) ? 1 : 0;
  }

  ServerConfig config;
  config.workers = 1;
  config.cache.capacity_objects = kCapacity;
  config.cache.value_size = 8;
  config.cache.cache_shards = 1;
  config.transport = GetParam();
  CacheServer server(config);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  TestClient client(server.port());
  ASSERT_TRUE(client.connected());

  // Group ids into mgets of 1..7 keys; count VALUE lines in the responses.
  // Counting by substring is sound here: every payload is a generated fill
  // of one repeated byte, which can never contain "VALUE " or "END\r\n".
  uint64_t server_hits = 0;
  Rng group_rng(5);
  size_t i = 0;
  std::string batch;
  uint64_t batch_groups = 0;
  while (i < ids.size()) {
    std::string cmd = "mget";
    const size_t group = 1 + group_rng.NextBounded(7);
    for (size_t k = 0; k < group && i < ids.size(); ++k, ++i) {
      cmd += " " + std::to_string(ids[i]);
    }
    batch += cmd + "\r\n";
    ++batch_groups;
    if (batch.size() > 16384 || i >= ids.size()) {
      client.Send(batch);
      uint64_t ends = 0;
      while (ends < batch_groups) {
        const std::string part = client.ReadUntil("END\r\n");
        for (size_t pos = 0;
             (pos = part.find("END\r\n", pos)) != std::string::npos; pos += 5) {
          ++ends;
        }
        for (size_t pos = 0;
             (pos = part.find("VALUE ", pos)) != std::string::npos; pos += 6) {
          ++server_hits;
        }
      }
      batch.clear();
      batch_groups = 0;
    }
  }
  EXPECT_EQ(server_hits, sim_hits);
  server.Stop();
}

}  // namespace
}  // namespace s3fifo
