// End-to-end cache-as-a-service benchmark: the cache server (src/server/)
// behind the memcached text protocol, driven over loopback TCP by the
// in-process load generator. The client is a fixed instrument — the
// loadgen always runs on epoll — so the sweep varies only the *server*:
// transport backend (epoll readiness loop vs io_uring completion ring) x
// worker threads x pipelining depth, closed loop (each connection keeps
// `depth` requests in flight). Every cell runs kReps times, interleaved
// (rep-major, so slow drift of the machine spreads over all cells instead
// of biasing one), and reports the median with min and quartiles. Each row
// also carries the server's kernel crossings per operation (from the
// transport counters). Emits BENCH_server.json with an env block.
//
// All threads — server workers and client — are pinned to one CPU, so a
// row measures the CPU cost of serving plus client, not wake-up latency
// between CPUs. On a VM the latter dominates and varies with where the
// threads land: unpinned or on separate vCPUs, rep-to-rep spreads reach
// half the median and hide any transport difference. Absolute numbers are
// loopback round-trip costs on one core, not NIC-limited serving capacity;
// compare cells against each other, and only where the quartile ranges
// separate.
#include <sched.h>

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/server/cache_server.h"
#include "src/server/loadgen.h"
#include "src/server/transport.h"
#include "src/workload/zipf_workload.h"

namespace s3fifo {
namespace {

constexpr int kReps = 5;

// Pins the calling thread, and every thread it creates from now on, to
// the second allowed CPU (the first when only one is allowed), leaving the
// first to the kernel's network and timer work. Returns the CPU, or -1.
int PinToOneCpu() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) {
    return -1;
  }
  int chosen = -1;
  for (int c = 0, seen = 0; c < CPU_SETSIZE && seen < 2; ++c) {
    if (CPU_ISSET(c, &set)) {
      chosen = c;
      ++seen;
    }
  }
  if (chosen < 0) {
    return -1;
  }
  CPU_ZERO(&set);
  CPU_SET(chosen, &set);
  return sched_setaffinity(0, sizeof(set), &set) == 0 ? chosen : -1;
}

struct Cell {
  TransportKind transport;
  unsigned workers;
  unsigned depth;
  std::vector<double> rate, p50_us, p99_us, syscalls_per_op, hit;
};

void Run() {
  PrintHeader("Cache server over loopback: server transport x workers x depth",
              "§5.3 methodology, served over the network front end");
  const uint64_t closed_ops = static_cast<uint64_t>(200000 * BenchScale());

  ZipfWorkloadConfig workload;
  workload.num_objects = 1 << 17;
  workload.num_requests = 1 << 20;
  workload.alpha = 1.0;
  workload.seed = 7;
  const Trace trace = GenerateZipfTrace(workload);

  std::vector<TransportKind> transports = {TransportKind::kEpoll};
  std::string why;
  if (IoUringAvailable(&why)) {
    transports.push_back(TransportKind::kUring);
  } else {
    std::printf("io_uring unavailable (%s): epoll-only grid\n", why.c_str());
  }
  const unsigned kWorkers[] = {1, 2};
  const unsigned kDepths[] = {1, 8, 32};
  const int cpu = PinToOneCpu();

  std::vector<Cell> cells;
  for (const TransportKind t : transports) {
    for (const unsigned w : kWorkers) {
      for (const unsigned d : kDepths) {
        cells.push_back({t, w, d, {}, {}, {}, {}, {}});
      }
    }
  }

  for (int rep = 0; rep < kReps; ++rep) {
    std::fprintf(stderr, "rep %d/%d\n", rep + 1, kReps);
    // One server per (transport, workers) per rep, serving every depth.
    for (size_t first = 0; first < cells.size();) {
      const Cell& head = cells[first];
      ServerConfig sconfig;
      sconfig.workers = head.workers;
      sconfig.cache.capacity_objects = 1 << 15;
      sconfig.cache.value_size = 64;
      sconfig.transport = head.transport;
      CacheServer server(sconfig);
      std::string error;
      if (!server.Start(&error)) {
        std::fprintf(stderr, "server start failed: %s\n", error.c_str());
        return;
      }
      size_t i = first;
      for (; i < cells.size() && cells[i].transport == head.transport &&
             cells[i].workers == head.workers;
           ++i) {
        Cell& cell = cells[i];
        LoadGenConfig lg;
        lg.port = server.port();
        lg.threads = cell.workers;
        lg.connections = 2 * cell.workers;
        lg.pipeline_depth = cell.depth;
        lg.max_ops = closed_ops;
        const uint64_t syscalls_before = server.TotalStats().transport_syscalls;
        const LoadGenResult r = RunLoadGen(lg, trace);
        if (!r.ok) {
          std::fprintf(stderr, "loadgen failed: %s\n", r.error.c_str());
          return;
        }
        const uint64_t syscalls =
            server.TotalStats().transport_syscalls - syscalls_before;
        cell.rate.push_back(r.achieved_rate);
        cell.p50_us.push_back(r.latency.Percentile(50) / 1e3);
        cell.p99_us.push_back(r.latency.Percentile(99) / 1e3);
        cell.syscalls_per_op.push_back(
            r.ops > 0 ? static_cast<double>(syscalls) / r.ops : 0);
        cell.hit.push_back(
            r.gets > 0 ? static_cast<double>(r.get_hits) / r.gets : 0);
      }
      server.Stop();
      first = i;
    }
  }

  JsonFields summary;
  summary.Add("env", BenchEnvironment())
      .Add("client", "loadgen on epoll (fixed for every row)")
      .Add("pinned_cpu", cpu)
      .Add("reps", kReps)
      .Add("zipf_objects", workload.num_objects)
      .Add("zipf_alpha", workload.alpha)
      .Add("capacity_objects", uint64_t{1} << 15)
      .Add("closed_ops", closed_ops)
      .Add("server_transports",
           transports.size() == 2 ? "epoll,uring" : "epoll");
  std::vector<JsonFields> rows;
  std::printf("%-6s %-8s %-6s %-6s %12s %21s %9s %9s %9s %8s\n", "server",
              "workers", "conns", "depth", "rate(/s)", "rate q1..q3", "p50(us)",
              "p99(us)", "sysc/op", "hit");
  for (const Cell& cell : cells) {
    const RepSpread rate = RepSpread::Of(cell.rate);
    const RepSpread p50 = RepSpread::Of(cell.p50_us);
    const RepSpread p99 = RepSpread::Of(cell.p99_us);
    const RepSpread sysc = RepSpread::Of(cell.syscalls_per_op);
    const RepSpread hit = RepSpread::Of(cell.hit);
    const char* tname = TransportKindName(cell.transport);
    std::printf("%-6s %-8u %-6u %-6u %12.0f %10.0f..%-10.0f %9.1f %9.1f %9.3f "
                "%8.4f\n",
                tname, cell.workers, 2 * cell.workers, cell.depth, rate.median,
                rate.q1, rate.q3, p50.median, p99.median, sysc.median,
                hit.median);
    rows.push_back(JsonFields()
                       .Add("server_transport", tname)
                       .Add("workers", cell.workers)
                       .Add("connections", 2 * cell.workers)
                       .Add("depth", cell.depth)
                       .Add("ops", closed_ops)
                       .Add("rate_ops_s_median", rate.median)
                       .Add("rate_ops_s_min", rate.min)
                       .Add("rate_ops_s_q1", rate.q1)
                       .Add("rate_ops_s_q3", rate.q3)
                       .Add("p50_us_median", p50.median)
                       .Add("p50_us_iqr", p50.iqr())
                       .Add("p99_us_median", p99.median)
                       .Add("p99_us_iqr", p99.iqr())
                       .Add("server_syscalls_per_op_median", sysc.median)
                       .Add("server_syscalls_per_op_iqr", sysc.iqr())
                       .Add("hit_ratio_median", hit.median));
  }
  WriteBenchJson("server", summary, rows);
  std::printf("\nreading: a server-transport difference is real only where the\n"
              "rate quartile ranges of the two rows do not overlap. Deeper\n"
              "pipelines fuse more gets per GetBatch and amortize syscalls;\n"
              "io_uring spends fewer server syscalls per op at every depth.\n");
}

}  // namespace
}  // namespace s3fifo

int main() {
  s3fifo::Run();
  return 0;
}
