// Fig. 8: throughput scaling with thread count for the concurrent cache
// prototypes (every name MakeConcurrentCache accepts: strict LRU,
// Cachelib-style optimized LRU, CLOCK, TinyLFU, S3-FIFO), on a Zipf(1.0)
// workload at a large (low miss ratio) and small (high miss ratio) cache
// size. Reports the hit ratio at *every* thread count (a concurrency bug
// that corrupts eviction shows up as a hit-ratio drift with threads, not
// just as a throughput artifact) and emits BENCH_fig08.json: per cell, the
// median, min and quartiles of 5 interleaved reps, plus the machine's
// environment block.
//
// NOTE: true scaling needs as many physical cores as threads. On a machine
// with fewer cores the harness still runs (threads time-share), measuring
// per-op overhead and lock contention rather than parallel speedup; the
// hardware core count is printed so results can be interpreted.
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/concurrent/concurrent_cache.h"
#include "src/concurrent/replay.h"

namespace s3fifo {
namespace {

constexpr int kReps = 5;

// Every rep of one (cache, size, threads) cell.
struct Cell {
  std::string cache;
  bool large = false;
  uint64_t capacity_objects = 0;
  unsigned threads = 0;
  std::vector<double> mops, hit_ratio, p50_ns, p99_ns, p999_ns;
};

void Run() {
  PrintHeader("Fig. 8: throughput scaling with CPU cores", "Fig. 8a (large) / 8b (small)");
  const unsigned hw_threads = std::thread::hardware_concurrency();
  std::printf("hardware threads on this machine: %u\n", hw_threads);

  const double scale = BenchScale();
  const uint64_t num_objects = 1 << 18;
  const uint64_t per_thread = static_cast<uint64_t>(400000 * scale);
  const std::vector<unsigned> thread_counts = {1, 2, 4, 8, 16};

  std::vector<Cell> cells;
  for (const bool large : {true, false}) {
    for (const std::string& kind : ConcurrentCacheNames()) {
      for (unsigned threads : thread_counts) {
        Cell c;
        c.cache = kind;
        c.large = large;
        c.capacity_objects = large ? (num_objects / 2) : (num_objects / 64);
        c.threads = threads;
        cells.push_back(std::move(c));
      }
    }
  }
  // Interleaved reps: rep r of every cell runs before rep r+1 of any, so a
  // slow stretch of the machine spreads across cells instead of biasing one.
  for (int rep = 0; rep < kReps; ++rep) {
    std::fprintf(stderr, "rep %d/%d\n", rep + 1, kReps);
    for (Cell& c : cells) {
      ConcurrentCacheConfig config;
      config.capacity_objects = c.capacity_objects;
      config.value_size = 64;
      auto cache = MakeConcurrentCache(c.cache, config);
      ReplayOptions options;
      options.num_threads = c.threads;
      options.requests_per_thread = per_thread;
      options.num_objects = num_objects;
      options.zipf_alpha = 1.0;
      const ReplayResult r = ReplayClosedLoop(*cache, options);
      c.mops.push_back(r.throughput_mops);
      c.hit_ratio.push_back(r.hit_ratio);
      c.p50_ns.push_back(static_cast<double>(r.latency.Percentile(50)));
      c.p99_ns.push_back(static_cast<double>(r.latency.Percentile(99)));
      c.p999_ns.push_back(static_cast<double>(r.latency.Percentile(99.9)));
    }
  }

  JsonFields summary;
  summary.Add("env", BenchEnvironment())
      .Add("hardware_threads", hw_threads)
      .Add("reps", kReps)
      .Add("num_objects", num_objects)
      .Add("requests_per_thread", per_thread)
      .Add("zipf_alpha", 1.0);
  std::vector<JsonFields> rows;
  for (size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    if (i == 0 || c.large != cells[i - 1].large) {
      std::printf("\n--- %s cache (%lu objects, Zipf 1.0 over %lu objects) ---\n",
                  c.large ? "large" : "small", (unsigned long)c.capacity_objects,
                  (unsigned long)num_objects);
      std::printf("columns: median Mops [IQR] (hit ratio) over %d reps, per thread count\n",
                  kReps);
      std::printf("%-14s", "cache");
      for (unsigned t : thread_counts) {
        std::printf("   T=%-2u                 ", t);
      }
    }
    if (c.threads == thread_counts.front()) {
      std::printf("\n%-14s", c.cache.c_str());
    }
    const RepSpread mops = RepSpread::Of(c.mops);
    const RepSpread hit = RepSpread::Of(c.hit_ratio);
    std::printf("  %6.2f [%5.2f] (%.3f)", mops.median, mops.iqr(), hit.median);
    rows.push_back(JsonFields()
                       .Add("cache", c.cache)
                       .Add("cache_size", c.large ? "large" : "small")
                       .Add("capacity_objects", c.capacity_objects)
                       .Add("threads", c.threads)
                       .Add("throughput_mops_median", mops.median)
                       .Add("throughput_mops_min", mops.min)
                       .Add("throughput_mops_q1", mops.q1)
                       .Add("throughput_mops_q3", mops.q3)
                       .Add("hit_ratio_median", hit.median)
                       .Add("batch_size", kReplayBatch)
                       .Add("svc_p50_ns_median", RepSpread::Of(c.p50_ns).median)
                       .Add("svc_p99_ns_median", RepSpread::Of(c.p99_ns).median)
                       .Add("svc_p999_ns_median", RepSpread::Of(c.p999_ns).median));
  }
  std::printf("\n");
  WriteBenchJson("fig08", summary, rows);
  std::printf("\npaper shape (Fig. 8): on a 16-core box, s3fifo reaches >6x the\n"
              "throughput of optimized LRU at 16 threads; optimized LRU stops scaling\n"
              "past ~2 cores; tinylfu trails LRU; strict LRU is flat. Past the\n"
              "machine's core count threads time-share, so the meaningful signals\n"
              "there are that s3fifo/clock degrade least as threads (and lock\n"
              "handoffs) grow, that tinylfu pays the largest per-op cost, and that\n"
              "each cache's hit ratio stays flat across thread counts (concurrency\n"
              "does not corrupt eviction decisions).\n");
}

}  // namespace
}  // namespace s3fifo

int main() {
  s3fifo::Run();
  return 0;
}
