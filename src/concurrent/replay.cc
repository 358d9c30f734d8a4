#include "src/concurrent/replay.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <thread>
#include <vector>

#include "src/util/rng.h"
#include "src/util/zipf.h"

namespace s3fifo {

ReplayResult ReplayClosedLoop(ConcurrentCache& cache, const ReplayOptions& options) {
  const unsigned threads = std::max(1u, options.num_threads);
  std::atomic<uint64_t> total_hits{0};
  std::atomic<bool> start{false};
  std::vector<std::thread> workers;
  workers.reserve(threads);

  const ZipfDistribution zipf(options.num_objects, options.zipf_alpha);

  ReplayResult result;
  std::mutex merge_mu;

  for (unsigned t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      Rng rng(options.seed * 0x9e3779b97f4a7c15ULL + t);
      while (!start.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      uint64_t hits = 0;
      std::vector<uint64_t> ids(kReplayBatch);
      std::vector<uint8_t> hit_bits(kReplayBatch);
      LatencyHistogram local;
      uint64_t remaining = options.requests_per_thread;
      while (remaining > 0) {
        const uint32_t n = static_cast<uint32_t>(std::min<uint64_t>(kReplayBatch, remaining));
        for (uint32_t i = 0; i < n; ++i) {
          ids[i] = zipf.Sample(rng);
        }
        const auto b0 = std::chrono::steady_clock::now();
        cache.GetBatch(ids.data(), n, hit_bits.data());
        const auto b1 = std::chrono::steady_clock::now();
        local.Add(static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(b1 - b0).count() / n));
        for (uint32_t i = 0; i < n; ++i) {
          hits += hit_bits[i];
        }
        remaining -= n;
      }
      total_hits.fetch_add(hits, std::memory_order_relaxed);
      std::lock_guard<std::mutex> lock(merge_mu);
      result.latency.Merge(local);
    });
  }

  const auto t0 = std::chrono::steady_clock::now();
  start.store(true, std::memory_order_release);
  for (auto& w : workers) {
    w.join();
  }
  const auto t1 = std::chrono::steady_clock::now();

  result.total_requests = static_cast<uint64_t>(threads) * options.requests_per_thread;
  result.elapsed_seconds = std::chrono::duration<double>(t1 - t0).count();
  result.throughput_mops = result.elapsed_seconds > 0
                               ? static_cast<double>(result.total_requests) / 1e6 /
                                     result.elapsed_seconds
                               : 0.0;
  result.hit_ratio = result.total_requests > 0
                         ? static_cast<double>(total_hits.load()) /
                               static_cast<double>(result.total_requests)
                         : 0.0;
  return result;
}

}  // namespace s3fifo
