#include "src/concurrent/replay.h"

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <thread>
#include <vector>

#include "src/util/rng.h"
#include "src/util/zipf.h"

namespace s3fifo {

namespace {

// Pins the calling thread to the (n mod k)-th of the k CPUs it may run on.
// Best effort: a thread that cannot be pinned replays unpinned.
void PinToNthAllowedCpu(unsigned n) {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0 || CPU_COUNT(&set) == 0) {
    return;
  }
  unsigned skip = n % static_cast<unsigned>(CPU_COUNT(&set));
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set) && skip-- == 0) {
      CPU_ZERO(&set);
      CPU_SET(c, &set);
      sched_setaffinity(0, sizeof(set), &set);
      return;
    }
  }
}

}  // namespace

ReplayResult ReplayClosedLoop(ConcurrentCache& cache, const ReplayOptions& options) {
  const unsigned threads = std::max(1u, options.num_threads);
  // The warm-up replays num_objects requests in all, whatever the thread
  // count, so every cell of a sweep starts timing from a comparable cache.
  const uint64_t warmup_per_thread = (options.num_objects + threads - 1) / threads;
  std::atomic<uint64_t> total_hits{0};
  std::atomic<unsigned> ready{0};
  std::atomic<bool> start{false};
  std::vector<std::thread> workers;
  workers.reserve(threads);

  const ZipfDistribution zipf(options.num_objects, options.zipf_alpha);

  ReplayResult result;
  std::mutex merge_mu;

  for (unsigned t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      PinToNthAllowedCpu(t);
      Rng rng(options.seed * 0x9e3779b97f4a7c15ULL + t);
      std::vector<uint8_t> hit_bits(kReplayBatch);
      {
        // Untimed warm-up, drawn as it goes.
        std::vector<uint64_t> warm(kReplayBatch);
        for (uint64_t left = warmup_per_thread; left > 0;) {
          const uint32_t n = static_cast<uint32_t>(std::min<uint64_t>(kReplayBatch, left));
          for (uint32_t i = 0; i < n; ++i) {
            warm[i] = zipf.Sample(rng);
          }
          cache.GetBatch(warm.data(), n, hit_bits.data());
          left -= n;
        }
      }
      // Every timed id is drawn before the start barrier, so the sampler's
      // cost stays out of the measurement.
      std::vector<uint64_t> ids(options.requests_per_thread);
      for (uint64_t& id : ids) {
        id = zipf.Sample(rng);
      }
      ready.fetch_add(1, std::memory_order_acq_rel);
      while (!start.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      uint64_t hits = 0;
      LatencyHistogram local;
      for (uint64_t at = 0; at < ids.size(); at += kReplayBatch) {
        const uint32_t n = static_cast<uint32_t>(std::min<uint64_t>(kReplayBatch, ids.size() - at));
        const auto b0 = std::chrono::steady_clock::now();
        cache.GetBatch(ids.data() + at, n, hit_bits.data());
        const auto b1 = std::chrono::steady_clock::now();
        local.Add(static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(b1 - b0).count() / n));
        for (uint32_t i = 0; i < n; ++i) {
          hits += hit_bits[i];
        }
      }
      total_hits.fetch_add(hits, std::memory_order_relaxed);
      std::lock_guard<std::mutex> lock(merge_mu);
      result.latency.Merge(local);
    });
  }

  while (ready.load(std::memory_order_acquire) < threads) {
    std::this_thread::yield();
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
