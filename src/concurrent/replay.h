// Closed-loop trace replay against a ConcurrentCache — the prototype
// benchmark methodology of §5.3: each thread issues back-to-back batches of
// requests drawn from a Zipf distribution; misses are filled on demand with
// pre-generated data; throughput is aggregated over all threads.
//
// Each thread is pinned to one CPU of the process's allowed set (thread t
// to the (t mod n)-th), first replays an untimed warm-up (num_objects
// requests across all threads), and draws all of its timed ids before the
// start barrier; the timed window holds only the GetBatch calls, and the
// hit ratio counts only timed requests.
//
// Requests are routed through ConcurrentCache::GetBatch in blocks of
// kReplayBatch — the same software-pipelined path the network front end
// (src/server/) drives per connection — and each batch's wall time is
// recorded into a per-thread LatencyHistogram (as per-request service time:
// batch nanoseconds / batch size), merged into ReplayResult::latency.
#ifndef SRC_CONCURRENT_REPLAY_H_
#define SRC_CONCURRENT_REPLAY_H_

#include <cstdint>

#include "src/concurrent/concurrent_cache.h"
#include "src/sim/metrics.h"

namespace s3fifo {

// Requests per GetBatch call.
inline constexpr uint32_t kReplayBatch = 64;

struct ReplayOptions {
  unsigned num_threads = 1;
  uint64_t requests_per_thread = 1000000;
  uint64_t num_objects = 1 << 20;  // Zipf universe
  double zipf_alpha = 1.0;
  uint64_t seed = 7;
};

struct ReplayResult {
  double throughput_mops = 0.0;  // million requests / second, all threads
  double hit_ratio = 0.0;
  double elapsed_seconds = 0.0;
  uint64_t total_requests = 0;
  // Per-request service time in nanoseconds, sampled at batch granularity
  // and merged across threads.
  LatencyHistogram latency;
};

ReplayResult ReplayClosedLoop(ConcurrentCache& cache, const ReplayOptions& options);

}  // namespace s3fifo

#endif  // SRC_CONCURRENT_REPLAY_H_
