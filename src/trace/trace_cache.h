// A persistent, content-addressed on-disk cache of generated traces.
//
// Synthetic workload generation dominates cold figure regeneration (Zipf
// sampling, scan/loop mixing, per-request RNG), yet the output is a pure
// function of (generator, parameters, seed). The cache keys a generator spec
// to a v2 columnar trace file (trace_format.h): the first use generates and
// persists the trace; every later run — including across processes — mmaps
// the file read-only and serves a zero-copy columnar TraceView, so a cached
// trace is never deserialized into AoS Request records at all. This is the
// compact-binary-trace discipline libCacheSim applies to production traces,
// pointed at our generator outputs.
//
// Integrity: the v2 header carries the order-sensitive trace fingerprint.
// Verification is lazy — deferred to the first map of a key in a process,
// not rerun on later acquisitions of the same mapping — and a file that
// fails structural checks or the fingerprint is discarded and regenerated.
//
// Concurrency: populations write to a unique temp file and publish with an
// atomic rename(2), so two workers (threads or processes) racing on the same
// key both end up reading one valid file; byte-determinism of the v2 writer
// makes either winner equivalent.
#ifndef SRC_TRACE_TRACE_CACHE_H_
#define SRC_TRACE_TRACE_CACHE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/trace/trace_view.h"

namespace s3fifo {

// Version of the in-repo workload generators, folded into every cache key.
// Bump it whenever any generator's output changes (the golden-trace tests
// will flag such a change); stale cache files then simply stop being hit.
inline constexpr uint64_t kTraceGeneratorVersion = 1;

// Identifies one generated trace. `group` labels the source for reports
// (dataset profile name, "zipf", ...); `detail` is a canonical serialization
// of every parameter that affects the generator's output, including seeds.
struct TraceSpec {
  std::string group;
  std::string detail;
  uint64_t generator_version = kTraceGeneratorVersion;

  // "<sanitized-group>-<16 hex digest chars>" — stable across processes and
  // platforms, filesystem-safe.
  std::string CacheKey() const;
};

// Maps a v2 trace file read-only and wraps it in a columnar TraceView (the
// view shares ownership of the mapping). Structural validation (magic,
// version, exact file size for the header's request count) always runs;
// `verify` additionally recomputes the fingerprint and range-checks the op
// column in one linear pass. Throws std::runtime_error on any failure.
TraceView MapTraceFile(const std::string& path, bool verify = true);

struct TraceCacheOptions {
  // Verify the fingerprint on the first map of each key in this process.
  bool verify_fingerprint = true;
};

// One GetOrGenerate resolution, for the bench reports (BENCH_trace_cache).
struct TraceCacheEvent {
  TraceSpec spec;
  std::string path;  // the cache file that serves the spec
  bool warm = false;  // served from disk (or the in-process mapping table)
  uint64_t requests = 0;
};

class TraceCache {
 public:
  // Creates `dir` (and parents) if missing. Throws on failure.
  explicit TraceCache(std::string dir, TraceCacheOptions options = {});

  TraceCache(const TraceCache&) = delete;
  TraceCache& operator=(const TraceCache&) = delete;

  // Returns the view for `spec`, generating and persisting the trace on
  // first use. `generate` must be deterministic in the spec. Thread-safe;
  // concurrent misses on the same key generate once per process.
  TraceView GetOrGenerate(const TraceSpec& spec, const std::function<Trace()>& generate);

  const std::string& dir() const { return dir_; }
  uint64_t hits() const;
  uint64_t misses() const;
  std::vector<TraceCacheEvent> events() const;

 private:
  std::string dir_;
  TraceCacheOptions options_;
  mutable std::mutex mu_;
  // Open mappings, one per key: repeated acquisitions share one mmap and the
  // (lazy) fingerprint verification done when it was first mapped.
  std::map<std::string, TraceView> mapped_;
  // Per-key generation locks so a miss on one key never serializes another.
  std::map<std::string, std::shared_ptr<std::mutex>> inflight_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  std::vector<TraceCacheEvent> events_;
};

}  // namespace s3fifo

#endif  // SRC_TRACE_TRACE_CACHE_H_
