// Outside-in layer measurements: each function times calls into one
// module's public API on the workload's own inputs and appends per-layer
// metrics to the result. Nothing here runs inside the measured window.
#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "kv.h"
#include "src/flash/log_flash_cache.h"
#include "src/sim/simulator.h"
#include "src/trace/trace.h"
#include "util.h"

namespace perfbench {

// The policies of the offline figure job, in report order.
const std::vector<std::string>& FigurePolicies();

// protocol: the client's request bytes for `n` stream requests from
// `begin` (cyclically) through ParseCommand + KeyToId; fails the run if a
// parsed id or op differs.
void MeasureProtocol(const KvStream& stream, size_t begin, size_t n, RunResult* res);

// concurrent: a fresh ConcurrentS3Fifo built like the server's is warmed
// with the stream before `begin`, then serves `n` requests from `begin`
// with gets fused into GetBatch calls of `width` keys, on one thread and
// then on two (each owning half the keys).
void MeasureConcurrent(const KvStream& stream, size_t begin, size_t n, uint64_t capacity,
                       uint32_t value_bytes, uint32_t width, RunResult* res);

// Converts the first `n` stream requests to a simulator trace (objects of
// `value_bytes`, set bodies at their own length).
s3fifo::Trace TraceFromStream(const KvStream& stream, size_t n, uint32_t value_bytes);

// A 32-point capacity grid, log-spaced over 0.1%..50% of `objects`.
std::vector<uint64_t> MrcGrid(uint64_t objects);

// Flash tier sized from the trace: 10% of its footprint bytes on a
// segment log with GC readmission, a DRAM small FIFO of 1% of that.
s3fifo::LogFlashCacheConfig FlashConfigFor(const s3fifo::Trace& trace);

struct FlashRun {
  s3fifo::LogFlashCacheStats stats;
  uint64_t admitted_bytes = 0;
  uint64_t gc_rewrite_bytes = 0;
  uint64_t device_bytes = 0;
};
// The s3fifo-filtered log-structured flash cache over the whole trace.
FlashRun RunFlash(const s3fifo::Trace& trace);

// sim, analysis and flash on `trace` at `capacity` objects: Simulate per
// figure policy, OnePassMrc over MrcGrid, and RunFlash.
void MeasureSimLayers(const s3fifo::Trace& trace, uint64_t capacity, RunResult* res);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
