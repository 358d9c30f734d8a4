// Naive reference oracle for the log-structured flash cache, and the
// differential driver that pins LogStructuredFlashCache to it bit-for-bit.
//
// The oracle re-implements the full two-tier semantics — DRAM front (LRU or
// small-FIFO + ghost), admission gate, byte FIFO or segment log with GC,
// set-associative small-object store — with deliberately flat structures:
// plain vectors scanned linearly, occupancy recomputed by summation, no
// index maps, no intrusive lists. Same philosophy as reference_model.h: the
// oracle is the side you trust when the optimized cache diverges.
//
// Both sides construct their own AdmissionPolicy from the same (name,
// horizon, seed); since the policies are deterministic functions of their
// candidate/feedback streams, any divergence in those streams surfaces as a
// later observable divergence instead of being masked.
//
// The driver compares, after every request (and every scheduled capacity
// resize): the hit decision and tier, the sorted set of ids that left the
// flash tier, DRAM / log / set occupancies, device-bytes-written, admitted
// bytes, GC rewrite bytes, set-page writes, segments GCed — and the byte-
// conservation invariant on both sides:
//
//   log: device_bytes_written == admitted_bytes + gc_rewrite_bytes
//   set: device_bytes_written == page_writes * set_bytes
#ifndef SRC_CHECK_FLASH_ORACLE_H_
#define SRC_CHECK_FLASH_ORACLE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/check/differential.h"
#include "src/check/reference_model.h"
#include "src/flash/log_flash_cache.h"
#include "src/trace/request.h"

namespace s3fifo {
namespace check {

// Everything observable about one flash-cache step.
struct FlashStepOutcome {
  bool hit = false;
  int tier = 0;  // 0 = miss, 1 = dram, 2 = log, 3 = set, -1 = delete
  std::vector<uint64_t> flash_evicted;  // ids that left flash, ascending
  uint64_t dram_occupied = 0;
  uint64_t log_live_bytes = 0;
  uint64_t set_live_bytes = 0;
  uint64_t log_device_bytes = 0;
  uint64_t log_admitted_bytes = 0;
  uint64_t gc_rewrite_bytes = 0;
  uint64_t segments_gced = 0;
  uint64_t set_page_writes = 0;
};

class NaiveFlashModel {
 public:
  NaiveFlashModel(const LogFlashCacheConfig& config,
                  std::unique_ptr<AdmissionPolicy> admission);

  FlashStepOutcome Step(const Request& req);
  // Mirrors LogStructuredFlashCache::ResizeFlash; returns the outcome of the
  // resize (tier is -1, hit false).
  FlashStepOutcome Resize(uint64_t num_segments);

  bool Contains(uint64_t id) const;
  // "" when device == admitted + rewrites (log) and device == pages * bytes
  // (sets); else a description. The driver calls this after every step.
  std::string CheckByteConservation() const;

 private:
  struct NDramEntry {
    uint64_t id = 0;
    uint32_t size = 0;
    uint32_t reads = 0;
    uint64_t insert_time = 0;
  };
  struct NLogEntry {
    uint64_t id = 0;
    uint32_t size = 0;
    uint8_t priority = 0;
    bool live = false;
  };
  struct NSegment {
    uint64_t seal_seq = 0;
    std::vector<NLogEntry> entries;
  };
  struct NSetEntry {
    uint64_t id = 0;
    uint32_t size = 0;
  };
  struct NPending {
    uint64_t id = 0;
    uint32_t size = 0;
    uint8_t priority = 0;
  };

  // DRAM front.
  NDramEntry* FindDram(uint64_t id);
  void EraseDram(uint64_t id);
  void InsertDram(uint64_t id, uint32_t size, std::vector<uint64_t>* evicted);
  void EvictDramTail(std::vector<uint64_t>* evicted);
  uint64_t DramOccupied() const;  // summation
  void RecordRejection(uint64_t id);

  // Flash routing.
  void WriteFlash(uint64_t id, uint32_t size, std::vector<uint64_t>* evicted);

  // Segment log (flat).
  NLogEntry* FindLog(uint64_t id);
  bool LogContains(uint64_t id) const;
  void LogInsert(uint64_t id, uint32_t size, std::vector<uint64_t>* evicted);
  void LogErase(uint64_t id);
  void LogLookup(uint64_t id);
  void LogAppend(uint64_t id, uint32_t size, uint8_t priority, bool is_rewrite,
                 std::vector<uint64_t>* evicted);
  void LogGcOldest(std::vector<uint64_t>* evicted);
  void LogDrainPending(std::vector<uint64_t>* evicted);
  uint64_t LogSegmentsInUse() const;
  uint64_t LogLiveBytes() const;  // summation over every segment
  uint64_t SegmentWriteOff(const NSegment& seg) const;

  // Byte FIFO (LogOrdering::kByteFifo; flat, oldest first).
  bool ByteFifo() const { return config_.log.ordering == LogOrdering::kByteFifo; }
  void FifoEvictTo(uint64_t limit, std::vector<uint64_t>* evicted);

  // Set store (flat).
  uint64_t SetOf(uint64_t id) const;
  bool SetContains(uint64_t id) const;
  void SetInsert(uint64_t id, uint32_t size, std::vector<uint64_t>* evicted);
  void SetErase(uint64_t id);
  uint64_t SetLiveBytes() const;  // summation

  FlashStepOutcome Snapshot(std::vector<uint64_t> evicted) const;

  LogFlashCacheConfig config_;
  std::unique_ptr<AdmissionPolicy> admission_;
  uint64_t clock_ = 0;
  uint64_t rejected_bound_ = 0;
  uint8_t max_priority_ = 0;

  std::vector<NDramEntry> dram_;  // front = most recent, back = eviction tail
  NaiveGhost ghost_;
  std::vector<std::pair<uint64_t, uint64_t>> rejected_at_;  // (id, clock)

  std::vector<NSegment> sealed_;  // oldest seal first
  NSegment open_;
  bool open_valid_ = false;
  uint64_t next_seal_seq_ = 1;
  std::vector<NPending> pending_;
  uint64_t log_num_segments_ = 0;
  uint64_t log_device_bytes_ = 0;
  uint64_t log_admitted_bytes_ = 0;
  uint64_t gc_rewrite_bytes_ = 0;
  uint64_t segments_gced_ = 0;
  std::vector<NSetEntry> fifo_;  // kByteFifo: oldest first

  std::vector<std::vector<NSetEntry>> sets_;
  uint64_t set_page_writes_ = 0;

  bool last_hit_ = false;
  int last_tier_ = 0;
};

// Deterministic mid-run segment-budget resizes for the fuzzer: at every
// multiple of `period` (and index > 0), both sides are resized to
// min_segments + Mix64(seed ^ index) % span. period == 0 disables.
struct FlashResizeSchedule {
  uint64_t period = 0;
  uint64_t seed = 0;
  uint64_t min_segments = 2;
  uint64_t span = 16;
};

// Replays the stream through LogStructuredFlashCache and NaiveFlashModel in
// lockstep; stops at the first divergence (or conservation violation).
Divergence RunFlashDifferential(const std::vector<Request>& requests,
                                const LogFlashCacheConfig& config,
                                const std::string& admission_name, uint64_t reuse_horizon,
                                uint64_t admission_seed,
                                const FlashResizeSchedule& resizes = {});

}  // namespace check
}  // namespace s3fifo

#endif  // SRC_CHECK_FLASH_ORACLE_H_
