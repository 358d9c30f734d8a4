// Append-only segment log: the on-device layout production flash caches use
// (ROADMAP item 2; RIPQ, FAST'15; Kangaroo, SOSP'21).
//
// The device is divided into fixed-size segments. Writes append into one
// open segment (the open-segment buffer); when it fills it is sealed and a
// fresh segment is opened. When opening would exceed the segment budget the
// log reclaims space at segment granularity: the oldest sealed segment is
// garbage-collected as a unit. Live objects in the victim that are still hot
// are re-admitted — rewritten into the open segment, which is the write
// amplification production systems fight — and the rest leave the cache.
//
// Ordering disciplines:
//  * kFifo — one logical queue. With gc_readmit, an object hit since it was
//    written survives exactly one extra log pass (it is rewritten once, then
//    must be hit again); without, eviction is pure segment-granularity FIFO.
//  * kRipq — RIPQ-style insertion-point ordering: each object carries a
//    priority in [0, ripq_sections). A flash hit virtually promotes the
//    object one section; GC physically rewrites any object with priority
//    > 0 at the head (decaying its priority — the rewrite IS the move to
//    its insertion point) and drops priority-0 objects. A fresh admission
//    enters at insert_priority.
//  * kByteFifo — the abstract flash device of the paper's §5.4: a per-object
//    FIFO over segment_bytes * num_segments bytes. An insert evicts the
//    oldest objects until the new one fits; an object larger than the whole
//    capacity is rejected. No segments, no GC, so device bytes equal
//    admitted bytes. Hits update no ordering state; a shrinking Resize
//    evicts the oldest objects at once.
//
// Overwriting a resident id dead-marks the old copy in place (the bytes stay
// in the segment until GC) and appends a new copy. Deletes dead-mark only.
//
// Byte accounting (the invariant the differential wall checks after every
// GC): device_bytes_written == admitted_bytes + gc_rewrite_bytes — every
// byte the device absorbs is either a fresh admission or a GC rewrite.
// Write amplification = device_bytes_written / admitted_bytes.
//
// Deterministic: victim selection is by seal order, survivor rewrite order
// is entry order within the victim. No randomness anywhere.
#ifndef SRC_FLASH_SEGMENT_LOG_H_
#define SRC_FLASH_SEGMENT_LOG_H_

#include <cstdint>
#include <deque>
#include <vector>

#include "src/util/flat_map.h"
#include "src/util/intrusive_list.h"

namespace s3fifo {

enum class LogOrdering { kFifo, kRipq, kByteFifo };

struct SegmentLogConfig {
  uint64_t segment_bytes = 256 * 1024;
  uint64_t num_segments = 16;  // device capacity = segment_bytes * num_segments
  LogOrdering ordering = LogOrdering::kFifo;
  // kFifo: rewrite objects hit since their last write on GC (one extra pass).
  bool gc_readmit = true;
  // kRipq: number of priority sections (>= 1) and the section a fresh
  // admission enters at (clamped to ripq_sections - 1).
  uint32_t ripq_sections = 4;
  uint32_t insert_priority = 0;
};

struct SegmentLogStats {
  uint64_t admitted_bytes = 0;  // fresh admissions (user bytes)
  uint64_t admitted_objects = 0;
  uint64_t gc_rewrite_bytes = 0;  // GC re-admissions (device-only bytes)
  uint64_t gc_rewrite_objects = 0;
  uint64_t device_bytes_written = 0;  // every byte appended to any segment
  uint64_t segments_sealed = 0;
  uint64_t segments_gced = 0;
  uint64_t dropped_objects = 0;  // left the cache during GC
  uint64_t dropped_bytes = 0;
  uint64_t oversize_rejects = 0;  // object larger than one segment

  double WriteAmplification() const {
    return admitted_bytes == 0 ? 0.0
                               : static_cast<double>(device_bytes_written) /
                                     static_cast<double>(admitted_bytes);
  }
};

class SegmentLog {
 public:
  explicit SegmentLog(const SegmentLogConfig& config);

  // Read path. Lookup marks the hit for the ordering discipline (RIPQ
  // virtual promotion / FIFO readmit bit); Contains is side-effect free.
  bool Contains(uint64_t id) const;
  bool Lookup(uint64_t id);
  // Size of the live copy; 0 if absent (and for live zero-byte objects).
  uint32_t SizeOf(uint64_t id) const;

  // Appends a fresh admission, sealing/GCing as needed. Ids that leave the
  // cache during GC are appended to `evicted` (may be null). Returns false
  // (and counts an oversize reject) when size > segment_bytes (kByteFifo:
  // size > capacity_bytes()).
  bool Insert(uint64_t id, uint32_t size, std::vector<uint64_t>* evicted);
  // Dead-marks the live copy (kByteFifo: frees it). Returns false if absent.
  bool Erase(uint64_t id);

  // Changes the segment budget; shrinking GCs the oldest sealed segments
  // immediately (survivor rewrites and drops count as usual). Under
  // kByteFifo it evicts the oldest objects until the new capacity holds.
  void Resize(uint64_t num_segments, std::vector<uint64_t>* evicted);

  uint64_t live_bytes() const { return live_bytes_; }
  uint64_t live_objects() const { return index_.size() + fifo_.size(); }
  uint64_t segments_in_use() const {
    return sealed_.size() + (open_slot_ == kNoSlot ? 0 : 1);
  }
  uint64_t num_segments() const { return config_.num_segments; }
  uint64_t segment_bytes() const { return config_.segment_bytes; }
  uint64_t capacity_bytes() const { return config_.segment_bytes * config_.num_segments; }
  // Seal sequence of the most recently collected victim (determinism hook).
  uint64_t last_gc_victim_seq() const { return last_gc_victim_seq_; }
  const SegmentLogStats& stats() const { return stats_; }

 private:
  struct SegEntry {
    uint64_t id = 0;
    uint32_t size = 0;
    uint8_t priority = 0;
    bool live = false;
  };
  struct Segment {
    uint64_t seal_seq = 0;  // 0 while open
    uint64_t write_off = 0;
    std::vector<SegEntry> entries;
  };
  struct Locator {
    uint32_t slot = 0;
    uint32_t idx = 0;
  };
  struct FifoEntry {
    uint64_t id = 0;
    uint32_t size = 0;
    ListHook hook;
  };
  struct PendingRewrite {
    uint64_t id = 0;
    uint32_t size = 0;
    uint8_t priority = 0;
  };

  static constexpr uint32_t kNoSlot = ~0u;

  void AppendRaw(uint64_t id, uint32_t size, uint8_t priority, bool is_rewrite,
                 std::vector<uint64_t>* evicted);
  void AcquireOpen(std::vector<uint64_t>* evicted);
  void Seal();
  void GcOldest(std::vector<uint64_t>* evicted);
  void DrainPending(std::vector<uint64_t>* evicted);
  void DeadMark(const Locator& loc);
  void EvictFifoTo(uint64_t limit, std::vector<uint64_t>* evicted);

  SegmentLogConfig config_;
  uint8_t max_priority_;

  std::vector<Segment> slots_;
  std::vector<uint32_t> free_slots_;
  std::deque<uint32_t> sealed_;  // slot ids, oldest seal first
  uint32_t open_slot_ = kNoSlot;
  uint64_t next_seal_seq_ = 1;
  uint64_t last_gc_victim_seq_ = 0;

  FlatMap<Locator> index_;  // id -> live copy
  uint64_t live_bytes_ = 0;
  std::deque<PendingRewrite> pending_;  // survivors awaiting re-append

  // kByteFifo only: the object FIFO, newest at the front.
  FlatMap<FifoEntry> fifo_;
  IntrusiveList<FifoEntry, &FifoEntry::hook> fifo_queue_;

  SegmentLogStats stats_;
};

}  // namespace s3fifo

#endif  // SRC_FLASH_SEGMENT_LOG_H_
