#include "src/flash/segment_log.h"

#include <algorithm>

namespace s3fifo {
namespace {

uint8_t MaxPriority(const SegmentLogConfig& config) {
  if (config.ordering == LogOrdering::kRipq) {
    const uint32_t sections = std::max<uint32_t>(config.ripq_sections, 1);
    return static_cast<uint8_t>(std::min<uint32_t>(sections - 1, 255));
  }
  return config.gc_readmit ? 1 : 0;
}

}  // namespace

SegmentLog::SegmentLog(const SegmentLogConfig& config)
    : config_(config), max_priority_(MaxPriority(config)) {
  config_.num_segments = std::max<uint64_t>(config_.num_segments, 1);
  config_.segment_bytes = std::max<uint64_t>(config_.segment_bytes, 1);
  config_.insert_priority = std::min<uint32_t>(config_.insert_priority, max_priority_);
}

bool SegmentLog::Contains(uint64_t id) const {
  return index_.Find(id) != nullptr || fifo_.Find(id) != nullptr;
}

uint32_t SegmentLog::SizeOf(uint64_t id) const {
  if (const FifoEntry* f = fifo_.Find(id)) {
    return f->size;
  }
  const Locator* loc = index_.Find(id);
  return loc == nullptr ? 0 : slots_[loc->slot].entries[loc->idx].size;
}

bool SegmentLog::Lookup(uint64_t id) {
  Locator* loc = index_.Find(id);
  if (loc == nullptr) {
    return fifo_.Find(id) != nullptr;  // byte FIFO: hits update no ordering state
  }
  SegEntry& e = slots_[loc->slot].entries[loc->idx];
  e.priority = static_cast<uint8_t>(std::min<uint32_t>(e.priority + 1, max_priority_));
  return true;
}

bool SegmentLog::Insert(uint64_t id, uint32_t size, std::vector<uint64_t>* evicted) {
  const bool byte_fifo = config_.ordering == LogOrdering::kByteFifo;
  if (size > (byte_fifo ? capacity_bytes() : config_.segment_bytes)) {
    ++stats_.oversize_rejects;
    return false;
  }
  Erase(id);
  stats_.admitted_bytes += size;
  ++stats_.admitted_objects;
  if (byte_fifo) {
    EvictFifoTo(capacity_bytes() - size, evicted);
    FifoEntry* e = fifo_.Emplace(id);
    e->id = id;
    e->size = size;
    fifo_queue_.PushFront(e);
    live_bytes_ += size;
    stats_.device_bytes_written += size;
    return true;
  }
  AppendRaw(id, size, static_cast<uint8_t>(config_.insert_priority), /*is_rewrite=*/false,
            evicted);
  DrainPending(evicted);
  return true;
}

bool SegmentLog::Erase(uint64_t id) {
  if (FifoEntry* f = fifo_.Find(id)) {
    live_bytes_ -= f->size;
    fifo_queue_.Remove(f);
    fifo_.Erase(id);
    return true;
  }
  Locator* loc = index_.Find(id);
  if (loc == nullptr) {
    return false;
  }
  DeadMark(*loc);
  index_.Erase(id);
  return true;
}

void SegmentLog::Resize(uint64_t num_segments, std::vector<uint64_t>* evicted) {
  config_.num_segments = std::max<uint64_t>(num_segments, 1);
  if (config_.ordering == LogOrdering::kByteFifo) {
    EvictFifoTo(capacity_bytes(), evicted);
    return;
  }
  // Shrink: collect oldest sealed segments until the budget holds again.
  while (segments_in_use() > config_.num_segments && !sealed_.empty()) {
    GcOldest(evicted);
    DrainPending(evicted);
  }
}

void SegmentLog::DeadMark(const Locator& loc) {
  SegEntry& e = slots_[loc.slot].entries[loc.idx];
  e.live = false;
  live_bytes_ -= e.size;
}

void SegmentLog::EvictFifoTo(uint64_t limit, std::vector<uint64_t>* evicted) {
  while (live_bytes_ > limit) {
    FifoEntry* victim = fifo_queue_.Back();
    const uint64_t id = victim->id;
    live_bytes_ -= victim->size;
    ++stats_.dropped_objects;
    stats_.dropped_bytes += victim->size;
    if (evicted != nullptr) {
      evicted->push_back(id);
    }
    fifo_queue_.Remove(victim);
    fifo_.Erase(id);
  }
}

void SegmentLog::AppendRaw(uint64_t id, uint32_t size, uint8_t priority, bool is_rewrite,
                           std::vector<uint64_t>* evicted) {
  if (open_slot_ == kNoSlot) {
    AcquireOpen(evicted);
  } else if (slots_[open_slot_].write_off + size > config_.segment_bytes) {
    Seal();
    AcquireOpen(evicted);
  }
  Segment& open = slots_[open_slot_];
  Locator loc;
  loc.slot = open_slot_;
  loc.idx = static_cast<uint32_t>(open.entries.size());
  SegEntry e;
  e.id = id;
  e.size = size;
  e.priority = priority;
  e.live = true;
  open.entries.push_back(e);
  open.write_off += size;
  *index_.Emplace(id) = loc;
  live_bytes_ += size;
  stats_.device_bytes_written += size;
  if (is_rewrite) {
    stats_.gc_rewrite_bytes += size;
    ++stats_.gc_rewrite_objects;
  }
}

void SegmentLog::Seal() {
  slots_[open_slot_].seal_seq = next_seal_seq_++;
  sealed_.push_back(open_slot_);
  open_slot_ = kNoSlot;
  ++stats_.segments_sealed;
}

void SegmentLog::AcquireOpen(std::vector<uint64_t>* evicted) {
  // Opening a segment must keep open + sealed within the budget; reclaim the
  // oldest sealed segments until it does.
  while (sealed_.size() + 1 > config_.num_segments && !sealed_.empty()) {
    GcOldest(evicted);
  }
  if (free_slots_.empty()) {
    slots_.emplace_back();
    free_slots_.push_back(static_cast<uint32_t>(slots_.size() - 1));
  }
  open_slot_ = free_slots_.back();
  free_slots_.pop_back();
}

void SegmentLog::GcOldest(std::vector<uint64_t>* evicted) {
  const uint32_t victim_slot = sealed_.front();
  sealed_.pop_front();
  Segment& victim = slots_[victim_slot];
  last_gc_victim_seq_ = victim.seal_seq;
  ++stats_.segments_gced;
  for (const SegEntry& e : victim.entries) {
    if (!e.live) {
      continue;
    }
    index_.Erase(e.id);
    live_bytes_ -= e.size;
    if (e.priority > 0) {
      // Still hot: survives this pass, rewritten one section colder.
      PendingRewrite p;
      p.id = e.id;
      p.size = e.size;
      p.priority = static_cast<uint8_t>(e.priority - 1);
      pending_.push_back(p);
    } else {
      ++stats_.dropped_objects;
      stats_.dropped_bytes += e.size;
      if (evicted != nullptr) {
        evicted->push_back(e.id);
      }
    }
  }
  victim.entries.clear();
  victim.write_off = 0;
  victim.seal_seq = 0;
  free_slots_.push_back(victim_slot);
}

void SegmentLog::DrainPending(std::vector<uint64_t>* evicted) {
  // Survivor rewrites can seal the open segment and trigger further GC,
  // which appends more survivors; priorities decay on every pass, so the
  // queue drains in bounded work even when everything is hot.
  while (!pending_.empty()) {
    const PendingRewrite p = pending_.front();
    pending_.pop_front();
    AppendRaw(p.id, p.size, p.priority, /*is_rewrite=*/true, evicted);
  }
}

}  // namespace s3fifo
