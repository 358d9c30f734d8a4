#include "src/util/ghost_queue.h"

#include <algorithm>

namespace s3fifo {

GhostQueue::GhostQueue(uint64_t capacity) : capacity_(std::max<uint64_t>(capacity, 1)) {}

void GhostQueue::Insert(uint64_t id) {
  // Evict before emplacing: a fresh entry holds seq 0 until assigned, so an
  // eviction in between could match it to a stale fifo_ slot and erase it.
  if (!seq_of_.Contains(id)) {
    while (seq_of_.size() >= capacity_) {
      EvictOldest();
    }
  }
  const uint64_t seq = next_seq_++;
  *seq_of_.Emplace(id) = seq;  // any older slot for id becomes stale
  fifo_.emplace_back(seq, id);
  DrainStale();
}

bool GhostQueue::Contains(uint64_t id) const { return seq_of_.Contains(id); }

void GhostQueue::Remove(uint64_t id) { seq_of_.Erase(id); }

void GhostQueue::Clear() {
  fifo_.clear();
  seq_of_.Clear();
}

void GhostQueue::set_capacity(uint64_t capacity) {
  capacity_ = std::max<uint64_t>(capacity, 1);
  while (seq_of_.size() > capacity_) {
    EvictOldest();
  }
}

void GhostQueue::EvictOldest() {
  while (!fifo_.empty()) {
    const auto [seq, id] = fifo_.front();
    fifo_.pop_front();
    const uint64_t* live = seq_of_.Find(id);
    if (live != nullptr && *live == seq) {
      seq_of_.Erase(id);
      return;
    }
  }
}

void GhostQueue::DrainStale() {
  // Bound fifo_'s footprint: stale slots can at most double the deque before
  // this compaction kicks in.
  if (fifo_.size() <= 2 * capacity_ + 16) {
    return;
  }
  std::deque<std::pair<uint64_t, uint64_t>> compacted;
  for (const auto& [seq, id] : fifo_) {
    const uint64_t* live = seq_of_.Find(id);
    if (live != nullptr && *live == seq) {
      compacted.emplace_back(seq, id);
    }
  }
  fifo_.swap(compacted);
}

}  // namespace s3fifo
