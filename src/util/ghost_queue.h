// Exact ghost FIFO queue: remembers the ids (not the data) of the last
// `capacity` evicted objects. This is the precise reference structure; the
// space-efficient fingerprint variant from paper §4.2 is GhostTable.
//
// Re-inserting an id refreshes its position (moves it to the head); each id
// occupies at most one live slot.
#ifndef SRC_UTIL_GHOST_QUEUE_H_
#define SRC_UTIL_GHOST_QUEUE_H_

#include <cstdint>
#include <deque>
#include <utility>

#include "src/util/flat_map.h"

namespace s3fifo {

class GhostQueue {
 public:
  explicit GhostQueue(uint64_t capacity);

  // Inserts id at the head (refreshing its position if already present);
  // evicts the oldest live entry if the queue is full.
  void Insert(uint64_t id);
  bool Contains(uint64_t id) const;
  // Removes id (e.g. on a ghost hit). No-op if absent.
  void Remove(uint64_t id);
  void Clear();

  uint64_t size() const { return static_cast<uint64_t>(seq_of_.size()); }
  uint64_t capacity() const { return capacity_; }
  // Shrinking evicts the oldest entries immediately.
  void set_capacity(uint64_t capacity);

 private:
  void EvictOldest();
  void DrainStale();

  uint64_t capacity_;
  uint64_t next_seq_ = 0;
  // A fifo_ slot is live iff seq_of_[id] == seq; stale slots are skipped
  // lazily when they reach the front.
  std::deque<std::pair<uint64_t, uint64_t>> fifo_;  // (seq, id), oldest first
  FlatMap<uint64_t> seq_of_;                        // id -> live seq
};

}  // namespace s3fifo

#endif  // SRC_UTIL_GHOST_QUEUE_H_
