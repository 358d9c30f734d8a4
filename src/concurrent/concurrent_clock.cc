#include "src/concurrent/concurrent_clock.h"

#include "src/concurrent/value_payload.h"

namespace s3fifo {

ConcurrentClock::ConcurrentClock(const ConcurrentCacheConfig& config)
    : value_size_(config.value_size), core_(config) {}

bool ConcurrentClock::Get(uint64_t id) {
  Shard& s = core_.ShardFor(id);
  EbrDomain::Guard guard;
  if (Entry* e = s.index.Find(id)) {
    // The whole hit path: one wait-free probe and one relaxed store.
    e->ref.store(1, std::memory_order_relaxed);
    (void)ReadValuePayload(e->value.get(), value_size_);
    core_.CountHits(1);
    return true;
  }

  Entry* e = new Entry;
  e->id = id;
  e->value = MakeValuePayload(id, value_size_);
  return core_.AdmitMiss(s, e, [this](Shard& sh, std::vector<Entry*>& victims) {
    DrainLocked(sh, victims);
  });
}

void ConcurrentClock::DrainLocked(Shard& s, std::vector<Entry*>& victims) {
  Entry* e = nullptr;
  while (s.gate.pending().TryPop(&e)) {
    s.list.PushFront(e);
    ++s.linked;
    while (s.linked > s.capacity_objects && !s.list.empty()) {
      Entry* hand = s.list.Back();
      if (hand == nullptr || hand == e) {
        break;  // pathological capacity-1 shard
      }
      if (hand->ref.exchange(0, std::memory_order_relaxed) != 0) {
        s.list.MoveToFront(hand);  // second chance
        continue;
      }
      s.list.Remove(hand);
      --s.linked;
      s.resident.fetch_sub(1, std::memory_order_relaxed);
      victims.push_back(hand);
    }
  }
}

}  // namespace s3fifo
