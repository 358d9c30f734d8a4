#include "src/concurrent/concurrent_lru.h"

#include "src/concurrent/value_payload.h"

namespace s3fifo {

ConcurrentLruStrict::ConcurrentLruStrict(const ConcurrentCacheConfig& config)
    : config_(config) {
  table_.reserve(config.capacity_objects * 2);
}

ConcurrentLruStrict::~ConcurrentLruStrict() = default;

bool ConcurrentLruStrict::Get(uint64_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = table_.find(id);
  if (it != table_.end()) {
    list_.MoveToFront(&it->second);
    (void)ReadValuePayload(it->second.value.get(), config_.value_size);
    ++hits_;
    return true;
  }
  while (table_.size() >= config_.capacity_objects && !list_.empty()) {
    Entry* victim = list_.PopBack();
    table_.erase(victim->id);
  }
  Entry& e = table_[id];
  e.id = id;
  e.value = MakeValuePayload(id, config_.value_size);
  list_.PushFront(&e);
  ++misses_;
  return false;
}

uint64_t ConcurrentLruStrict::ApproxSize() const {
  std::lock_guard<std::mutex> lock(mu_);
  return table_.size();
}

ConcurrentCacheStats ConcurrentLruStrict::Stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return {hits_, misses_};
}

ConcurrentLruOptimized::ConcurrentLruOptimized(const ConcurrentCacheConfig& config,
                                               uint64_t refresh_ops)
    : value_size_(config.value_size), refresh_ops_(refresh_ops), core_(config) {}

bool ConcurrentLruOptimized::Get(uint64_t id) {
  Shard& s = core_.ShardFor(id);
  EbrDomain::Guard guard;
  if (Entry* e = s.index.Find(id)) {
    (void)ReadValuePayload(e->value.get(), value_size_);
    // Delayed promotion: at most once per refresh_ops_ accesses to this
    // entry, and only if the list lock is immediately available (try-lock
    // promotion — skipped outright under contention).
    if (e->accesses.fetch_add(1, std::memory_order_relaxed) + 1 >= refresh_ops_) {
      s.gate.TryWithLock([&s, e] {
        if (e->hook.linked()) {  // not concurrently evicted
          s.list.MoveToFront(e);
          e->accesses.store(0, std::memory_order_relaxed);
        }
      });
    }
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

void ConcurrentLruOptimized::DrainLocked(Shard& s, std::vector<Entry*>& victims) {
  Entry* e = nullptr;
  while (s.gate.pending().TryPop(&e)) {
    s.list.PushFront(e);
    ++s.linked;
    while (s.linked > s.capacity_objects && !s.list.empty()) {
      Entry* victim = s.list.Back();
      if (victim == nullptr || victim == e) {
        break;  // pathological capacity-1 shard
      }
      s.list.Remove(victim);
      --s.linked;
      s.resident.fetch_sub(1, std::memory_order_relaxed);
      victims.push_back(victim);
    }
  }
}

}  // namespace s3fifo
