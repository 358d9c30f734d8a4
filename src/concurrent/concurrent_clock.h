// Concurrent CLOCK (the MemC3 / RocksDB HyperClockCache approach, paper
// §2.2/§7), sharded + lock-free read path: hits are a wait-free index probe
// plus one relaxed ref-bit store — no lock; misses touch only the owning
// sub-cache's clock list through its try-lock-and-delegate eviction gate.
#ifndef SRC_CONCURRENT_CONCURRENT_CLOCK_H_
#define SRC_CONCURRENT_CONCURRENT_CLOCK_H_

#include <array>
#include <atomic>
#include <memory>
#include <vector>

#include "src/concurrent/concurrent_cache.h"
#include "src/concurrent/sharded_cache.h"
#include "src/util/intrusive_list.h"

namespace s3fifo {

class ConcurrentClock : public ConcurrentCache {
 public:
  explicit ConcurrentClock(const ConcurrentCacheConfig& config);

  bool Get(uint64_t id) override;
  std::string Name() const override { return "clock"; }
  uint64_t ApproxSize() const override { return core_.ApproxSize(); }
  ConcurrentCacheStats Stats() const override { return core_.Stats(); }

 private:
  struct Entry {
    uint64_t id = 0;
    std::atomic<uint8_t> ref{0};
    std::unique_ptr<char[]> value;
    ListHook hook;
  };
  using Queue = IntrusiveList<Entry, &Entry::hook>;

  struct alignas(64) Shard : ShardBase<Entry> {
    using ShardBase::ShardBase;
    std::array<Queue*, 1> queues() { return {&list}; }

    Queue list;  // guarded by the gate lock; FIFO order, back = oldest
    uint64_t linked = 0;
  };

  void DrainLocked(Shard& s, std::vector<Entry*>& victims);

  const uint32_t value_size_;
  ShardedCore<Shard> core_;
};

}  // namespace s3fifo

#endif  // SRC_CONCURRENT_CONCURRENT_CLOCK_H_
