// Concurrent W-TinyLFU, modelled on the Cachelib implementation the paper
// benchmarks against (§5.3), now hash-partitioned into sub-caches: lookups
// are a wait-free probe of the shard's lock-free index, but hits must still
// take the shard's list lock to run the window/probation/protected
// promotions — the structural cost the paper calls out, now per-shard
// instead of global. The count-min sketch stays shared (relaxed atomic
// counters); the aging trigger is sampled so no per-access shared counter
// remains on the hot path.
#ifndef SRC_CONCURRENT_CONCURRENT_TINYLFU_H_
#define SRC_CONCURRENT_CONCURRENT_TINYLFU_H_

#include <array>
#include <atomic>
#include <memory>
#include <vector>

#include "src/concurrent/concurrent_cache.h"
#include "src/concurrent/sharded_cache.h"
#include "src/concurrent/striped_counter.h"
#include "src/util/intrusive_list.h"

namespace s3fifo {

class ConcurrentTinyLfu : public ConcurrentCache {
 public:
  explicit ConcurrentTinyLfu(const ConcurrentCacheConfig& config, double window_ratio = 0.01);

  bool Get(uint64_t id) override;
  std::string Name() const override { return "tinylfu"; }
  uint64_t ApproxSize() const override { return core_.ApproxSize(); }
  ConcurrentCacheStats Stats() const override { return core_.Stats(); }

 private:
  enum class Where : uint8_t { kWindow, kProbation, kProtected };

  struct Entry {
    uint64_t id = 0;
    Where where = Where::kWindow;  // guarded by the shard's gate lock
    std::unique_ptr<char[]> value;
    ListHook hook;
  };
  using Queue = IntrusiveList<Entry, &Entry::hook>;

  struct alignas(64) Shard : ShardBase<Entry> {
    Shard(uint64_t capacity, unsigned index_shards, double window_ratio);
    std::array<Queue*, 3> queues() { return {&window, &probation, &protected_q}; }

    uint64_t window_capacity;
    uint64_t probation_capacity;
    uint64_t protected_capacity;
    // Everything below is guarded by the gate lock.
    Queue window, probation, protected_q;
    uint64_t window_count = 0, probation_count = 0, protected_count = 0;
  };

  void SketchIncrement(uint64_t id);
  uint32_t SketchEstimate(uint64_t id) const;
  void PromoteLocked(Shard& s, Entry* e);
  void DrainLocked(Shard& s, std::vector<Entry*>& victims);
  void HandleOverflowLocked(Shard& s, std::vector<Entry*>& victims);

  const uint32_t value_size_;

  // Plain atomic-counter count-min sketch (4 rows), shared by all shards so
  // frequency estimates see the full access stream.
  std::vector<std::atomic<uint32_t>> sketch_;
  uint64_t sketch_mask_;
  StripedCounter accesses_;
  std::atomic<uint64_t> next_age_at_;
  uint64_t sample_period_;

  ShardedCore<Shard> core_;
};

}  // namespace s3fifo

#endif  // SRC_CONCURRENT_CONCURRENT_TINYLFU_H_
