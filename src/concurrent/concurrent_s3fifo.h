// Concurrent S3-FIFO (paper §5.3), sharded + lock-free read path:
//
//  * Hits touch no lock at all: a wait-free probe of the LockFreeHashMap
//    index plus one capped relaxed frequency increment (for already-hot
//    objects not even a store) — entry lifetime is protected by EBR, not by
//    a shard mutex as in the seed implementation.
//  * Misses touch only per-shard state: the cache is hash-partitioned into
//    independent sub-caches, each with its own small/main queues, ghost
//    fingerprint table and eviction lock. The miss path publishes the new
//    entry to the index, then submits link+evict work through a
//    try-lock-and-delegate EvictionGate — a thread that loses the lock race
//    queues its work instead of blocking, and the winning thread drains the
//    whole batch under one lock acquisition (batched eviction).
//
// Because skewed workloads are hit-dominated, this removes every shared
// cache line from the critical path — the scalability argument of the paper,
// now actually realized instead of bottlenecked on a global evict_mu_.
#ifndef SRC_CONCURRENT_CONCURRENT_S3FIFO_H_
#define SRC_CONCURRENT_CONCURRENT_S3FIFO_H_

#include <algorithm>
#include <array>
#include <atomic>
#include <vector>

#include "src/concurrent/concurrent_cache.h"
#include "src/concurrent/sharded_cache.h"
#include "src/util/ghost_table.h"
#include "src/util/intrusive_list.h"

namespace s3fifo {

class ConcurrentS3Fifo : public ConcurrentCache {
 public:
  explicit ConcurrentS3Fifo(const ConcurrentCacheConfig& config, double small_ratio = 0.1,
                            uint32_t move_threshold = 2, uint32_t max_freq = 3);

  bool Get(uint64_t id) override;
  // Software-pipelined batch: one EBR pin for the whole block, a staged
  // prefetch (index slot, then entry, then value) running ahead of the
  // probes, and one hit-counter update per batch; outcome bit-identical to
  // Get() per id. Hits report their value bytes through `sink` (server data
  // path).
  void GetBatch(const uint64_t* ids, uint32_t count, uint8_t* hits,
                ValueSink* sink = nullptr) override;
  // Insert-or-replace with explicit bytes. A resident object's value is
  // swapped via an atomic pointer exchange (old buffer EBR-retired so
  // lock-free readers finish safely); a miss admits through the normal
  // S3-FIFO miss path carrying the provided bytes.
  bool Set(uint64_t id, const char* data, uint32_t size) override;
  // Unpublishes from the index, unlinks from its queue under the gate lock
  // (or marks a still-pending entry dead for DrainLocked to discard), and
  // EBR-retires the entry. No ghost insertion — matches the simulator's
  // explicit-delete semantics.
  bool Delete(uint64_t id) override;
  std::string Name() const override { return "s3fifo"; }
  uint64_t ApproxSize() const override { return core_.ApproxSize(); }
  ConcurrentCacheStats Stats() const override { return core_.Stats(); }

 private:
  // Heap block holding one value; entries point at it through an atomic so
  // `set` on a resident object can republish without disturbing concurrent
  // lock-free readers (the old block is EBR-retired).
  struct ValueBuf {
    uint32_t size = 0;
    char data[1];  // over-allocated to `size` bytes
  };
  static ValueBuf* MakeBuf(const char* data, uint32_t size);
  static ValueBuf* MakeFillBuf(uint64_t id, uint32_t size);
  static void FreeBuf(ValueBuf* buf);

  struct Entry {
    ~Entry();
    uint64_t id = 0;
    std::atomic<uint8_t> freq{0};
    bool in_small = true;   // guarded by the shard's gate lock
    bool dead = false;      // guarded by the gate lock: Delete'd while pending
    std::atomic<ValueBuf*> value{nullptr};
    ListHook hook;  // hook.linked() (under the gate lock) <=> on small/main
  };
  using Queue = IntrusiveList<Entry, &Entry::hook>;

  struct alignas(64) Shard : ShardBase<Entry> {
    Shard(uint64_t capacity, unsigned index_shards, double small_ratio)
        : ShardBase(capacity, index_shards),
          small_target(std::max<uint64_t>(static_cast<uint64_t>(capacity * small_ratio), 1)),
          ghost(std::max<uint64_t>(capacity - small_target, 1)) {}
    std::array<Queue*, 2> queues() { return {&small, &main}; }

    const uint64_t small_target;
    // Everything below is guarded by the gate lock.
    Queue small, main;
    uint64_t small_count = 0;
    uint64_t main_count = 0;
    GhostTable ghost;
  };

  // One request, caller already pinned (EBR guard held). `set_data` non-null
  // makes it a `set` (value stored/replaced); null is an on-demand-fill get.
  // Counts the miss but not the hit: callers add hits in bulk.
  bool AccessPinned(uint64_t id, const char* set_data, uint32_t set_size, uint32_t batch_index,
                    ValueSink* sink);

  // All three run under the shard's gate lock. Victims are collected for
  // out-of-lock index unpublish + EBR retire.
  void DrainLocked(Shard& s, std::vector<Entry*>& victims);
  void EvictFromSmall(Shard& s, std::vector<Entry*>& victims);
  void EvictFromMain(Shard& s, std::vector<Entry*>& victims);

  const uint32_t value_size_;
  const uint32_t move_threshold_;
  const uint32_t max_freq_;
  ShardedCore<Shard> core_;
};

}  // namespace s3fifo

#endif  // SRC_CONCURRENT_CONCURRENT_S3FIFO_H_
