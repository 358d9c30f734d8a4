// The skeleton every sharded concurrent prototype is built on: the cache is
// hash-partitioned into independent sub-caches (each with its own index,
// queues, ghost state and eviction lock), and each sub-cache's miss-path
// mutations go through a try-lock-and-delegate EvictionGate so no thread
// ever blocks on another shard-mate's eviction. A prototype supplies only
// its Entry, its Shard's queues, its hit path and its DrainLocked; the
// capacity split, the miss tail, teardown and the counters live here.
#ifndef SRC_CONCURRENT_SHARDED_CACHE_H_
#define SRC_CONCURRENT_SHARDED_CACHE_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "src/concurrent/concurrent_cache.h"
#include "src/concurrent/ebr.h"
#include "src/concurrent/lockfree_hash_map.h"
#include "src/concurrent/mpmc_queue.h"
#include "src/concurrent/striped_counter.h"
#include "src/util/hash.h"

namespace s3fifo {

// Writer-lock shards of the hash index, split across the sub-caches: each
// sub-cache's index gets max(1, kIndexLockShards / num_shards) of them.
// Reads are lock-free and unaffected.
inline constexpr unsigned kIndexLockShards = 64;

// How many sub-caches to create: the requested count, clamped so each shard
// keeps a meaningful population (tiny test caches degenerate to one shard,
// which preserves the seed's exact single-queue semantics). Power of two.
inline unsigned PickCacheShards(unsigned requested, uint64_t capacity_objects) {
  constexpr uint64_t kMinObjectsPerShard = 32;
  uint64_t limit = capacity_objects / kMinObjectsPerShard;
  unsigned shards = 1;
  while (shards * 2 <= requested && static_cast<uint64_t>(shards) * 2 <= limit) {
    shards <<= 1;
  }
  return shards;
}

// Sub-cache id for an object: high hash bits, independent from both the index
// probe position (low bits) and the index's internal shard pick (bits 48+).
inline unsigned CacheShardFor(uint64_t id, unsigned num_shards) {
  return static_cast<unsigned>((Mix64(id) >> 32) & (num_shards - 1));
}

// Try-lock-and-delegate work gate (one per sub-cache). A missing thread
// enqueues its link/evict work and only processes it if the shard's eviction
// lock is free; a thread that loses the try_lock race returns immediately —
// the current lock holder re-checks the queue after unlocking, so queued work
// is always drained by *somebody* without anyone blocking. Misses therefore
// batch naturally: one lock acquisition links and evicts for every request
// that arrived while the previous holder was inside.
template <typename Work>
class EvictionGate {
 public:
  explicit EvictionGate(uint64_t pending_capacity) : pending_(pending_capacity) {}

  // Enqueues `w`; `drain()` is invoked under the gate lock and must pop and
  // process everything in pending(). Never blocks unless the ring is full
  // (pathological backlog), in which case it helps by draining synchronously.
  template <typename DrainFn>
  void Submit(const Work& w, DrainFn&& drain) {
    while (!pending_.TryPush(w)) {
      std::lock_guard<std::mutex> lock(mu_);
      drain();
    }
    while (mu_.try_lock()) {
      drain();
      mu_.unlock();
      if (pending_.ApproxSize() == 0) {
        return;
      }
    }
    // try_lock failed: the current holder's post-unlock re-check owns our work.
  }

  // Runs fn under the gate lock (destructors, maintenance).
  template <typename Fn>
  void WithLock(Fn&& fn) {
    std::lock_guard<std::mutex> lock(mu_);
    fn();
  }

  // Non-blocking promotion attempt (optimized-LRU style): runs fn only if the
  // lock is immediately available. Returns whether fn ran.
  template <typename Fn>
  bool TryWithLock(Fn&& fn) {
    if (!mu_.try_lock()) {
      return false;
    }
    fn();
    mu_.unlock();
    return true;
  }

  MpmcQueue<Work>& pending() { return pending_; }

 private:
  std::mutex mu_;
  MpmcQueue<Work> pending_;
};

// The members every sub-cache has. A prototype's Shard derives from this,
// adds its queues (guarded by the gate lock), takes (capacity, index_shards,
// prototype args...) in its constructor, and lists its queues in queues()
// so ShardedCore can free what they hold at teardown.
template <typename EntryT>
struct ShardBase {
  using Entry = EntryT;
  static constexpr uint64_t kPendingWork = 256;  // gate ring slots

  ShardBase(uint64_t capacity, unsigned index_shards)
      : capacity_objects(capacity), index(capacity, index_shards), gate(kPendingWork) {}

  const uint64_t capacity_objects;
  LockFreeHashMap<Entry*> index;
  EvictionGate<Entry*> gate;
  // Published entries (linked + still pending); aggregated by ApproxSize.
  std::atomic<uint64_t> resident{0};
};

// The sub-caches of one prototype plus its request counters. Entries must
// carry `id` and be freed with `delete`; the prototype's DrainLocked is
// passed to AdmitMiss as a lambda, so every call inlines.
template <typename Shard>
class ShardedCore {
 public:
  using Entry = typename Shard::Entry;

  // Splits config.capacity_objects across the sub-caches (the first
  // capacity % n shards take one extra object); `args` go to every Shard.
  template <typename... Args>
  ShardedCore(const ConcurrentCacheConfig& config, const Args&... args)
      : num_shards_(PickCacheShards(config.cache_shards, config.capacity_objects)) {
    const unsigned index_shards = std::max(1u, kIndexLockShards / num_shards_);
    shards_.reserve(num_shards_);
    for (unsigned i = 0; i < num_shards_; ++i) {
      const uint64_t capacity = config.capacity_objects / num_shards_ +
                                (i < config.capacity_objects % num_shards_ ? 1 : 0);
      shards_.push_back(std::make_unique<Shard>(capacity, index_shards, args...));
    }
  }

  // Frees the entries still pending in each gate ring, then those on the
  // shard's queues. Entries already retired belong to the EBR domain.
  ~ShardedCore() {
    for (auto& sp : shards_) {
      Shard& s = *sp;
      s.gate.WithLock([&s] {
        Entry* e = nullptr;
        while (s.gate.pending().TryPop(&e)) {
          delete e;
        }
        for (auto* q : s.queues()) {
          while (Entry* x = q->PopBack()) {
            delete x;
          }
        }
      });
    }
  }

  ShardedCore(const ShardedCore&) = delete;
  ShardedCore& operator=(const ShardedCore&) = delete;

  Shard& ShardFor(uint64_t id) { return *shards_[CacheShardFor(id, num_shards_)]; }

  // The miss tail: publishes `e` (a fresh entry for a missed id) in `s`'s
  // index, counts the miss, submits the entry through the gate, where
  // drain(s, victims) links it and evicts under the lock, then unpublishes
  // and EBR-retires the victims. Returns false, the outcome of a miss. If
  // another thread admitted the id first, `e` is freed instead.
  template <typename DrainFn>
  bool AdmitMiss(Shard& s, Entry* e, DrainFn&& drain) {
    misses_.Add(1);
    if (!s.index.InsertIfAbsent(e->id, e)) {
      delete e;
      return false;
    }
    s.resident.fetch_add(1, std::memory_order_relaxed);
    // Reused per thread, so a miss allocates only its entry. Nothing below
    // re-enters AdmitMiss, so one buffer per thread suffices.
    static thread_local std::vector<Entry*> victims;
    victims.clear();
    s.gate.Submit(e, [&s, &drain] { drain(s, victims); });
    for (Entry* victim : victims) {
      s.index.EraseIf(victim->id, [victim](Entry* v) { return v == victim; });
      Retire(victim);
    }
    return false;
  }

  // Frees `e` once no pinned reader can still hold it.
  static void Retire(Entry* e) {
    EbrDomain::Instance().Retire(e, [](void* p) { delete static_cast<Entry*>(p); });
  }

  uint64_t ApproxSize() const {
    uint64_t total = 0;
    for (const auto& s : shards_) {
      total += s->resident.load(std::memory_order_relaxed);
    }
    return total;
  }

  void CountHits(uint64_t n) {
    if (n != 0) {
      hits_.Add(static_cast<int64_t>(n));
    }
  }

  ConcurrentCacheStats Stats() const {
    return {static_cast<uint64_t>(hits_.Sum()), static_cast<uint64_t>(misses_.Sum())};
  }

 private:
  unsigned num_shards_;
  std::vector<std::unique_ptr<Shard>> shards_;
  StripedCounter hits_;
  StripedCounter misses_;
};

}  // namespace s3fifo

#endif  // SRC_CONCURRENT_SHARDED_CACHE_H_
