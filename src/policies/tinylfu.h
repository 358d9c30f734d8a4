// W-TinyLFU (Einziger, Friedman & Manes, ToS'17): a small window LRU in
// front of a main SLRU (20% probation / 80% protected), with admission
// decided by a count-min-sketch frequency estimate plus a doorkeeper Bloom
// filter; counters are halved every sample_factor * capacity accesses.
//
// The paper evaluates two window sizes: 1% (default, "tinylfu") and 10%
// ("tinylfu-0.1", §5.2).
//
// Params: window_ratio=0.01, sample_factor=10, probation_ratio=0.2.
#ifndef SRC_POLICIES_TINYLFU_H_
#define SRC_POLICIES_TINYLFU_H_

#include "src/core/cache.h"
#include "src/core/demotion.h"
#include "src/util/bloom_filter.h"
#include "src/util/count_min_sketch.h"
#include "src/util/flat_map.h"
#include "src/util/intrusive_list.h"

namespace s3fifo {

class TinyLfuCache : public Cache {
 public:
  explicit TinyLfuCache(const CacheConfig& config);

  bool Contains(uint64_t id) const override;
  void Remove(uint64_t id) override;
  std::string Name() const override { return name_; }

  // Demotion instrumentation (§6.1): the window is the probationary stage.
  void set_demotion_listener(DemotionListener listener) {
    demotion_listener_ = std::move(listener);
  }

 private:
  enum class Where : uint8_t { kWindow, kProbation, kProtected };

  struct Entry {
    uint64_t id = 0;
    uint64_t size = 1;
    uint32_t hits = 0;
    Where where = Where::kWindow;
    uint64_t insert_time = 0;
    uint64_t stage_enter_time = 0;
    uint64_t last_access_time = 0;
    ListHook hook;
  };
  using Queue = IntrusiveList<Entry, &Entry::hook>;

  bool Access(const Request& req) override;
  void RecordFrequency(uint64_t id);
  uint32_t EstimateFrequency(uint64_t id) const;
  // Window overflow: candidate vs main victim, evict the less frequent one.
  void HandleWindowOverflow();
  void EvictEntry(Entry* entry, bool explicit_delete);
  void RebalanceMain();
  void NotifyDemotion(const Entry& entry, bool promoted);

  Queue& QueueOf(Where where);
  uint64_t& OccupiedOf(Where where);

  std::string name_;
  uint64_t window_capacity_;
  uint64_t probation_capacity_;
  uint64_t protected_capacity_;
  uint64_t sample_period_;
  uint64_t accesses_since_age_ = 0;

  CountMinSketch sketch_;
  BloomFilter doorkeeper_;

  FlatMap<Entry> table_;
  Queue window_, probation_, protected_;
  uint64_t window_occ_ = 0, probation_occ_ = 0, protected_occ_ = 0;
  DemotionListener demotion_listener_;
};

}  // namespace s3fifo

#endif  // SRC_POLICIES_TINYLFU_H_
