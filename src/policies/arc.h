// ARC (Megiddo & Modha, FAST'03): two resident LRU queues (T1 recency, T2
// frequency) and two ghost LRU queues (B1, B2) remembering recently evicted
// ids; the T1/T2 target split p adapts on ghost hits. The four queues and
// the REPLACE rule follow the original paper's Figure 4 pseudocode.
#ifndef SRC_POLICIES_ARC_H_
#define SRC_POLICIES_ARC_H_

#include "src/core/cache.h"
#include "src/core/demotion.h"
#include "src/util/flat_map.h"
#include "src/util/intrusive_list.h"

namespace s3fifo {

class ArcCache : public Cache {
 public:
  explicit ArcCache(const CacheConfig& config);

  bool Contains(uint64_t id) const override;
  void Remove(uint64_t id) override;
  std::string Name() const override { return "arc"; }

  // Demotion instrumentation (§6.1): entering T1 starts the probationary
  // stage; promoted=true on a T1 hit (move to T2), false on T1 -> B1.
  void set_demotion_listener(DemotionListener listener) {
    demotion_listener_ = std::move(listener);
  }

  // Current adaptive T1 target, in units (§6.1 discusses the value ARC picks).
  double target_t1() const { return p_; }

 private:
  enum class Where : uint8_t { kT1, kT2, kB1, kB2 };

  struct Entry {
    uint64_t id = 0;
    uint64_t size = 1;
    uint32_t hits = 0;
    Where where = Where::kT1;
    uint64_t insert_time = 0;
    uint64_t stage_enter_time = 0;  // when it entered T1 (for demotion events)
    uint64_t last_access_time = 0;
    ListHook hook;
  };
  using Queue = IntrusiveList<Entry, &Entry::hook>;

  bool Access(const Request& req) override;
  bool IsResident(const Entry& e) const {
    return e.where == Where::kT1 || e.where == Where::kT2;
  }
  // The REPLACE rule: demote T1 LRU to B1, or T2 LRU to B2.
  void Replace(bool requested_in_b2);
  // Moves a resident entry to a ghost queue (fires the eviction event) or
  // drops it entirely (ghost == nullptr).
  void EvictResident(Entry* entry, Queue* ghost, bool explicit_delete);
  void DropGhost(Entry* entry);
  void NotifyDemotion(const Entry& entry, bool promoted);

  Queue& QueueOf(Where where);
  uint64_t& OccupiedOf(Where where);

  FlatMap<Entry> table_;
  Queue t1_, t2_, b1_, b2_;
  uint64_t t1_occ_ = 0, t2_occ_ = 0, b1_occ_ = 0, b2_occ_ = 0;  // in units
  double p_ = 0.0;
  DemotionListener demotion_listener_;
};

}  // namespace s3fifo

#endif  // SRC_POLICIES_ARC_H_
