#include "src/policies/tinylfu.h"

#include <algorithm>

#include "src/util/params.h"

namespace s3fifo {
namespace {

uint64_t SketchEntries(const CacheConfig& config) {
  // Size the sketch to the number of objects the cache can hold; byte mode
  // approximates entries with the paper's 4KB reference object.
  return config.count_based ? config.capacity
                            : std::max<uint64_t>(config.capacity / 4096, 64);
}

}  // namespace

TinyLfuCache::TinyLfuCache(const CacheConfig& config)
    : Cache(config),
      sketch_(SketchEntries(config) * 4),
      doorkeeper_(SketchEntries(config) * 4, 0.01) {
  const Params params(config.params);
  const double window_ratio = params.GetDouble("window_ratio", 0.01);
  const double probation_ratio = params.GetDouble("probation_ratio", 0.2);
  const uint64_t sample_factor = params.GetU64("sample_factor", 10);

  window_capacity_ = std::max<uint64_t>(static_cast<uint64_t>(capacity() * window_ratio), 1);
  if (window_capacity_ > capacity()) {
    window_capacity_ = capacity();
  }
  const uint64_t main_capacity = capacity() - window_capacity_;
  if (main_capacity == 0) {
    probation_capacity_ = 0;  // degenerate tiny cache: window only
    protected_capacity_ = 0;
  } else {
    probation_capacity_ = std::min<uint64_t>(
        std::max<uint64_t>(static_cast<uint64_t>(main_capacity * probation_ratio), 1),
        main_capacity);
    protected_capacity_ = main_capacity - probation_capacity_;
  }
  sample_period_ = std::max<uint64_t>(SketchEntries(config) * sample_factor, 64);
  name_ = window_ratio >= 0.05 ? "tinylfu-0.1" : "tinylfu";
}

TinyLfuCache::Queue& TinyLfuCache::QueueOf(Where where) {
  switch (where) {
    case Where::kWindow:
      return window_;
    case Where::kProbation:
      return probation_;
    case Where::kProtected:
      return protected_;
  }
  return window_;
}

uint64_t& TinyLfuCache::OccupiedOf(Where where) {
  switch (where) {
    case Where::kWindow:
      return window_occ_;
    case Where::kProbation:
      return probation_occ_;
    case Where::kProtected:
      return protected_occ_;
  }
  return window_occ_;
}

void TinyLfuCache::RecordFrequency(uint64_t id) {
  if (!doorkeeper_.Contains(id)) {
    doorkeeper_.Insert(id);
  } else {
    sketch_.Increment(id);
  }
  if (++accesses_since_age_ >= sample_period_) {
    sketch_.Age();
    doorkeeper_.Clear();
    accesses_since_age_ = 0;
  }
}

uint32_t TinyLfuCache::EstimateFrequency(uint64_t id) const {
  return sketch_.Estimate(id) + (doorkeeper_.Contains(id) ? 1 : 0);
}

bool TinyLfuCache::Contains(uint64_t id) const { return table_.Contains(id); }

void TinyLfuCache::NotifyDemotion(const Entry& entry, bool promoted) {
  if (demotion_listener_) {
    DemotionEvent ev;
    ev.id = entry.id;
    ev.enter_time = entry.stage_enter_time;
    ev.leave_time = clock();
    ev.promoted = promoted;
    demotion_listener_(ev);
  }
}

void TinyLfuCache::EvictEntry(Entry* entry, bool explicit_delete) {
  EvictionEvent ev;
  ev.id = entry->id;
  ev.size = entry->size;
  ev.access_count = entry->hits;
  ev.insert_time = entry->insert_time;
  ev.last_access_time = entry->last_access_time;
  ev.evict_time = clock();
  ev.explicit_delete = explicit_delete;
  if (entry->where == Where::kWindow) {
    NotifyDemotion(*entry, /*promoted=*/false);
  }
  QueueOf(entry->where).Remove(entry);
  OccupiedOf(entry->where) -= entry->size;
  SubOccupied(entry->size);
  table_.Erase(entry->id);
  NotifyEviction(ev);
}

void TinyLfuCache::Remove(uint64_t id) {
  if (Entry* e = table_.Find(id)) {
    EvictEntry(e, /*explicit_delete=*/true);
  }
}

void TinyLfuCache::RebalanceMain() {
  // Protected overflow demotes to probation MRU.
  while (protected_occ_ > protected_capacity_) {
    Entry* tail = protected_.PopBack();
    if (tail == nullptr) {
      break;
    }
    protected_occ_ -= tail->size;
    tail->where = Where::kProbation;
    probation_.PushFront(tail);
    probation_occ_ += tail->size;
  }
}

void TinyLfuCache::HandleWindowOverflow() {
  while (window_occ_ > window_capacity_) {
    Entry* candidate = window_.Back();
    if (candidate == nullptr) {
      return;
    }
    const uint64_t main_occ = probation_occ_ + protected_occ_;
    const uint64_t main_cap = probation_capacity_ + protected_capacity_;
    if (main_occ + candidate->size <= main_cap) {
      // Room in main: admit without a duel.
      NotifyDemotion(*candidate, /*promoted=*/true);
      window_.Remove(candidate);
      window_occ_ -= candidate->size;
      candidate->where = Where::kProbation;
      candidate->stage_enter_time = clock();
      probation_.PushFront(candidate);
      probation_occ_ += candidate->size;
      continue;
    }
    Entry* victim = probation_.Back();
    if (victim == nullptr) {
      victim = protected_.Back();
    }
    if (victim == nullptr) {
      // No main victim: evict the candidate.
      EvictEntry(candidate, /*explicit_delete=*/false);
      continue;
    }
    // The TinyLFU duel: the less frequently used of candidate and main
    // victim is evicted (§5.2).
    if (EstimateFrequency(candidate->id) > EstimateFrequency(victim->id)) {
      EvictEntry(victim, /*explicit_delete=*/false);
      NotifyDemotion(*candidate, /*promoted=*/true);
      window_.Remove(candidate);
      window_occ_ -= candidate->size;
      candidate->where = Where::kProbation;
      probation_.PushFront(candidate);
      probation_occ_ += candidate->size;
      // Byte mode: a large candidate may still overflow main after one
      // victim; shed further tails until it fits.
      while (probation_occ_ + protected_occ_ > main_cap) {
        Entry* extra = probation_.Back();
        if (extra == nullptr) {
          extra = protected_.Back();
        }
        if (extra == nullptr) {
          break;
        }
        EvictEntry(extra, /*explicit_delete=*/false);
        if (extra == candidate) {
          break;  // candidate itself was oversized for main
        }
      }
    } else {
      EvictEntry(candidate, /*explicit_delete=*/false);
    }
  }
}

bool TinyLfuCache::Access(const Request& req) {
  const uint64_t need = SizeOf(req);
  RecordFrequency(req.id);

  if (Entry* found = table_.Find(req.id)) {
    Entry& e = *found;
    ++e.hits;
    e.last_access_time = clock();
    if (!count_based() && e.size != need) {
      OccupiedOf(e.where) -= e.size;
      SubOccupied(e.size);
      e.size = need;
      OccupiedOf(e.where) += e.size;
      AddOccupied(e.size);
    }
    switch (e.where) {
      case Where::kWindow:
        window_.MoveToFront(&e);
        break;
      case Where::kProbation:
        // Probation hit promotes to protected.
        probation_.Remove(&e);
        probation_occ_ -= e.size;
        e.where = Where::kProtected;
        protected_.PushFront(&e);
        protected_occ_ += e.size;
        RebalanceMain();
        break;
      case Where::kProtected:
        protected_.MoveToFront(&e);
        break;
    }
    // Byte mode: a resident that grew in place can overflow main without
    // touching the window; shed main tails until it fits again.
    const uint64_t main_cap = probation_capacity_ + protected_capacity_;
    while (probation_occ_ + protected_occ_ > main_cap) {
      Entry* extra = probation_.Back();
      if (extra == nullptr) {
        extra = protected_.Back();
      }
      if (extra == nullptr) {
        break;
      }
      EvictEntry(extra, /*explicit_delete=*/false);
    }
    HandleWindowOverflow();
    return true;
  }

  if (need > capacity()) {
    return false;
  }
  Entry& e = *table_.Emplace(req.id);
  e.id = req.id;
  e.size = need;
  e.where = Where::kWindow;
  e.insert_time = clock();
  e.stage_enter_time = clock();
  e.last_access_time = clock();
  window_.PushFront(&e);
  window_occ_ += need;
  AddOccupied(need);
  HandleWindowOverflow();
  return false;
}

}  // namespace s3fifo
