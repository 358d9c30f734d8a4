#include "src/policies/arc.h"

#include <algorithm>

namespace s3fifo {

ArcCache::ArcCache(const CacheConfig& config) : Cache(config) {}

bool ArcCache::Contains(uint64_t id) const {
  const Entry* e = table_.Find(id);
  return e != nullptr && IsResident(*e);
}

ArcCache::Queue& ArcCache::QueueOf(Where where) {
  switch (where) {
    case Where::kT1:
      return t1_;
    case Where::kT2:
      return t2_;
    case Where::kB1:
      return b1_;
    case Where::kB2:
      return b2_;
  }
  return t1_;
}

uint64_t& ArcCache::OccupiedOf(Where where) {
  switch (where) {
    case Where::kT1:
      return t1_occ_;
    case Where::kT2:
      return t2_occ_;
    case Where::kB1:
      return b1_occ_;
    case Where::kB2:
      return b2_occ_;
  }
  return t1_occ_;
}

void ArcCache::NotifyDemotion(const Entry& entry, bool promoted) {
  if (demotion_listener_) {
    DemotionEvent ev;
    ev.id = entry.id;
    ev.enter_time = entry.stage_enter_time;
    ev.leave_time = clock();
    ev.promoted = promoted;
    demotion_listener_(ev);
  }
}

void ArcCache::Remove(uint64_t id) {
  Entry* e = table_.Find(id);
  if (e == nullptr) {
    return;
  }
  if (IsResident(*e)) {
    EvictResident(e, /*ghost=*/nullptr, /*explicit_delete=*/true);
  } else {
    DropGhost(e);
  }
}

void ArcCache::EvictResident(Entry* entry, Queue* ghost, bool explicit_delete) {
  EvictionEvent ev;
  ev.id = entry->id;
  ev.size = entry->size;
  ev.access_count = entry->hits;
  ev.insert_time = entry->insert_time;
  ev.last_access_time = entry->last_access_time;
  ev.evict_time = clock();
  ev.explicit_delete = explicit_delete;
  QueueOf(entry->where).Remove(entry);
  OccupiedOf(entry->where) -= entry->size;
  SubOccupied(entry->size);
  if (entry->where == Where::kT1) {
    NotifyDemotion(*entry, /*promoted=*/false);
  }
  if (ghost != nullptr) {
    const Where ghost_where = ghost == &b1_ ? Where::kB1 : Where::kB2;
    entry->where = ghost_where;
    ghost->PushFront(entry);
    OccupiedOf(ghost_where) += entry->size;
  } else {
    table_.Erase(entry->id);
  }
  NotifyEviction(ev);
}

void ArcCache::DropGhost(Entry* entry) {
  QueueOf(entry->where).Remove(entry);
  OccupiedOf(entry->where) -= entry->size;
  table_.Erase(entry->id);
}

void ArcCache::Replace(bool requested_in_b2) {
  const bool demote_t1 =
      !t1_.empty() &&
      (static_cast<double>(t1_occ_) > p_ ||
       (requested_in_b2 && static_cast<double>(t1_occ_) >= p_ && p_ > 0.0) || t2_.empty());
  if (demote_t1 && !t1_.empty()) {
    EvictResident(t1_.Back(), &b1_, /*explicit_delete=*/false);
  } else if (!t2_.empty()) {
    EvictResident(t2_.Back(), &b2_, /*explicit_delete=*/false);
  } else if (!t1_.empty()) {
    EvictResident(t1_.Back(), &b1_, /*explicit_delete=*/false);
  }
}

bool ArcCache::Access(const Request& req) {
  const uint64_t need = SizeOf(req);
  const double c = static_cast<double>(capacity());
  Entry* found = table_.Find(req.id);

  if (found != nullptr && IsResident(*found)) {
    Entry& e = *found;
    ++e.hits;
    e.last_access_time = clock();
    if (e.where == Where::kT1) {
      NotifyDemotion(e, /*promoted=*/true);
      t1_.Remove(&e);
      t1_occ_ -= e.size;
      e.where = Where::kT2;
      t2_.PushFront(&e);
      t2_occ_ += e.size;
    } else {
      t2_.MoveToFront(&e);
    }
    if (!count_based() && e.size != need) {
      t2_occ_ -= e.size;
      SubOccupied(e.size);
      e.size = need;
      t2_occ_ += e.size;
      AddOccupied(e.size);
      while (occupied() > capacity() && (!t1_.empty() || !t2_.empty())) {
        Replace(false);
      }
    }
    return true;
  }

  if (need > capacity()) {
    return false;
  }

  bool into_t2 = false;
  if (found != nullptr && found->where == Where::kB1) {
    // Ghost hit in B1: the recency side was too small — grow p.
    const double delta =
        std::max(1.0, static_cast<double>(b2_occ_) / std::max<double>(b1_occ_, 1.0));
    p_ = std::min(p_ + delta, c);
    DropGhost(found);
    while (occupied() + need > capacity()) {
      Replace(/*requested_in_b2=*/false);
    }
    into_t2 = true;
  } else if (found != nullptr && found->where == Where::kB2) {
    const double delta =
        std::max(1.0, static_cast<double>(b1_occ_) / std::max<double>(b2_occ_, 1.0));
    p_ = std::max(p_ - delta, 0.0);
    DropGhost(found);
    while (occupied() + need > capacity()) {
      Replace(/*requested_in_b2=*/true);
    }
    into_t2 = true;
  } else {
    // Complete miss: Case IV of the ARC paper.
    const uint64_t l1 = t1_occ_ + b1_occ_;
    const uint64_t total = l1 + t2_occ_ + b2_occ_;
    if (l1 + need > capacity()) {
      if (t1_occ_ + need <= capacity()) {
        while (!b1_.empty() && t1_occ_ + b1_occ_ + need > capacity()) {
          DropGhost(b1_.Back());
        }
        while (occupied() + need > capacity()) {
          Replace(false);
        }
      } else {
        // B1 is empty and T1 fills the cache: evict T1 LRU outright.
        while (occupied() + need > capacity() && !t1_.empty()) {
          EvictResident(t1_.Back(), /*ghost=*/nullptr, /*explicit_delete=*/false);
        }
      }
    } else if (total + need > capacity()) {
      // The directory (T1+T2+B1+B2) is capped at 2c entries of history.
      while (!b2_.empty() &&
             t1_occ_ + t2_occ_ + b1_occ_ + b2_occ_ + need > 2 * capacity()) {
        DropGhost(b2_.Back());
      }
      while (occupied() + need > capacity()) {
        Replace(false);
      }
    }
  }

  // Every path here left req.id out of the table (a ghost hit dropped its
  // entry), so this inserts a fresh Entry.
  Entry& e = *table_.Emplace(req.id);
  e.id = req.id;
  e.size = need;
  e.hits = 0;
  e.insert_time = clock();
  e.stage_enter_time = clock();
  e.last_access_time = clock();
  if (into_t2) {
    e.where = Where::kT2;
    t2_.PushFront(&e);
    t2_occ_ += need;
  } else {
    e.where = Where::kT1;
    t1_.PushFront(&e);
    t1_occ_ += need;
  }
  AddOccupied(need);
  return false;
}

}  // namespace s3fifo
