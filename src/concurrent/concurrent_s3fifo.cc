#include "src/concurrent/concurrent_s3fifo.h"

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <new>

#include "src/concurrent/value_payload.h"

namespace s3fifo {

namespace {
// GetBatch's staged prefetch, in requests ahead of the one being served: the
// index slot first; then, once that slot has had time to arrive, a peek at
// the entry it names; then, once the entry has arrived, that entry's value.
constexpr uint32_t kSlotAhead = 16;
constexpr uint32_t kEntryAhead = 8;
constexpr uint32_t kValueAhead = 4;
// Peeked entries wait in a ring from their peek until their value prefetch.
constexpr uint32_t kPeekRing = 8;
static_assert(kEntryAhead - kValueAhead < kPeekRing, "a peek is overwritten before its use");
}  // namespace

ConcurrentS3Fifo::ValueBuf* ConcurrentS3Fifo::MakeBuf(const char* data, uint32_t size) {
  void* mem = ::operator new(offsetof(ValueBuf, data) + std::max<uint32_t>(size, 1));
  auto* buf = new (mem) ValueBuf;
  buf->size = size;
  if (size > 0) {
    std::memcpy(buf->data, data, size);
  }
  return buf;
}

ConcurrentS3Fifo::ValueBuf* ConcurrentS3Fifo::MakeFillBuf(uint64_t id, uint32_t size) {
  void* mem = ::operator new(offsetof(ValueBuf, data) + std::max<uint32_t>(size, 1));
  auto* buf = new (mem) ValueBuf;
  buf->size = size;
  std::memset(buf->data, static_cast<int>(id & 0xFF), size);
  return buf;
}

void ConcurrentS3Fifo::FreeBuf(ValueBuf* buf) { ::operator delete(buf); }

ConcurrentS3Fifo::Entry::~Entry() { FreeBuf(value.load(std::memory_order_relaxed)); }

ConcurrentS3Fifo::ConcurrentS3Fifo(const ConcurrentCacheConfig& config, double small_ratio,
                                   uint32_t move_threshold, uint32_t max_freq)
    : value_size_(config.value_size),
      move_threshold_(move_threshold),
      max_freq_(max_freq),
      core_(config, small_ratio) {}

bool ConcurrentS3Fifo::AccessPinned(uint64_t id, const char* set_data, uint32_t set_size,
                                    uint32_t batch_index, ValueSink* sink) {
  Shard& s = core_.ShardFor(id);
  if (Entry* e = s.index.Find(id)) {
    // Lock-free hit path: capped increment; popular objects (freq already at
    // the cap) need no store at all (§4.3.1).
    uint8_t f = e->freq.load(std::memory_order_relaxed);
    while (f < max_freq_ &&
           !e->freq.compare_exchange_weak(f, f + 1, std::memory_order_relaxed)) {
    }
    if (set_data != nullptr) {
      // In-place value replacement: publish the new buffer, retire the old
      // one so concurrent readers mid-copy stay safe.
      ValueBuf* old = e->value.exchange(MakeBuf(set_data, set_size), std::memory_order_acq_rel);
      EbrDomain::Instance().Retire(old, [](void* p) { FreeBuf(static_cast<ValueBuf*>(p)); });
    } else {
      const ValueBuf* v = e->value.load(std::memory_order_acquire);
      if (sink != nullptr) {
        sink->OnValue(batch_index, v->data, v->size);
      } else {
        (void)ReadValuePayload(v->data, v->size);
      }
    }
    return true;
  }

  Entry* e = new Entry;
  e->id = id;
  e->value.store(set_data != nullptr ? MakeBuf(set_data, set_size) : MakeFillBuf(id, value_size_),
                 std::memory_order_relaxed);
  return core_.AdmitMiss(s, e, [this](Shard& sh, std::vector<Entry*>& victims) {
    DrainLocked(sh, victims);
  });
}

bool ConcurrentS3Fifo::Get(uint64_t id) {
  EbrDomain::Guard guard;
  const bool hit = AccessPinned(id, nullptr, 0, 0, nullptr);
  core_.CountHits(hit ? 1 : 0);
  return hit;
}

// The prefetches are hints only. A peeked entry stays readable for the whole
// batch (it was published while this batch's guard was pinned, so EBR cannot
// free it before the guard drops), but it may have been evicted or replaced
// by then, e.g. by an earlier miss in this batch; AccessPinned therefore
// probes the index afresh for every id.
void ConcurrentS3Fifo::GetBatch(const uint64_t* ids, uint32_t count, uint8_t* hits,
                                ValueSink* sink) {
  EbrDomain::Guard guard;
  Entry* peeked[kPeekRing] = {};
  const auto prefetch_slot = [&](uint32_t k) { core_.ShardFor(ids[k]).index.Prefetch(ids[k]); };
  const auto peek_entry = [&](uint32_t k) {
    Entry* e = core_.ShardFor(ids[k]).index.Find(ids[k]);
    if (e != nullptr) {
      __builtin_prefetch(e, 0, 1);
    }
    peeked[k % kPeekRing] = e;
  };
  const auto prefetch_value = [&](uint32_t k) {
    if (const Entry* e = peeked[k % kPeekRing]) {
      __builtin_prefetch(e->value.load(std::memory_order_relaxed), 0, 1);
    }
  };
  uint64_t hit_count = 0;
  // i starts kSlotAhead early so every stage has run for an id before its
  // turn comes.
  for (int64_t i = -static_cast<int64_t>(kSlotAhead); i < count; ++i) {
    if (i + kSlotAhead < count) {
      prefetch_slot(static_cast<uint32_t>(i + kSlotAhead));
    }
    if (i + kEntryAhead >= 0 && i + kEntryAhead < count) {
      peek_entry(static_cast<uint32_t>(i + kEntryAhead));
    }
    if (i + kValueAhead >= 0 && i + kValueAhead < count) {
      prefetch_value(static_cast<uint32_t>(i + kValueAhead));
    }
    if (i >= 0) {
      const bool hit = AccessPinned(ids[i], nullptr, 0, static_cast<uint32_t>(i), sink);
      hits[i] = hit ? 1 : 0;
      hit_count += hit ? 1 : 0;
    }
  }
  core_.CountHits(hit_count);
}

bool ConcurrentS3Fifo::Set(uint64_t id, const char* data, uint32_t size) {
  static constexpr char kEmpty = '\0';
  EbrDomain::Guard guard;
  const bool hit =
      AccessPinned(id, data != nullptr ? data : &kEmpty, data != nullptr ? size : 0, 0, nullptr);
  core_.CountHits(hit ? 1 : 0);
  return true;
}

bool ConcurrentS3Fifo::Delete(uint64_t id) {
  Shard& s = core_.ShardFor(id);
  EbrDomain::Guard guard;
  Entry* e = s.index.Find(id);
  if (e == nullptr) {
    return false;
  }
  // Winning the unpublish race makes this thread the entry's sole remover.
  if (!s.index.EraseIf(id, [e](Entry* v) { return v == e; })) {
    return false;
  }
  bool unlinked = false;
  s.gate.WithLock([&] {
    if (e->hook.linked()) {
      if (e->in_small) {
        s.small.Remove(e);
        --s.small_count;
      } else {
        s.main.Remove(e);
        --s.main_count;
      }
      unlinked = true;
    } else {
      // Either still pending in the gate ring (DrainLocked discards dead
      // entries) or a concurrent evictor already unlinked it and owns the
      // retire; the flag is harmless in the latter case.
      e->dead = true;
    }
  });
  if (unlinked) {
    s.resident.fetch_sub(1, std::memory_order_relaxed);
    core_.Retire(e);
  }
  return true;
}

// Under the gate lock: link every pending entry, making room first so the
// Algorithm-1 transition order (evict, then ghost-check, then insert) matches
// the unsharded seed exactly — at cache_shards=1 the replayed decision
// sequence is identical to the seed implementation's.
void ConcurrentS3Fifo::DrainLocked(Shard& s, std::vector<Entry*>& victims) {
  Entry* e = nullptr;
  while (s.gate.pending().TryPop(&e)) {
    if (e->dead) {
      // Deleted before it was ever linked; it is already unpublished.
      s.resident.fetch_sub(1, std::memory_order_relaxed);
      core_.Retire(e);
      continue;
    }
    while (s.small_count + s.main_count >= s.capacity_objects) {
      if ((s.small_count > s.small_target && !s.small.empty()) || s.main.empty()) {
        EvictFromSmall(s, victims);
      } else {
        EvictFromMain(s, victims);
      }
      if (s.small.empty() && s.main.empty()) {
        break;
      }
    }
    if (s.ghost.Contains(e->id)) {
      s.ghost.Remove(e->id);
      e->in_small = false;
      s.main.PushFront(e);
      ++s.main_count;
    } else {
      e->in_small = true;
      s.small.PushFront(e);
      ++s.small_count;
    }
  }
}

void ConcurrentS3Fifo::EvictFromSmall(Shard& s, std::vector<Entry*>& victims) {
  Entry* t = s.small.Back();
  if (t == nullptr) {
    return;
  }
  if (t->freq.load(std::memory_order_relaxed) >= move_threshold_) {
    s.small.Remove(t);
    --s.small_count;
    t->in_small = false;
    t->freq.store(0, std::memory_order_relaxed);
    s.main.PushFront(t);
    ++s.main_count;
    while (s.main_count > s.capacity_objects - s.small_target) {
      EvictFromMain(s, victims);
      if (s.main.empty()) {
        break;
      }
    }
  } else {
    s.small.Remove(t);
    --s.small_count;
    s.ghost.Insert(t->id);
    s.resident.fetch_sub(1, std::memory_order_relaxed);
    victims.push_back(t);
  }
}

void ConcurrentS3Fifo::EvictFromMain(Shard& s, std::vector<Entry*>& victims) {
  while (Entry* t = s.main.Back()) {
    const uint8_t f = t->freq.load(std::memory_order_relaxed);
    if (f > 0) {
      t->freq.store(f - 1, std::memory_order_relaxed);
      s.main.MoveToFront(t);
    } else {
      s.main.Remove(t);
      --s.main_count;
      s.resident.fetch_sub(1, std::memory_order_relaxed);
      victims.push_back(t);
      return;
    }
  }
}

}  // namespace s3fifo
