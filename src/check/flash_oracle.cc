#include "src/check/flash_oracle.h"

#include <algorithm>
#include <sstream>

#include "src/util/hash.h"

namespace s3fifo {
namespace check {
namespace {

uint64_t FlashCapacityBytes(const LogFlashCacheConfig& config) {
  uint64_t bytes = config.log.segment_bytes * config.log.num_segments;
  if (config.small_object_threshold > 0) {
    bytes += config.set_store.set_bytes * config.set_store.num_sets;
  }
  return bytes;
}

uint64_t AutoGhostEntries(const LogFlashCacheConfig& config) {
  if (config.ghost_entries > 0) {
    return config.ghost_entries;
  }
  return std::max<uint64_t>(FlashCapacityBytes(config) / 4096, 64);
}

LogFlashCacheConfig Clamped(LogFlashCacheConfig config) {
  if (config.small_object_threshold > 0) {
    config.small_object_threshold =
        std::min(config.small_object_threshold, config.set_store.set_bytes + 1);
  }
  return config;
}

uint8_t MaxPriority(const SegmentLogConfig& config) {
  if (config.ordering == LogOrdering::kRipq) {
    const uint32_t sections = std::max<uint32_t>(config.ripq_sections, 1);
    return static_cast<uint8_t>(std::min<uint32_t>(sections - 1, 255));
  }
  return config.gc_readmit ? 1 : 0;
}

}  // namespace

NaiveFlashModel::NaiveFlashModel(const LogFlashCacheConfig& config,
                                 std::unique_ptr<AdmissionPolicy> admission)
    : config_(Clamped(config)),
      admission_(std::move(admission)),
      rejected_bound_(4 * AutoGhostEntries(config_) + 1024),
      max_priority_(MaxPriority(config_.log)),
      ghost_(AutoGhostEntries(config_)) {
  // The optimized SegmentLog / SetAssocStore clamp their own configs; mirror
  // the clamps here without touching the ghost/rejected formulas above.
  config_.log.num_segments = std::max<uint64_t>(config_.log.num_segments, 1);
  config_.log.segment_bytes = std::max<uint64_t>(config_.log.segment_bytes, 1);
  config_.log.insert_priority = std::min<uint32_t>(config_.log.insert_priority, max_priority_);
  config_.set_store.num_sets = std::max<uint64_t>(config_.set_store.num_sets, 1);
  config_.set_store.set_bytes = std::max<uint64_t>(config_.set_store.set_bytes, 1);
  log_num_segments_ = config_.log.num_segments;
  sets_.resize(config_.set_store.num_sets);
}

// --- DRAM front (front of the vector = most recent) ----------------------

NaiveFlashModel::NDramEntry* NaiveFlashModel::FindDram(uint64_t id) {
  for (NDramEntry& e : dram_) {
    if (e.id == id) {
      return &e;
    }
  }
  return nullptr;
}

void NaiveFlashModel::EraseDram(uint64_t id) {
  for (size_t i = 0; i < dram_.size(); ++i) {
    if (dram_[i].id == id) {
      dram_.erase(dram_.begin() + static_cast<ptrdiff_t>(i));
      return;
    }
  }
}

uint64_t NaiveFlashModel::DramOccupied() const {
  uint64_t total = 0;
  for (const NDramEntry& e : dram_) {
    total += e.size;
  }
  return total;
}

void NaiveFlashModel::RecordRejection(uint64_t id) {
  if (rejected_at_.size() > rejected_bound_) {
    rejected_at_.clear();
  }
  for (auto& kv : rejected_at_) {
    if (kv.first == id) {
      kv.second = clock_;
      return;
    }
  }
  rejected_at_.emplace_back(id, clock_);
}

void NaiveFlashModel::InsertDram(uint64_t id, uint32_t size,
                                 std::vector<uint64_t>* evicted) {
  if (size > config_.dram_capacity_bytes) {
    AdmissionCandidate c;
    c.id = id;
    c.size = size;
    c.now = clock_;
    if (admission_->Admit(c)) {
      WriteFlash(id, size, evicted);
    } else {
      RecordRejection(id);
    }
    return;
  }
  while (DramOccupied() + size > config_.dram_capacity_bytes && !dram_.empty()) {
    EvictDramTail(evicted);
  }
  NDramEntry e;
  e.id = id;
  e.size = size;
  e.reads = 0;
  e.insert_time = clock_;
  dram_.insert(dram_.begin(), e);
}

void NaiveFlashModel::EvictDramTail(std::vector<uint64_t>* evicted) {
  if (dram_.empty()) {
    return;
  }
  const NDramEntry tail = dram_.back();
  dram_.pop_back();
  AdmissionCandidate c;
  c.id = tail.id;
  c.size = tail.size;
  c.dram_reads = tail.reads;
  c.dram_residency = clock_ - tail.insert_time;
  c.now = clock_;
  if (admission_->Admit(c)) {
    WriteFlash(tail.id, tail.size, evicted);
  } else {
    if (config_.dram_discipline == DramDiscipline::kSmallFifo) {
      ghost_.Insert(tail.id);
    }
    RecordRejection(tail.id);
  }
}

void NaiveFlashModel::WriteFlash(uint64_t id, uint32_t size,
                                 std::vector<uint64_t>* evicted) {
  if (config_.small_object_threshold > 0 && size < config_.small_object_threshold) {
    SetInsert(id, size, evicted);
  } else {
    LogInsert(id, size, evicted);
  }
}

// --- Segment log (flat) ---------------------------------------------------

uint64_t NaiveFlashModel::SegmentWriteOff(const NSegment& seg) const {
  uint64_t off = 0;
  for (const NLogEntry& e : seg.entries) {
    off += e.size;  // dead bytes still occupy their slot until GC
  }
  return off;
}

NaiveFlashModel::NLogEntry* NaiveFlashModel::FindLog(uint64_t id) {
  for (NSegment& seg : sealed_) {
    for (NLogEntry& e : seg.entries) {
      if (e.live && e.id == id) {
        return &e;
      }
    }
  }
  if (open_valid_) {
    for (NLogEntry& e : open_.entries) {
      if (e.live && e.id == id) {
        return &e;
      }
    }
  }
  return nullptr;
}

bool NaiveFlashModel::LogContains(uint64_t id) const {
  for (const NSetEntry& e : fifo_) {
    if (e.id == id) {
      return true;
    }
  }
  return const_cast<NaiveFlashModel*>(this)->FindLog(id) != nullptr;
}

uint64_t NaiveFlashModel::LogLiveBytes() const {
  uint64_t total = 0;
  for (const NSetEntry& e : fifo_) {
    total += e.size;
  }
  for (const NSegment& seg : sealed_) {
    for (const NLogEntry& e : seg.entries) {
      if (e.live) {
        total += e.size;
      }
    }
  }
  if (open_valid_) {
    for (const NLogEntry& e : open_.entries) {
      if (e.live) {
        total += e.size;
      }
    }
  }
  return total;
}

uint64_t NaiveFlashModel::LogSegmentsInUse() const {
  return sealed_.size() + (open_valid_ ? 1 : 0);
}

void NaiveFlashModel::LogLookup(uint64_t id) {
  NLogEntry* e = FindLog(id);
  if (e != nullptr) {
    e->priority = static_cast<uint8_t>(std::min<uint32_t>(e->priority + 1, max_priority_));
  }
}

void NaiveFlashModel::LogErase(uint64_t id) {
  for (size_t i = 0; i < fifo_.size(); ++i) {
    if (fifo_[i].id == id) {
      fifo_.erase(fifo_.begin() + static_cast<ptrdiff_t>(i));
      return;
    }
  }
  NLogEntry* e = FindLog(id);
  if (e != nullptr) {
    e->live = false;
  }
}

void NaiveFlashModel::LogInsert(uint64_t id, uint32_t size,
                                std::vector<uint64_t>* evicted) {
  const uint64_t capacity = config_.log.segment_bytes * log_num_segments_;
  if (size > (ByteFifo() ? capacity : config_.log.segment_bytes)) {
    return;  // oversize reject (stats-only in the optimized log)
  }
  LogErase(id);  // overwrite dead-marks the old copy
  if (ByteFifo()) {
    FifoEvictTo(capacity - size, evicted);
    NSetEntry e;
    e.id = id;
    e.size = size;
    fifo_.push_back(e);
    log_device_bytes_ += size;
    log_admitted_bytes_ += size;
    return;
  }
  LogAppend(id, size, static_cast<uint8_t>(config_.log.insert_priority),
            /*is_rewrite=*/false, evicted);
  log_admitted_bytes_ += size;
  LogDrainPending(evicted);
}

void NaiveFlashModel::LogAppend(uint64_t id, uint32_t size, uint8_t priority,
                                bool is_rewrite, std::vector<uint64_t>* evicted) {
  if (open_valid_ && SegmentWriteOff(open_) + size > config_.log.segment_bytes) {
    open_.seal_seq = next_seal_seq_++;
    sealed_.push_back(open_);
    open_ = NSegment();
    open_valid_ = false;
  }
  if (!open_valid_) {
    while (sealed_.size() + 1 > log_num_segments_ && !sealed_.empty()) {
      LogGcOldest(evicted);
    }
    open_ = NSegment();
    open_valid_ = true;
  }
  NLogEntry e;
  e.id = id;
  e.size = size;
  e.priority = priority;
  e.live = true;
  open_.entries.push_back(e);
  log_device_bytes_ += size;
  if (is_rewrite) {
    gc_rewrite_bytes_ += size;
  }
}

void NaiveFlashModel::LogGcOldest(std::vector<uint64_t>* evicted) {
  const NSegment victim = sealed_.front();
  sealed_.erase(sealed_.begin());
  ++segments_gced_;
  for (const NLogEntry& e : victim.entries) {
    if (!e.live) {
      continue;
    }
    if (e.priority > 0) {
      NPending p;
      p.id = e.id;
      p.size = e.size;
      p.priority = static_cast<uint8_t>(e.priority - 1);
      pending_.push_back(p);
    } else if (evicted != nullptr) {
      evicted->push_back(e.id);
    }
  }
}

void NaiveFlashModel::LogDrainPending(std::vector<uint64_t>* evicted) {
  while (!pending_.empty()) {
    const NPending p = pending_.front();
    pending_.erase(pending_.begin());
    LogAppend(p.id, p.size, p.priority, /*is_rewrite=*/true, evicted);
  }
}

void NaiveFlashModel::FifoEvictTo(uint64_t limit, std::vector<uint64_t>* evicted) {
  while (LogLiveBytes() > limit) {
    if (evicted != nullptr) {
      evicted->push_back(fifo_.front().id);
    }
    fifo_.erase(fifo_.begin());
  }
}

// --- Set store (flat) -----------------------------------------------------

uint64_t NaiveFlashModel::SetOf(uint64_t id) const {
  return Mix64(id ^ config_.set_store.hash_seed) % config_.set_store.num_sets;
}

bool NaiveFlashModel::SetContains(uint64_t id) const {
  for (const NSetEntry& e : sets_[SetOf(id)]) {
    if (e.id == id) {
      return true;
    }
  }
  return false;
}

uint64_t NaiveFlashModel::SetLiveBytes() const {
  uint64_t total = 0;
  for (const auto& set : sets_) {
    for (const NSetEntry& e : set) {
      total += e.size;
    }
  }
  return total;
}

void NaiveFlashModel::SetInsert(uint64_t id, uint32_t size,
                                std::vector<uint64_t>* evicted) {
  if (size > config_.set_store.set_bytes) {
    return;  // oversize reject
  }
  std::vector<NSetEntry>& set = sets_[SetOf(id)];
  for (size_t i = 0; i < set.size(); ++i) {
    if (set[i].id == id) {
      set.erase(set.begin() + static_cast<ptrdiff_t>(i));
      break;
    }
  }
  auto occupied = [&set]() {
    uint64_t total = 0;
    for (const NSetEntry& e : set) {
      total += e.size;
    }
    return total;
  };
  while (occupied() + size > config_.set_store.set_bytes && !set.empty()) {
    if (evicted != nullptr) {
      evicted->push_back(set.front().id);
    }
    set.erase(set.begin());
  }
  NSetEntry e;
  e.id = id;
  e.size = size;
  set.push_back(e);
  ++set_page_writes_;
}

void NaiveFlashModel::SetErase(uint64_t id) {
  std::vector<NSetEntry>& set = sets_[SetOf(id)];
  for (size_t i = 0; i < set.size(); ++i) {
    if (set[i].id == id) {
      set.erase(set.begin() + static_cast<ptrdiff_t>(i));
      return;
    }
  }
}

// --- Step / snapshot ------------------------------------------------------

bool NaiveFlashModel::Contains(uint64_t id) const {
  return const_cast<NaiveFlashModel*>(this)->FindDram(id) != nullptr || LogContains(id) ||
         SetContains(id);
}

std::string NaiveFlashModel::CheckByteConservation() const {
  if (log_device_bytes_ != log_admitted_bytes_ + gc_rewrite_bytes_) {
    std::ostringstream out;
    out << "oracle log conservation: device=" << log_device_bytes_
        << " admitted=" << log_admitted_bytes_ << " gc_rewrite=" << gc_rewrite_bytes_;
    return out.str();
  }
  return "";
}

FlashStepOutcome NaiveFlashModel::Snapshot(std::vector<uint64_t> evicted) const {
  FlashStepOutcome out;
  out.hit = last_hit_;
  out.tier = last_tier_;
  std::sort(evicted.begin(), evicted.end());
  out.flash_evicted = std::move(evicted);
  out.dram_occupied = DramOccupied();
  out.log_live_bytes = LogLiveBytes();
  out.set_live_bytes = SetLiveBytes();
  out.log_device_bytes = log_device_bytes_;
  out.log_admitted_bytes = log_admitted_bytes_;
  out.gc_rewrite_bytes = gc_rewrite_bytes_;
  out.segments_gced = segments_gced_;
  out.set_page_writes = set_page_writes_ * config_.set_store.set_bytes;
  return out;
}

FlashStepOutcome NaiveFlashModel::Step(const Request& req) {
  ++clock_;
  std::vector<uint64_t> evicted;

  if (req.op == OpType::kDelete) {
    EraseDram(req.id);
    LogErase(req.id);
    SetErase(req.id);
    last_hit_ = false;
    last_tier_ = -1;
    return Snapshot(std::move(evicted));
  }

  NDramEntry* dram_e = FindDram(req.id);
  if (dram_e != nullptr) {
    ++dram_e->reads;
    if (config_.dram_discipline == DramDiscipline::kLru) {
      const NDramEntry copy = *dram_e;
      EraseDram(req.id);
      dram_.insert(dram_.begin(), copy);
      dram_e = &dram_.front();
    }
    if (req.op == OpType::kSet) {
      EraseDram(req.id);
      InsertDram(req.id, req.size, &evicted);
    }
    last_hit_ = true;
    last_tier_ = 1;
    return Snapshot(std::move(evicted));
  }

  const bool in_log = LogContains(req.id);
  if (in_log || SetContains(req.id)) {
    if (req.op == OpType::kSet) {
      if (in_log) {
        LogErase(req.id);
      } else {
        SetErase(req.id);
      }
      WriteFlash(req.id, req.size, &evicted);
    } else if (in_log) {
      LogLookup(req.id);
    }
    last_hit_ = true;
    last_tier_ = in_log ? 2 : 3;
    return Snapshot(std::move(evicted));
  }

  // Miss.
  for (size_t i = 0; i < rejected_at_.size(); ++i) {
    if (rejected_at_[i].first == req.id) {
      admission_->OnRejectedReuse(req.id, clock_ - rejected_at_[i].second);
      rejected_at_.erase(rejected_at_.begin() + static_cast<ptrdiff_t>(i));
      break;
    }
  }
  last_hit_ = false;
  last_tier_ = 0;
  if (config_.dram_discipline == DramDiscipline::kSmallFifo && ghost_.Contains(req.id)) {
    ghost_.Remove(req.id);
    WriteFlash(req.id, req.size, &evicted);
    return Snapshot(std::move(evicted));
  }
  InsertDram(req.id, req.size, &evicted);
  return Snapshot(std::move(evicted));
}

FlashStepOutcome NaiveFlashModel::Resize(uint64_t num_segments) {
  std::vector<uint64_t> evicted;
  log_num_segments_ = std::max<uint64_t>(num_segments, 1);
  if (ByteFifo()) {
    FifoEvictTo(config_.log.segment_bytes * log_num_segments_, &evicted);
  }
  while (LogSegmentsInUse() > log_num_segments_ && !sealed_.empty()) {
    LogGcOldest(&evicted);
    LogDrainPending(&evicted);
  }
  last_hit_ = false;
  last_tier_ = -1;
  return Snapshot(std::move(evicted));
}

// --- Differential driver --------------------------------------------------

namespace {

std::string IdList(const std::vector<uint64_t>& ids) {
  std::ostringstream out;
  out << "{";
  for (size_t i = 0; i < ids.size(); ++i) {
    out << (i == 0 ? "" : ",") << ids[i];
  }
  out << "}";
  return out.str();
}

std::string DescribeFlashRequest(const Request& req) {
  std::ostringstream out;
  switch (req.op) {
    case OpType::kGet:
      out << "get";
      break;
    case OpType::kSet:
      out << "set";
      break;
    case OpType::kDelete:
      out << "del";
      break;
  }
  out << " id=" << req.id << " size=" << req.size;
  return out.str();
}

// Observes the optimized cache's step through its stats deltas and the
// last_flash_evicted() buffer, producing the same outcome shape.
FlashStepOutcome ObserveCache(const LogStructuredFlashCache& cache,
                              const LogFlashCacheStats& prev, bool hit) {
  const LogFlashCacheStats& now = cache.stats();
  FlashStepOutcome out;
  out.hit = hit;
  if (now.deletes > prev.deletes) {
    out.tier = -1;
  } else if (now.dram_hits > prev.dram_hits) {
    out.tier = 1;
  } else if (now.log_hits > prev.log_hits) {
    out.tier = 2;
  } else if (now.set_hits > prev.set_hits) {
    out.tier = 3;
  } else {
    out.tier = 0;
  }
  out.flash_evicted = cache.last_flash_evicted();
  std::sort(out.flash_evicted.begin(), out.flash_evicted.end());
  out.dram_occupied = cache.dram_occupied();
  out.log_live_bytes = cache.log().live_bytes();
  out.set_live_bytes = cache.sets().live_bytes();
  out.log_device_bytes = cache.log_stats().device_bytes_written;
  out.log_admitted_bytes = cache.log_stats().admitted_bytes;
  out.gc_rewrite_bytes = cache.log_stats().gc_rewrite_bytes;
  out.segments_gced = cache.log_stats().segments_gced;
  out.set_page_writes = cache.set_stats().device_bytes_written;
  return out;
}

std::string CompareOutcomes(const FlashStepOutcome& cache, const FlashStepOutcome& oracle) {
  std::ostringstream what;
  if (cache.hit != oracle.hit) {
    what << "hit: cache=" << cache.hit << " oracle=" << oracle.hit;
  } else if (cache.tier != oracle.tier) {
    what << "tier: cache=" << cache.tier << " oracle=" << oracle.tier;
  } else if (cache.flash_evicted != oracle.flash_evicted) {
    what << "flash evicted: cache=" << IdList(cache.flash_evicted)
         << " oracle=" << IdList(oracle.flash_evicted);
  } else if (cache.dram_occupied != oracle.dram_occupied) {
    what << "dram occupied: cache=" << cache.dram_occupied
         << " oracle=" << oracle.dram_occupied;
  } else if (cache.log_live_bytes != oracle.log_live_bytes) {
    what << "log live bytes: cache=" << cache.log_live_bytes
         << " oracle=" << oracle.log_live_bytes;
  } else if (cache.set_live_bytes != oracle.set_live_bytes) {
    what << "set live bytes: cache=" << cache.set_live_bytes
         << " oracle=" << oracle.set_live_bytes;
  } else if (cache.log_device_bytes != oracle.log_device_bytes) {
    what << "log device bytes: cache=" << cache.log_device_bytes
         << " oracle=" << oracle.log_device_bytes;
  } else if (cache.log_admitted_bytes != oracle.log_admitted_bytes) {
    what << "log admitted bytes: cache=" << cache.log_admitted_bytes
         << " oracle=" << oracle.log_admitted_bytes;
  } else if (cache.gc_rewrite_bytes != oracle.gc_rewrite_bytes) {
    what << "gc rewrite bytes: cache=" << cache.gc_rewrite_bytes
         << " oracle=" << oracle.gc_rewrite_bytes;
  } else if (cache.segments_gced != oracle.segments_gced) {
    what << "segments gced: cache=" << cache.segments_gced
         << " oracle=" << oracle.segments_gced;
  } else if (cache.set_page_writes != oracle.set_page_writes) {
    what << "set device bytes: cache=" << cache.set_page_writes
         << " oracle=" << oracle.set_page_writes;
  }
  return what.str();
}

// The invariant side of the wall: device bytes are conserved on the
// optimized cache (checked after every request, which subsumes "after every
// GC") — plus the oracle's own self-check.
std::string CheckConservation(const LogStructuredFlashCache& cache,
                              const NaiveFlashModel& oracle) {
  const SegmentLogStats& log = cache.log_stats();
  if (log.device_bytes_written != log.admitted_bytes + log.gc_rewrite_bytes) {
    std::ostringstream out;
    out << "log conservation: device=" << log.device_bytes_written
        << " admitted=" << log.admitted_bytes << " gc_rewrite=" << log.gc_rewrite_bytes;
    return out.str();
  }
  const SetStoreStats& set = cache.set_stats();
  if (set.device_bytes_written != set.page_writes * cache.sets().set_bytes()) {
    std::ostringstream out;
    out << "set conservation: device=" << set.device_bytes_written
        << " page_writes=" << set.page_writes << " set_bytes=" << cache.sets().set_bytes();
    return out.str();
  }
  return oracle.CheckByteConservation();
}

}  // namespace

Divergence RunFlashDifferential(const std::vector<Request>& requests,
                                const LogFlashCacheConfig& config,
                                const std::string& admission_name, uint64_t reuse_horizon,
                                uint64_t admission_seed,
                                const FlashResizeSchedule& resizes) {
  LogStructuredFlashCache cache(
      config, CreateAdmissionPolicy(admission_name, reuse_horizon, admission_seed));
  NaiveFlashModel oracle(config,
                         CreateAdmissionPolicy(admission_name, reuse_horizon, admission_seed));

  Divergence div;
  for (uint64_t i = 0; i < requests.size(); ++i) {
    if (resizes.period > 0 && i > 0 && i % resizes.period == 0) {
      const uint64_t segments =
          resizes.min_segments + Mix64(resizes.seed ^ i) % std::max<uint64_t>(resizes.span, 1);
      const LogFlashCacheStats prev = cache.stats();
      cache.ResizeFlash(segments);
      FlashStepOutcome cache_out = ObserveCache(cache, prev, /*hit=*/false);
      cache_out.tier = -1;  // resize is not a request; match the oracle's label
      const FlashStepOutcome oracle_out = oracle.Resize(segments);
      std::string what = CompareOutcomes(cache_out, oracle_out);
      if (what.empty()) {
        what = CheckConservation(cache, oracle);
      }
      if (!what.empty()) {
        div.found = true;
        div.index = i;
        div.request = requests[i];
        div.what = what + " after resize to " + std::to_string(segments) + " segments (index " +
                   std::to_string(i) + ")";
        return div;
      }
    }

    const Request& req = requests[i];
    const LogFlashCacheStats prev = cache.stats();
    const bool hit = cache.Get(req);
    const FlashStepOutcome cache_out = ObserveCache(cache, prev, hit);
    const FlashStepOutcome oracle_out = oracle.Step(req);
    std::string what = CompareOutcomes(cache_out, oracle_out);
    if (what.empty()) {
      what = CheckConservation(cache, oracle);
    }
    if (!what.empty()) {
      div.found = true;
      div.index = i;
      div.request = req;
      div.what = what + " after request " + std::to_string(i) + " (" +
                 DescribeFlashRequest(req) + ")";
      return div;
    }
  }
  return div;
}

}  // namespace check
}  // namespace s3fifo
